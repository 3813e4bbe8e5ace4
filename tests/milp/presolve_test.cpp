// Unit tests for the bound-tightening presolve.
#include "milp/presolve.h"

#include <gtest/gtest.h>

#include "milp/branch_bound.h"

namespace stx::milp {
namespace {

TEST(Presolve, FixesEqualBoundVariablesAndSubstitutes) {
  model m;
  const int a = m.add_binary(0);
  const int fixed = m.add_continuous(3, 3, 0);
  m.add_row({{a, 1}, {fixed, 2}}, lp::relation::less_equal, 7);

  const auto pre = presolve(m);
  ASSERT_FALSE(pre.proven_infeasible);
  EXPECT_EQ(pre.var_map[1], -1);
  EXPECT_EQ(pre.fixed_value[1], 3.0);
  // Row becomes a <= 1: redundant against a's bounds, so dropped.
  EXPECT_EQ(pre.reduced.num_rows(), 0);
  EXPECT_EQ(pre.reduced.num_variables(), 1);
}

TEST(Presolve, SingletonRowTightensBound) {
  model m;
  const int x = m.add_continuous(0, 100, 0);
  m.add_row({{x, 2}}, lp::relation::less_equal, 10);  // x <= 5
  const auto pre = presolve(m);
  ASSERT_FALSE(pre.proven_infeasible);
  ASSERT_EQ(pre.reduced.num_variables(), 1);
  EXPECT_NEAR(pre.reduced.relaxation().var(0).upper, 5.0, 1e-9);
  EXPECT_EQ(pre.reduced.num_rows(), 0);  // absorbed into the bound
}

TEST(Presolve, KnapsackFixingRemovesImpossibleItem) {
  // 5a + b <= 4 forces a = 0 for binary a.
  model m;
  const int a = m.add_binary(0);
  const int b = m.add_binary(0);
  (void)b;
  m.add_row({{a, 5}, {b, 1}}, lp::relation::less_equal, 4);
  const auto pre = presolve(m);
  ASSERT_FALSE(pre.proven_infeasible);
  EXPECT_EQ(pre.var_map[0], -1);
  EXPECT_EQ(pre.fixed_value[0], 0.0);
}

TEST(Presolve, ConflictEqualityFixesSharingVariable) {
  // Mirrors Eq. 7 of the paper: s = 0 forced by 1*s == 0.
  model m;
  const int s = m.add_binary(0);
  m.add_row({{s, 1}}, lp::relation::equal, 0);
  const auto pre = presolve(m);
  ASSERT_FALSE(pre.proven_infeasible);
  EXPECT_EQ(pre.var_map[0], -1);
  EXPECT_EQ(pre.fixed_value[0], 0.0);
  EXPECT_EQ(pre.reduced.num_variables(), 0);
}

TEST(Presolve, CascadesThroughLinearization) {
  // sb fixed to zero cascades into x_i + x_j - 1 <= sb -> x_i + x_j <= 1.
  model m;
  const int xi = m.add_binary(0);
  const int xj = m.add_binary(0);
  const int sb = m.add_binary(0);
  m.add_row({{sb, 1}}, lp::relation::equal, 0);
  m.add_row({{xi, 1}, {xj, 1}, {sb, -1}}, lp::relation::less_equal, 1);
  m.add_row({{xi, 1}}, lp::relation::greater_equal, 1);  // xi = 1
  const auto pre = presolve(m);
  ASSERT_FALSE(pre.proven_infeasible);
  // xi fixed to 1, sb to 0; then xj <= 0 -> fixed to 0.
  EXPECT_EQ(pre.var_map[0], -1);
  EXPECT_EQ(pre.fixed_value[0], 1.0);
  EXPECT_EQ(pre.var_map[1], -1);
  EXPECT_EQ(pre.fixed_value[1], 0.0);
  EXPECT_EQ(pre.var_map[2], -1);
}

TEST(Presolve, ProvesInfeasibilityFromBounds) {
  model m;
  const int a = m.add_binary(0);
  const int b = m.add_binary(0);
  m.add_row({{a, 1}, {b, 1}}, lp::relation::greater_equal, 3);
  EXPECT_TRUE(presolve(m).proven_infeasible);
}

TEST(Presolve, IntegerBoundsRoundInward) {
  model m;
  const int x = m.add_integer(0.3, 4.7, 0);
  (void)x;
  const auto pre = presolve(m);
  ASSERT_FALSE(pre.proven_infeasible);
  EXPECT_EQ(pre.reduced.relaxation().var(0).lower, 1.0);
  EXPECT_EQ(pre.reduced.relaxation().var(0).upper, 4.0);
}

TEST(Presolve, ExpandRebuildsOriginalSpace) {
  model m;
  m.add_binary(0);                // stays
  m.add_continuous(2, 2, 0);      // fixed
  m.add_binary(0);                // stays
  const auto pre = presolve(m);
  const auto x = pre.expand({1.0, 0.0});
  ASSERT_EQ(x.size(), 3u);
  EXPECT_EQ(x[0], 1.0);
  EXPECT_EQ(x[1], 2.0);
  EXPECT_EQ(x[2], 0.0);
}

TEST(Presolve, SolverAgreesWithAndWithoutPresolve) {
  model m;
  const int a = m.add_binary(-3);
  const int b = m.add_binary(-2);
  const int c = m.add_binary(-1);
  const int s = m.add_binary(0);
  // A costed variable that presolve fixes (x >= 1): its objective term
  // leaves the reduced model but belongs in the bound.
  const int x = m.add_binary(1);
  m.add_row({{s, 1}}, lp::relation::equal, 0);
  m.add_row({{x, 1}}, lp::relation::greater_equal, 1);
  m.add_row({{a, 1}, {b, 1}, {s, -1}}, lp::relation::less_equal, 1);
  m.add_row({{b, 1}, {c, 1}}, lp::relation::less_equal, 1);

  bb_options with;
  bb_options without;
  without.use_presolve = false;
  const auto r1 = solve_branch_bound(m, with);
  const auto r2 = solve_branch_bound(m, without);
  ASSERT_EQ(r1.status, milp_status::optimal);
  ASSERT_EQ(r2.status, milp_status::optimal);
  EXPECT_NEAR(r1.objective, r2.objective, 1e-6);
  EXPECT_NEAR(r1.best_bound, r2.best_bound, 1e-6);
  EXPECT_NEAR(r1.best_bound, r1.objective, 1e-6);
}

}  // namespace
}  // namespace stx::milp
