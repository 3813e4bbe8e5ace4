// Unit tests for the bounded-variable two-phase simplex solver.
#include "tableau_simplex.h"

#include <gtest/gtest.h>

#include "lp/model.h"
#include "util/error.h"

namespace stx::lp {
namespace {

TEST(Simplex, SolvesTextbookTwoVariableMax) {
  // max 3a + 5b s.t. a <= 4; 2b <= 12; 3a + 2b <= 18  (as min of negation)
  // Optimum: a=2, b=6, obj = 36.
  model m;
  const int a = m.add_variable(0, infinity, -3, "a");
  const int b = m.add_variable(0, infinity, -5, "b");
  m.add_row({{a, 1}}, relation::less_equal, 4);
  m.add_row({{b, 2}}, relation::less_equal, 12);
  m.add_row({{a, 3}, {b, 2}}, relation::less_equal, 18);

  const auto res = solve_simplex(m);
  ASSERT_EQ(res.status, solve_status::optimal);
  EXPECT_NEAR(res.objective, -36.0, 1e-6);
  EXPECT_NEAR(res.x[0], 2.0, 1e-6);
  EXPECT_NEAR(res.x[1], 6.0, 1e-6);
}

TEST(Simplex, HandlesEqualityRows) {
  // min x + y  s.t.  x + y = 10, x - y = 4  ->  x=7, y=3.
  model m;
  const int x = m.add_variable(0, infinity, 1);
  const int y = m.add_variable(0, infinity, 1);
  m.add_row({{x, 1}, {y, 1}}, relation::equal, 10);
  m.add_row({{x, 1}, {y, -1}}, relation::equal, 4);

  const auto res = solve_simplex(m);
  ASSERT_EQ(res.status, solve_status::optimal);
  EXPECT_NEAR(res.x[0], 7.0, 1e-6);
  EXPECT_NEAR(res.x[1], 3.0, 1e-6);
  EXPECT_NEAR(res.objective, 10.0, 1e-6);
}

TEST(Simplex, HandlesGreaterEqualRows) {
  // min 2x + 3y s.t. x + y >= 4, x >= 1 -> x=4 (cheaper), y=0: obj 8.
  model m;
  const int x = m.add_variable(0, infinity, 2);
  const int y = m.add_variable(0, infinity, 3);
  m.add_row({{x, 1}, {y, 1}}, relation::greater_equal, 4);
  m.add_row({{x, 1}}, relation::greater_equal, 1);

  const auto res = solve_simplex(m);
  ASSERT_EQ(res.status, solve_status::optimal);
  EXPECT_NEAR(res.objective, 8.0, 1e-6);
  EXPECT_NEAR(res.x[0], 4.0, 1e-6);
}

TEST(Simplex, RespectsUpperBoundsWithoutExplicitRows) {
  // min -x - y with x in [0,3], y in [0,2], x + y <= 4 -> x=3, y=1 or x=2,y=2.
  model m;
  const int x = m.add_variable(0, 3, -1);
  const int y = m.add_variable(0, 2, -1);
  m.add_row({{x, 1}, {y, 1}}, relation::less_equal, 4);

  const auto res = solve_simplex(m);
  ASSERT_EQ(res.status, solve_status::optimal);
  EXPECT_NEAR(res.objective, -4.0, 1e-6);
  EXPECT_TRUE(m.is_feasible(res.x));
}

TEST(Simplex, DetectsInfeasibility) {
  model m;
  const int x = m.add_variable(0, 1, 0);
  m.add_row({{x, 1}}, relation::greater_equal, 2);
  EXPECT_EQ(solve_simplex(m).status, solve_status::infeasible);
}

TEST(Simplex, DetectsInfeasibleEqualitySystem) {
  model m;
  const int x = m.add_variable(0, infinity, 1);
  const int y = m.add_variable(0, infinity, 1);
  m.add_row({{x, 1}, {y, 1}}, relation::equal, 1);
  m.add_row({{x, 1}, {y, 1}}, relation::equal, 2);
  EXPECT_EQ(solve_simplex(m).status, solve_status::infeasible);
}

TEST(Simplex, DetectsUnboundedness) {
  model m;
  const int x = m.add_variable(0, infinity, -1);
  const int y = m.add_variable(0, infinity, 0);
  m.add_row({{x, 1}, {y, -1}}, relation::less_equal, 1);
  EXPECT_EQ(solve_simplex(m).status, solve_status::unbounded);
}

TEST(Simplex, HandlesNegativeLowerBounds) {
  // min x with x in [-5, 5], x >= -3  ->  x = -3.
  model m;
  const int x = m.add_variable(-5, 5, 1);
  m.add_row({{x, 1}}, relation::greater_equal, -3);
  const auto res = solve_simplex(m);
  ASSERT_EQ(res.status, solve_status::optimal);
  EXPECT_NEAR(res.x[0], -3.0, 1e-6);
}

TEST(Simplex, HandlesFreeVariables) {
  // min x + y with x free, y >= 0, x + y >= 2, x >= -10 -> x=-10? No:
  // min x: drives x down to the -10 row bound; y picks up the slack.
  model m;
  const int x = m.add_variable(-infinity, infinity, 1);
  const int y = m.add_variable(0, infinity, 2);
  m.add_row({{x, 1}, {y, 1}}, relation::greater_equal, 2);
  m.add_row({{x, 1}}, relation::greater_equal, -10);
  const auto res = solve_simplex(m);
  ASSERT_EQ(res.status, solve_status::optimal);
  EXPECT_NEAR(res.x[0], 2.0, 1e-6);  // y costs 2 > x's 1, so x carries all
  EXPECT_NEAR(res.x[1], 0.0, 1e-6);
}

TEST(Simplex, EmptyModelIsTriviallyOptimal) {
  model m;
  const auto res = solve_simplex(m);
  EXPECT_EQ(res.status, solve_status::optimal);
  EXPECT_EQ(res.objective, 0.0);
}

TEST(Simplex, BoundOnlyModelPicksCheapBounds) {
  model m;
  m.add_variable(1, 4, 2);    // min -> lower
  m.add_variable(-3, 7, -1);  // min of negative -> upper
  const auto res = solve_simplex(m);
  ASSERT_EQ(res.status, solve_status::optimal);
  EXPECT_NEAR(res.x[0], 1.0, 1e-9);
  EXPECT_NEAR(res.x[1], 7.0, 1e-9);
  EXPECT_NEAR(res.objective, 2.0 - 7.0, 1e-9);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Classic degenerate LP (multiple identical corner constraints).
  model m;
  const int x = m.add_variable(0, infinity, -1);
  const int y = m.add_variable(0, infinity, -1);
  m.add_row({{x, 1}, {y, 1}}, relation::less_equal, 1);
  m.add_row({{x, 1}, {y, 1}}, relation::less_equal, 1);
  m.add_row({{x, 2}, {y, 2}}, relation::less_equal, 2);
  m.add_row({{x, 1}}, relation::less_equal, 1);
  const auto res = solve_simplex(m);
  ASSERT_EQ(res.status, solve_status::optimal);
  EXPECT_NEAR(res.objective, -1.0, 1e-6);
}

TEST(Simplex, LargeCoefficientScalesAreHandled) {
  // Mirrors the window-bandwidth rows: coefficients in the 1e5..1e6 range.
  model m;
  const int a = m.add_variable(0, 1, 0);
  const int b = m.add_variable(0, 1, 0);
  const int c = m.add_variable(0, 1, -1);
  m.add_row({{a, 400000}, {b, 350000}, {c, 300000}}, relation::less_equal,
            700000);
  const auto res = solve_simplex(m);
  ASSERT_EQ(res.status, solve_status::optimal);
  EXPECT_NEAR(res.x[2], 1.0, 1e-6);
  EXPECT_TRUE(m.is_feasible(res.x));
}

TEST(Simplex, FixedVariableViaBoundsStaysFixed) {
  model m;
  const int x = m.add_variable(2, 2, -10);
  const int y = m.add_variable(0, 5, 1);
  m.add_row({{x, 1}, {y, 1}}, relation::greater_equal, 4);
  const auto res = solve_simplex(m);
  ASSERT_EQ(res.status, solve_status::optimal);
  EXPECT_NEAR(res.x[0], 2.0, 1e-9);
  EXPECT_NEAR(res.x[1], 2.0, 1e-6);
}

TEST(SimplexModel, RejectsDuplicateTermsInRow) {
  model m;
  const int x = m.add_variable(0, 1, 0);
  EXPECT_THROW(m.add_row({{x, 1}, {x, 2}}, relation::less_equal, 1),
               stx::invalid_argument_error);
}

TEST(SimplexModel, RejectsCrossedBounds) {
  model m;
  EXPECT_THROW(m.add_variable(3, 1, 0), stx::invalid_argument_error);
}

TEST(SimplexModel, RejectsUnknownVariableInRow) {
  model m;
  m.add_variable(0, 1, 0);
  EXPECT_THROW(m.add_row({{5, 1.0}}, relation::less_equal, 1),
               stx::invalid_argument_error);
}

TEST(SimplexModel, FeasibilityCheckerAgreesWithRelations) {
  model m;
  const int x = m.add_variable(0, 10, 0);
  m.add_row({{x, 1}}, relation::less_equal, 5);
  m.add_row({{x, 1}}, relation::greater_equal, 2);
  EXPECT_TRUE(m.is_feasible({3.0}));
  EXPECT_FALSE(m.is_feasible({6.0}));
  EXPECT_FALSE(m.is_feasible({1.0}));
  EXPECT_FALSE(m.is_feasible({11.0}));
}

}  // namespace
}  // namespace stx::lp
