// Unit tests for the branch & bound MILP solver on instances with known
// optima.
#include "milp/branch_bound.h"

#include <gtest/gtest.h>

#include <atomic>

#include "milp/model.h"

namespace stx::milp {
namespace {

TEST(BranchBound, SolvesSmallKnapsack) {
  // max 10a + 13b + 7c, weights 3,4,2, capacity 6 -> a+c (17)? b+c (20).
  model m;
  const int a = m.add_binary(-10);
  const int b = m.add_binary(-13);
  const int c = m.add_binary(-7);
  m.add_row({{a, 3}, {b, 4}, {c, 2}}, lp::relation::less_equal, 6);

  const auto res = solve_branch_bound(m);
  ASSERT_EQ(res.status, milp_status::optimal);
  EXPECT_NEAR(res.objective, -20.0, 1e-6);
  EXPECT_NEAR(res.x[1], 1.0, 1e-6);
  EXPECT_NEAR(res.x[2], 1.0, 1e-6);
}

TEST(BranchBound, SolvesAssignmentProblem) {
  // 3x3 assignment, cost matrix with known optimum 1+2+3 = 6 on the
  // anti-diagonal.
  const double cost[3][3] = {{5, 9, 1}, {8, 2, 7}, {3, 6, 9}};
  model m;
  int x[3][3];
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) x[i][j] = m.add_binary(cost[i][j]);
  }
  for (int i = 0; i < 3; ++i) {
    m.add_row({{x[i][0], 1}, {x[i][1], 1}, {x[i][2], 1}}, lp::relation::equal,
              1);
    m.add_row({{x[0][i], 1}, {x[1][i], 1}, {x[2][i], 1}}, lp::relation::equal,
              1);
  }
  const auto res = solve_branch_bound(m);
  ASSERT_EQ(res.status, milp_status::optimal);
  EXPECT_NEAR(res.objective, 6.0, 1e-6);
}

TEST(BranchBound, RaisedCancelFlagStopsBeforeTheFirstLpPivot) {
  // The portfolio race cancels its losing MILP through this flag. The
  // root LP reads it before each pivot, so the search stops at once
  // rather than after the root LP and its cut rounds.
  const double cost[3][3] = {{5, 9, 1}, {8, 2, 7}, {3, 6, 9}};
  model m;
  int x[3][3];
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) x[i][j] = m.add_binary(cost[i][j]);
  }
  for (int i = 0; i < 3; ++i) {
    m.add_row({{x[i][0], 1}, {x[i][1], 1}, {x[i][2], 1}}, lp::relation::equal,
              1);
    m.add_row({{x[0][i], 1}, {x[1][i], 1}, {x[2][i], 1}}, lp::relation::equal,
              1);
  }
  std::atomic<bool> cancel{true};
  bb_options opts;
  opts.cancel = &cancel;
  const auto stopped = solve_branch_bound(m, opts);
  EXPECT_EQ(stopped.status, milp_status::limit);
  EXPECT_EQ(stopped.lp_iterations, 0);
  // The same model needs pivots once the flag is down.
  cancel = false;
  const auto solved = solve_branch_bound(m, opts);
  ASSERT_EQ(solved.status, milp_status::optimal);
  EXPECT_NEAR(solved.objective, 6.0, 1e-6);
  EXPECT_GT(solved.lp_iterations, 0);
}

TEST(BranchBound, DetectsIntegerInfeasibility) {
  // 2x in [1.2, 1.8] has no integer solution even though the LP is fine.
  model m;
  const int x = m.add_integer(0, 10, 0);
  m.add_row({{x, 2}}, lp::relation::greater_equal, 2.4);
  m.add_row({{x, 2}}, lp::relation::less_equal, 3.6);
  EXPECT_EQ(solve_branch_bound(m).status, milp_status::infeasible);
}

TEST(BranchBound, FeasibilityModeStopsAtFirstSolution) {
  model m;
  std::vector<lp::term> terms;
  for (int i = 0; i < 12; ++i) {
    terms.push_back({m.add_binary(0), 1.0});
  }
  m.add_row(terms, lp::relation::equal, 6);

  bb_options opts;
  opts.feasibility_only = true;
  const auto res = solve_branch_bound(m, opts);
  ASSERT_EQ(res.status, milp_status::optimal);
  double sum = 0;
  for (double v : res.x) sum += v;
  EXPECT_NEAR(sum, 6.0, 1e-6);
}

TEST(BranchBound, MixedIntegerContinuousOptimum) {
  // min maxov s.t. maxov >= 3a + 2b, maxov >= 4(1-a) + 1, a binary.
  // a=1: maxov >= max(3+2b, 1) -> b=0 gives 3. a=0: maxov >= max(2b, 5)=5.
  model m;
  const int a = m.add_binary(0);
  const int b = m.add_binary(0);
  const int maxov = m.add_continuous(0, lp::infinity, 1);
  m.add_row({{a, 3}, {b, 2}, {maxov, -1}}, lp::relation::less_equal, 0);
  m.add_row({{a, -4}, {maxov, -1}}, lp::relation::less_equal, -5);

  const auto res = solve_branch_bound(m);
  ASSERT_EQ(res.status, milp_status::optimal);
  EXPECT_NEAR(res.objective, 3.0, 1e-5);
  EXPECT_NEAR(res.x[0], 1.0, 1e-6);
}

TEST(BranchBound, GeneralIntegerVariables) {
  // min x + y s.t. 3x + 5y >= 17, x,y integer >= 0 -> (4,1): 5 or (1,3): 4?
  // 3*1+5*3=18 >= 17, sum 4. (0,4): 20 sum 4. (2,3):21 sum 5. Best sum 4.
  model m;
  const int x = m.add_integer(0, 10, 1);
  const int y = m.add_integer(0, 10, 1);
  m.add_row({{x, 3}, {y, 5}}, lp::relation::greater_equal, 17);
  const auto res = solve_branch_bound(m);
  ASSERT_EQ(res.status, milp_status::optimal);
  EXPECT_NEAR(res.objective, 4.0, 1e-6);
}

TEST(BranchBound, HonoursNodeLimit) {
  // A big symmetric equality-partition model with a tiny node budget: the
  // solver must come back with limit or feasible, never crash or loop.
  model m;
  std::vector<lp::term> terms;
  for (int i = 0; i < 30; ++i) terms.push_back({m.add_binary(i % 3 - 1), 1.0});
  m.add_row(terms, lp::relation::equal, 15);
  bb_options opts;
  opts.max_nodes = 3;
  opts.rounding_heuristic = false;
  opts.use_presolve = false;
  const auto res = solve_branch_bound(m, opts);
  EXPECT_TRUE(res.status == milp_status::limit ||
              res.status == milp_status::feasible ||
              res.status == milp_status::optimal);
  EXPECT_LE(res.nodes, 4);
}

TEST(BranchBound, UnboundedRelaxationReported) {
  model m;
  const int x = m.add_integer(0, lp::infinity / 1, -1);
  (void)x;
  const auto res = solve_branch_bound(m);
  EXPECT_EQ(res.status, milp_status::unbounded);
}

TEST(BranchBound, RoundingHeuristicFindsObviousPoint) {
  // LP optimum is fractional but rounding is feasible; with a node budget
  // of 1 the heuristic must still deliver an incumbent.
  model m;
  const int a = m.add_binary(-1);
  const int b = m.add_binary(-1);
  m.add_row({{a, 1}, {b, 1}}, lp::relation::less_equal, 1.4);
  bb_options opts;
  opts.max_nodes = 1;
  opts.use_presolve = false;
  const auto res = solve_branch_bound(m, opts);
  EXPECT_TRUE(res.status == milp_status::feasible ||
              res.status == milp_status::optimal);
  EXPECT_LE(res.objective, -1.0 + 1e-6);
}

}  // namespace
}  // namespace stx::milp
