// Revised-simplex engine: agreement with the legacy tableau engine on
// random models, dual-simplex warm starts after bound changes, basis
// snapshot consistency, and the refactorization drift bound.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <utility>
#include <vector>

#include "lp/model.h"
#include "lp/revised_simplex.h"
#include "tableau_simplex.h"
#include "util/random.h"

namespace stx::lp {
namespace {

/// Random LP that is feasible by construction (same generator family as
/// simplex_property_test): pick x0 in the box, derive each rhs from it.
struct random_lp {
  model m;
  std::vector<double> x0;
};

random_lp make_random_feasible_lp(rng& r, int n_vars, int n_rows) {
  random_lp out;
  out.x0.reserve(static_cast<std::size_t>(n_vars));
  for (int v = 0; v < n_vars; ++v) {
    const double ub = r.uniform(0.5, 10.0);
    const double obj = r.uniform(-5.0, 5.0);
    out.m.add_variable(0.0, ub, obj);
    out.x0.push_back(r.uniform(0.0, ub));
  }
  for (int rr = 0; rr < n_rows; ++rr) {
    std::vector<term> terms;
    double activity = 0.0;
    for (int v = 0; v < n_vars; ++v) {
      if (!r.chance(0.6)) continue;
      const double a = r.uniform(-4.0, 4.0);
      terms.push_back(term{v, a});
      activity += a * out.x0[static_cast<std::size_t>(v)];
    }
    if (terms.empty()) continue;
    const int kind = static_cast<int>(r.uniform_int(0, 2));
    if (kind == 0) {
      out.m.add_row(terms, relation::less_equal,
                    activity + r.uniform(0.0, 3.0));
    } else if (kind == 1) {
      out.m.add_row(terms, relation::greater_equal,
                    activity - r.uniform(0.0, 3.0));
    } else {
      out.m.add_row(terms, relation::equal, activity);
    }
  }
  return out;
}

TEST(RevisedSimplex, SolvesATinyKnownLp) {
  // min -x - 2y  s.t.  x + y <= 4, x <= 3, y <= 2  ->  x=2? No: optimum
  // at x=2,y=2 with objective -6 (x+y=4 binding, y at its bound).
  model m;
  const int x = m.add_variable(0.0, 3.0, -1.0, "x");
  const int y = m.add_variable(0.0, 2.0, -2.0, "y");
  m.add_row({{x, 1.0}, {y, 1.0}}, relation::less_equal, 4.0);
  const auto res = solve_revised(m);
  ASSERT_EQ(res.status, solve_status::optimal);
  EXPECT_NEAR(res.objective, -6.0, 1e-7);
  EXPECT_NEAR(res.x[0], 2.0, 1e-7);
  EXPECT_NEAR(res.x[1], 2.0, 1e-7);
}

TEST(RevisedSimplex, DetectsInfeasibility) {
  model m;
  const int x = m.add_variable(0.0, 1.0, 1.0, "x");
  m.add_row({{x, 1.0}}, relation::greater_equal, 2.0);
  EXPECT_EQ(solve_revised(m).status, solve_status::infeasible);
}

TEST(RevisedSimplex, DetectsUnboundedness) {
  model m;
  const int x = m.add_variable(0.0, infinity, -1.0, "x");
  m.add_row({{x, -1.0}}, relation::less_equal, 0.0);
  EXPECT_EQ(solve_revised(m).status, solve_status::unbounded);
}

TEST(RevisedSimplex, RaisedCancelFlagStopsWarmAndColdSolvesBeforeAPivot) {
  // The branch & bound hands its cancel flag to every LP it solves, so a
  // cancelled MILP stops inside a solve instead of after it.
  model m;
  const int x = m.add_variable(0.0, 3.0, -1.0, "x");
  const int y = m.add_variable(0.0, 2.0, -2.0, "y");
  m.add_row({{x, 1.0}, {y, 1.0}}, relation::less_equal, 4.0);
  std::atomic<bool> cancel{false};
  solve_options opts;
  opts.cancel = &cancel;
  revised_solver solver(m, opts);
  const auto solved = solver.solve();
  ASSERT_EQ(solved.status, solve_status::optimal);
  EXPECT_GT(solved.iterations, 0);
  const basis_state warm = solver.last_basis();

  cancel = true;
  solver.set_bounds(y, 0.0, 1.0);
  const auto warm_res = solver.solve_from(warm);
  EXPECT_EQ(warm_res.status, solve_status::iteration_limit);
  EXPECT_EQ(warm_res.iterations, 0);
  const auto cold_res = solver.solve();
  EXPECT_EQ(cold_res.status, solve_status::iteration_limit);
  EXPECT_EQ(cold_res.iterations, 0);
}

class RevisedVsLegacy : public ::testing::TestWithParam<int> {};

TEST_P(RevisedVsLegacy, ColdSolvesAgreeWithTheTableauEngine) {
  rng r(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  const int n_vars = static_cast<int>(r.uniform_int(1, 14));
  const int n_rows = static_cast<int>(r.uniform_int(0, 18));
  auto inst = make_random_feasible_lp(r, n_vars, n_rows);

  const auto legacy = solve_simplex(inst.m);
  const auto revised = solve_revised(inst.m);
  ASSERT_EQ(legacy.status, solve_status::optimal) << "seed=" << GetParam();
  ASSERT_EQ(revised.status, solve_status::optimal) << "seed=" << GetParam();
  EXPECT_TRUE(inst.m.is_feasible(revised.x, 1e-5))
      << "seed=" << GetParam() << "\n"
      << inst.m.to_string();
  EXPECT_NEAR(legacy.objective, revised.objective,
              1e-5 * std::max(1.0, std::abs(legacy.objective)))
      << "seed=" << GetParam() << "\n"
      << inst.m.to_string();
}

TEST_P(RevisedVsLegacy, WarmRestartAfterBoundChangeMatchesAColdSolve) {
  rng r(static_cast<std::uint64_t>(GetParam()) * 60013 + 101);
  const int n_vars = static_cast<int>(r.uniform_int(2, 12));
  const int n_rows = static_cast<int>(r.uniform_int(1, 14));
  auto inst = make_random_feasible_lp(r, n_vars, n_rows);

  revised_solver solver(inst.m, {});
  const auto root = solver.solve();
  ASSERT_EQ(root.status, solve_status::optimal) << "seed=" << GetParam();
  const basis_state parent = solver.last_basis();
  EXPECT_TRUE(parent.consistent());

  // Tighten one variable's bounds the way branching would (floor/ceil
  // split around its LP value) and compare warm vs cold on the child.
  const int v = static_cast<int>(r.uniform_int(0, n_vars - 1));
  const double xv = root.x[static_cast<std::size_t>(v)];
  const double lo = inst.m.var(v).lower;
  const double hi = inst.m.var(v).upper;
  const bool up = r.chance(0.5);
  const double new_lo = up ? std::min(hi, std::floor(xv) + 1.0) : lo;
  const double new_hi = up ? hi : std::max(lo, std::floor(xv));

  solver.set_bounds(v, new_lo, new_hi);
  const auto warm = solver.solve_from(parent);

  model child = inst.m;
  child.set_bounds(v, new_lo, new_hi);
  const auto cold = solve_simplex(child);

  ASSERT_EQ(warm.status, cold.status) << "seed=" << GetParam();
  if (cold.status == solve_status::optimal) {
    EXPECT_TRUE(child.is_feasible(warm.x, 1e-5)) << "seed=" << GetParam();
    EXPECT_NEAR(warm.objective, cold.objective,
                1e-5 * std::max(1.0, std::abs(cold.objective)))
        << "seed=" << GetParam();
  }
}

TEST_P(RevisedVsLegacy, RefactorizationIntervalDoesNotChangeTheOutcome) {
  // Drift bound: refactorizing after EVERY pivot (interval 1, pure
  // factorized path) and only rarely (interval 1024, pure eta path) must
  // agree on status and objective — the eta accumulation stays within
  // the refresh tolerance by construction.
  rng r(static_cast<std::uint64_t>(GetParam()) * 271 + 17);
  const int n_vars = static_cast<int>(r.uniform_int(2, 12));
  const int n_rows = static_cast<int>(r.uniform_int(1, 14));
  auto inst = make_random_feasible_lp(r, n_vars, n_rows);

  solve_options every_pivot;
  every_pivot.refactor_interval = 1;
  solve_options rarely;
  rarely.refactor_interval = 1024;

  const auto a = solve_revised(inst.m, every_pivot);
  const auto b = solve_revised(inst.m, rarely);
  ASSERT_EQ(a.status, solve_status::optimal) << "seed=" << GetParam();
  ASSERT_EQ(b.status, solve_status::optimal) << "seed=" << GetParam();
  EXPECT_NEAR(a.objective, b.objective,
              1e-6 * std::max(1.0, std::abs(a.objective)))
      << "seed=" << GetParam();
}

/// A reused solver must answer exactly like a freshly built one adopting
/// the same basis: same status, pivots, objective and point.
void expect_same_solve(const solve_result& got, const solve_result& want,
                       int tag) {
  EXPECT_EQ(got.status, want.status) << "case " << tag;
  EXPECT_EQ(got.iterations, want.iterations) << "case " << tag;
  EXPECT_EQ(got.phase1_iterations, want.phase1_iterations) << "case " << tag;
  EXPECT_EQ(got.objective, want.objective) << "case " << tag;
  EXPECT_EQ(got.x, want.x) << "case " << tag;
}

TEST_P(RevisedVsLegacy, SiblingSolvesOnOneSolverMatchFreshSolvers) {
  rng r(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
  const int n_vars = static_cast<int>(r.uniform_int(2, 12));
  const int n_rows = static_cast<int>(r.uniform_int(1, 14));
  auto inst = make_random_feasible_lp(r, n_vars, n_rows);

  revised_solver solver(inst.m, {});
  const auto root = solver.solve();
  ASSERT_EQ(root.status, solve_status::optimal) << "seed=" << GetParam();
  const basis_state parent = solver.last_basis();

  // The floor and ceil children of one branching, back to back from the
  // same parent basis: the second adopts the basis the first factored.
  const int v = static_cast<int>(r.uniform_int(0, n_vars - 1));
  const double xv = root.x[static_cast<std::size_t>(v)];
  const double lo = inst.m.var(v).lower;
  const double hi = inst.m.var(v).upper;
  const std::pair<double, double> children[] = {
      {lo, std::max(lo, std::floor(xv))},
      {std::min(hi, std::floor(xv) + 1.0), hi}};
  std::vector<solve_result> reused;
  for (const auto& [clo, chi] : children) {
    solver.set_bounds(v, clo, chi);
    reused.push_back(solver.solve_from(parent));
  }
  for (std::size_t i = 0; i < 2; ++i) {
    revised_solver fresh(inst.m, {});
    fresh.set_bounds(v, children[i].first, children[i].second);
    expect_same_solve(reused[i], fresh.solve_from(parent), GetParam());
  }
}

TEST_P(RevisedVsLegacy, AddRowThenWarmSolveMatchesASolverBuiltWithTheRow) {
  rng r(static_cast<std::uint64_t>(GetParam()) * 15485863 + 3);
  const int n_vars = static_cast<int>(r.uniform_int(2, 12));
  const int n_rows = static_cast<int>(r.uniform_int(1, 14));
  auto inst = make_random_feasible_lp(r, n_vars, n_rows);

  revised_solver solver(inst.m, {});
  const auto root = solver.solve();
  ASSERT_EQ(root.status, solve_status::optimal) << "seed=" << GetParam();
  // Solve on that basis once more, so its factorization is the solver's
  // most recent one when the row arrives.
  const basis_state before = solver.last_basis();
  ASSERT_EQ(solver.solve_from(before).status, solve_status::optimal)
      << "seed=" << GetParam();

  // A cut through the root optimum: sum a_v x_v <= activity - margin.
  std::vector<term> terms;
  double activity = 0.0;
  for (int v = 0; v < n_vars; ++v) {
    if (!r.chance(0.6)) continue;
    const double a = r.uniform(0.5, 2.0);
    terms.push_back(term{v, a});
    activity += a * root.x[static_cast<std::size_t>(v)];
  }
  if (terms.empty()) {
    terms.push_back(term{0, 1.0});
    activity = root.x[0];
  }
  const double rhs = activity - r.uniform(0.1, 1.0);
  solver.add_row(terms, relation::less_equal, rhs);
  const basis_state extended = solver.last_basis();
  const auto warm = solver.solve_from(extended);

  model with_row = inst.m;
  with_row.add_row(terms, relation::less_equal, rhs);
  revised_solver fresh(with_row, {});
  expect_same_solve(warm, fresh.solve_from(extended), GetParam());
  EXPECT_EQ(solver.last_solve_fell_back(), fresh.last_solve_fell_back())
      << "seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RevisedVsLegacy, ::testing::Range(0, 60));

TEST(RevisedSimplex, SingularWarmBasisFallsBackToTheColdSolve) {
  // x and y have identical (scaled) columns, so a basis holding both is
  // compatible in shape but singular.
  model m;
  const int x = m.add_variable(0.0, 3.0, -1.0, "x");
  const int y = m.add_variable(0.0, 3.0, -2.0, "y");
  m.add_row({{x, 1.0}, {y, 1.0}}, relation::less_equal, 4.0);
  m.add_row({{x, 1.0}, {y, 1.0}}, relation::greater_equal, 1.0);
  // Columns: x, y, two slacks, two artificials.
  basis_state singular;
  singular.basic = {x, y};
  singular.status = {var_status::basic,    var_status::basic,
                     var_status::at_lower, var_status::at_upper,
                     var_status::at_lower, var_status::at_lower};
  ASSERT_TRUE(singular.compatible(2, 6));

  revised_solver fresh(m, {});
  const auto cold = fresh.solve();
  ASSERT_EQ(cold.status, solve_status::optimal);

  revised_solver solver(m, {});
  for (int attempt = 0; attempt < 2; ++attempt) {
    // The second attempt must not find a factorization of the first.
    const auto res = solver.solve_from(singular);
    EXPECT_TRUE(solver.last_solve_fell_back()) << "attempt " << attempt;
    expect_same_solve(res, cold, attempt);
  }
}

}  // namespace
}  // namespace stx::lp
