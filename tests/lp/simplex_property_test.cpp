// Property-based tests: randomly generated LPs with known-feasible points.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "lp/model.h"
#include "tableau_simplex.h"
#include "util/random.h"

namespace stx::lp {
namespace {

/// Builds a random LP that is feasible by construction: pick a point x0
/// inside the box, then set every row's rhs so that x0 satisfies it.
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

class SimplexRandomLp : public ::testing::TestWithParam<int> {};

TEST_P(SimplexRandomLp, FindsFeasibleOptimumAtLeastAsGoodAsWitness) {
  rng r(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  const int n_vars = static_cast<int>(r.uniform_int(1, 14));
  const int n_rows = static_cast<int>(r.uniform_int(0, 18));
  auto inst = make_random_feasible_lp(r, n_vars, n_rows);

  const auto res = solve_simplex(inst.m);
  ASSERT_EQ(res.status, solve_status::optimal)
      << "seed=" << GetParam() << "\n"
      << inst.m.to_string();
  EXPECT_TRUE(inst.m.is_feasible(res.x, 1e-5))
      << "seed=" << GetParam() << "\n"
      << inst.m.to_string();
  // The witness point x0 is feasible, so the optimum cannot be worse.
  EXPECT_LE(res.objective, inst.m.objective_value(inst.x0) + 1e-5)
      << "seed=" << GetParam();
}

TEST_P(SimplexRandomLp, TighteningABoundNeverImprovesTheObjective) {
  rng r(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
  const int n_vars = static_cast<int>(r.uniform_int(2, 10));
  const int n_rows = static_cast<int>(r.uniform_int(1, 12));
  auto inst = make_random_feasible_lp(r, n_vars, n_rows);

  const auto base = solve_simplex(inst.m);
  ASSERT_EQ(base.status, solve_status::optimal);

  // Tighten a random variable's upper bound to its optimal value; the
  // optimum stays attainable, so the objective must not change by more
  // than tolerance in the improving direction.
  const int v = static_cast<int>(r.uniform_int(0, n_vars - 1));
  const double xv = base.x[static_cast<std::size_t>(v)];
  inst.m.set_bounds(v, inst.m.var(v).lower, xv + 1e-9);
  const auto tightened = solve_simplex(inst.m);
  ASSERT_EQ(tightened.status, solve_status::optimal);
  EXPECT_GE(tightened.objective, base.objective - 1e-5)
      << "seed=" << GetParam();
  EXPECT_LE(tightened.objective, base.objective + 1e-4)
      << "tightening to the optimal value should keep the optimum, seed="
      << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexRandomLp, ::testing::Range(0, 60));

class SimplexInfeasibleLp : public ::testing::TestWithParam<int> {};

TEST_P(SimplexInfeasibleLp, DetectsPlantedContradiction) {
  rng r(static_cast<std::uint64_t>(GetParam()) * 31337 + 3);
  const int n_vars = static_cast<int>(r.uniform_int(1, 8));
  auto inst = make_random_feasible_lp(r, n_vars, static_cast<int>(r.uniform_int(0, 6)));
  // Plant a contradiction: sum of all vars >= (sum of uppers) + 1.
  std::vector<term> terms;
  double max_sum = 0.0;
  for (int v = 0; v < n_vars; ++v) {
    terms.push_back(term{v, 1.0});
    max_sum += inst.m.var(v).upper;
  }
  inst.m.add_row(terms, relation::greater_equal, max_sum + 1.0);
  EXPECT_EQ(solve_simplex(inst.m).status, solve_status::infeasible)
      << "seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexInfeasibleLp, ::testing::Range(0, 40));

}  // namespace
}  // namespace stx::lp
