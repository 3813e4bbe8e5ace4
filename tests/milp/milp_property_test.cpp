// Property test: branch & bound agrees with exhaustive enumeration on
// random small 0/1 programs.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "milp/branch_bound.h"
#include "milp/model.h"
#include "util/random.h"

namespace stx::milp {
namespace {

struct random_bip {
  model m;
  int n_vars = 0;
};

random_bip make_random_bip(rng& r, int n_vars, int n_rows) {
  random_bip out;
  out.n_vars = n_vars;
  for (int v = 0; v < n_vars; ++v) {
    out.m.add_binary(r.uniform(-5.0, 5.0));
  }
  for (int rr = 0; rr < n_rows; ++rr) {
    std::vector<lp::term> terms;
    for (int v = 0; v < n_vars; ++v) {
      if (r.chance(0.5)) terms.push_back({v, r.uniform(-4.0, 4.0)});
    }
    if (terms.empty()) continue;
    const int kind = static_cast<int>(r.uniform_int(0, 2));
    const double rhs = r.uniform(-3.0, 5.0);
    const auto rel = kind == 0   ? lp::relation::less_equal
                     : kind == 1 ? lp::relation::greater_equal
                                 : lp::relation::equal;
    // Equality rows with random continuous rhs are almost surely
    // unsatisfiable over 0/1 points; use integer-combination rhs instead.
    if (rel == lp::relation::equal) {
      double acc = 0.0;
      for (const auto& t : terms) {
        if (r.chance(0.5)) acc += t.value;
      }
      out.m.add_row(terms, rel, acc);
    } else {
      out.m.add_row(terms, rel, rhs);
    }
  }
  return out;
}

/// Exhaustively enumerate all 2^n binary points.
struct brute_result {
  bool feasible = false;
  double objective = std::numeric_limits<double>::infinity();
};

brute_result brute_force(const model& m, int n_vars) {
  brute_result out;
  std::vector<double> x(static_cast<std::size_t>(n_vars), 0.0);
  for (int mask = 0; mask < (1 << n_vars); ++mask) {
    for (int v = 0; v < n_vars; ++v) {
      x[static_cast<std::size_t>(v)] = (mask >> v) & 1 ? 1.0 : 0.0;
    }
    if (!m.is_feasible(x, 1e-7)) continue;
    out.feasible = true;
    out.objective =
        std::min(out.objective, m.relaxation().objective_value(x));
  }
  return out;
}

class MilpVsBruteForce : public ::testing::TestWithParam<int> {};

TEST_P(MilpVsBruteForce, OptimalObjectiveMatchesEnumeration) {
  rng r(static_cast<std::uint64_t>(GetParam()) * 6007 + 101);
  const int n_vars = static_cast<int>(r.uniform_int(2, 12));
  const int n_rows = static_cast<int>(r.uniform_int(1, 10));
  auto inst = make_random_bip(r, n_vars, n_rows);

  const auto expected = brute_force(inst.m, n_vars);
  const auto res = solve_branch_bound(inst.m);

  if (!expected.feasible) {
    EXPECT_EQ(res.status, milp_status::infeasible) << "seed=" << GetParam();
  } else {
    ASSERT_EQ(res.status, milp_status::optimal) << "seed=" << GetParam();
    EXPECT_NEAR(res.objective, expected.objective, 1e-5)
        << "seed=" << GetParam();
    EXPECT_TRUE(inst.m.is_feasible(res.x, 1e-5)) << "seed=" << GetParam();
  }
}

TEST_P(MilpVsBruteForce, FeasibilityModeAgreesWithEnumeration) {
  rng r(static_cast<std::uint64_t>(GetParam()) * 15485863 + 19);
  const int n_vars = static_cast<int>(r.uniform_int(2, 10));
  const int n_rows = static_cast<int>(r.uniform_int(1, 8));
  auto inst = make_random_bip(r, n_vars, n_rows);

  const auto expected = brute_force(inst.m, n_vars);
  bb_options opts;
  opts.feasibility_only = true;
  const auto res = solve_branch_bound(inst.m, opts);

  if (expected.feasible) {
    ASSERT_EQ(res.status, milp_status::optimal) << "seed=" << GetParam();
    EXPECT_TRUE(inst.m.is_feasible(res.x, 1e-5)) << "seed=" << GetParam();
  } else {
    EXPECT_EQ(res.status, milp_status::infeasible) << "seed=" << GetParam();
  }
}

TEST_P(MilpVsBruteForce, PresolveOffAgreesWithPresolveOn) {
  rng r(static_cast<std::uint64_t>(GetParam()) * 2097593 + 5);
  const int n_vars = static_cast<int>(r.uniform_int(2, 9));
  const int n_rows = static_cast<int>(r.uniform_int(1, 7));
  auto inst = make_random_bip(r, n_vars, n_rows);

  bb_options on;
  bb_options off;
  off.use_presolve = false;
  const auto r_on = solve_branch_bound(inst.m, on);
  const auto r_off = solve_branch_bound(inst.m, off);
  EXPECT_EQ(r_on.status, r_off.status) << "seed=" << GetParam();
  if (r_on.status == milp_status::optimal) {
    EXPECT_NEAR(r_on.objective, r_off.objective, 1e-5)
        << "seed=" << GetParam();
    EXPECT_NEAR(r_on.best_bound, r_off.best_bound, 1e-5)
        << "seed=" << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MilpVsBruteForce, ::testing::Range(0, 50));

}  // namespace
}  // namespace stx::milp
