// Warm-started incremental branch & bound: cut-layer outcome
// equivalence on random 0/1 programs, engine telemetry, and the
// symmetry-group declaration (lexicographic ordering rows).
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "lp/revised_simplex.h"
#include "milp/branch_bound.h"
#include "milp/model.h"
#include "milp/presolve.h"
#include "util/error.h"
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

class CutsOnVsOff : public ::testing::TestWithParam<int> {};

TEST_P(CutsOnVsOff, OutcomesAreIdenticalOnRandomBips) {
  // Cover/clique cuts are valid inequalities: they may only prune
  // FRACTIONAL vertices, never an integer point, so the solve outcome
  // must be identical with the cut layer on and off.
  rng r(static_cast<std::uint64_t>(GetParam()) * 40427 + 11);
  const int n_vars = static_cast<int>(r.uniform_int(2, 12));
  const int n_rows = static_cast<int>(r.uniform_int(1, 10));
  auto inst = make_random_bip(r, n_vars, n_rows);

  bb_options with_cuts;
  with_cuts.cuts = true;
  bb_options without;
  without.cuts = false;
  const auto w = solve_branch_bound(inst.m, with_cuts);
  const auto c = solve_branch_bound(inst.m, without);

  ASSERT_EQ(w.status, c.status) << "seed=" << GetParam();
  EXPECT_TRUE(w.cuts.empty() == (w.cuts_added == 0)) << "seed=" << GetParam();
  EXPECT_EQ(c.cuts_added, 0) << "seed=" << GetParam();
  if (w.status == milp_status::optimal) {
    EXPECT_NEAR(w.objective, c.objective, 1e-6)
        << "seed=" << GetParam();
    EXPECT_NEAR(w.best_bound, c.best_bound, 1e-6) << "seed=" << GetParam();
    EXPECT_TRUE(inst.m.is_feasible(w.x, 1e-6)) << "seed=" << GetParam();
    EXPECT_TRUE(inst.m.is_feasible(c.x, 1e-6)) << "seed=" << GetParam();
  }
}

TEST_P(CutsOnVsOff, EngineReportsWarmSolves) {
  // Any search that branches must re-solve children from the parent
  // basis; only the root separation solver (and fallback restarts) may
  // cold-solve. With cuts off, the LP solve count is exactly the node
  // count plus the one root separation solve.
  rng r(static_cast<std::uint64_t>(GetParam()) * 88811 + 3);
  auto inst = make_random_bip(r, 10, 6);
  bb_options opts;
  opts.cuts = false;
  opts.use_presolve = false;  // keep the node structure un-reduced
  opts.rounding_heuristic = false;
  const auto w = solve_branch_bound(inst.m, opts);
  if (w.nodes > 1) {
    EXPECT_GT(w.warm_solves, 0) << "seed=" << GetParam();
  }
  if (w.waves > 0) {
    EXPECT_EQ(w.nodes + 1, w.warm_solves + w.cold_solves)
        << "seed=" << GetParam();
  } else {
    // Root-terminal solve (infeasible/unbounded relaxation): the one
    // separation-solver cold solve is the whole search.
    EXPECT_EQ(w.nodes, 1) << "seed=" << GetParam();
    EXPECT_EQ(w.warm_solves + w.cold_solves, 1) << "seed=" << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CutsOnVsOff, ::testing::Range(0, 40));

/// A deliberately symmetric model: the min-makespan shape of Eq. 11 —
/// place T weighted "targets" on B identical "buses" minimizing the
/// maximum bus load. Fully bus-permutation symmetric and fractional at
/// the root, so the plain tree re-explores every permutation orbit. The
/// symmetry group declaration must not change the optimum, and must
/// shrink the tree.
model make_symmetric_model(int T, int B, bool declare_group) {
  model m;
  std::vector<std::vector<int>> x(static_cast<std::size_t>(T));
  for (int i = 0; i < T; ++i) {
    for (int k = 0; k < B; ++k) {
      x[static_cast<std::size_t>(i)].push_back(m.add_binary(0.0));
    }
  }
  const int z = m.add_continuous(0.0, lp::infinity, 1.0, "makespan");
  for (int i = 0; i < T; ++i) {
    std::vector<lp::term> row;
    for (int k = 0; k < B; ++k) {
      row.push_back({x[static_cast<std::size_t>(i)]
                      [static_cast<std::size_t>(k)],
                     1.0});
    }
    m.add_row(row, lp::relation::equal, 1.0);
  }
  for (int k = 0; k < B; ++k) {
    std::vector<lp::term> load;
    for (int i = 0; i < T; ++i) {
      load.push_back({x[static_cast<std::size_t>(i)]
                       [static_cast<std::size_t>(k)],
                      static_cast<double>(3 + i)});
    }
    load.push_back({z, -1.0});
    m.add_row(load, lp::relation::less_equal, 0.0);
  }
  if (declare_group) {
    std::vector<std::vector<int>> blocks(static_cast<std::size_t>(B));
    for (int k = 0; k < B; ++k) {
      for (int i = 0; i < T; ++i) {
        blocks[static_cast<std::size_t>(k)].push_back(
            x[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)]);
      }
    }
    m.add_symmetry_group(std::move(blocks));
  }
  return m;
}

TEST(SymmetryBreaking, PreservesTheOptimumAndPrunesTheTree) {
  const auto plain = make_symmetric_model(7, 3, false);
  const auto broken = make_symmetric_model(7, 3, true);
  bb_options opts;
  opts.rounding_heuristic = false;  // measure the tree, not the heuristic
  opts.cuts = false;  // ...and not the cut layer (it reshapes both trees)
  const auto a = solve_branch_bound(plain, opts);
  const auto b = solve_branch_bound(broken, opts);
  ASSERT_EQ(a.status, milp_status::optimal);
  ASSERT_EQ(b.status, milp_status::optimal);
  EXPECT_NEAR(a.objective, b.objective, 1e-6);
  EXPECT_LT(b.nodes, a.nodes);
  EXPECT_TRUE(broken.is_feasible(b.x, 1e-6));
}

// The LP bound of these models is the total weight over B. For T=7, B=3
// above it equals the optimum (42/3 = 14), so the search ends at the
// first optimal incumbent and its node count measures one dive. For T=8,
// B=3 it is 52/3, below the optimum of 18: the tree must prove
// optimality by exhausting the permutation orbits, which is what the
// symmetry group prunes.
TEST(SymmetryBreaking, PrunesTheTreeThatMustProveOptimality) {
  const auto plain = make_symmetric_model(8, 3, false);
  const auto broken = make_symmetric_model(8, 3, true);
  bb_options opts;
  opts.rounding_heuristic = false;
  opts.cuts = false;
  const auto a = solve_branch_bound(plain, opts);
  const auto b = solve_branch_bound(broken, opts);
  ASSERT_EQ(a.status, milp_status::optimal);
  ASSERT_EQ(b.status, milp_status::optimal);
  EXPECT_NEAR(a.objective, b.objective, 1e-6);
  const auto root = lp::solve_revised(plain.relaxation());
  ASSERT_EQ(root.status, lp::solve_status::optimal);
  EXPECT_GT(a.objective, root.objective + 0.5);
  EXPECT_LT(b.nodes, a.nodes);
  EXPECT_TRUE(broken.is_feasible(b.x, 1e-6));
}

TEST(SymmetryBreaking, LexRowsAppearInPresolve) {
  const auto broken = make_symmetric_model(4, 3, true);
  const auto plain = make_symmetric_model(4, 3, false);
  const auto pb = presolve(broken);
  const auto pp = presolve(plain);
  ASSERT_FALSE(pb.proven_infeasible);
  for (const int v : pp.var_map) EXPECT_GE(v, 0);
  // Each target sits on exactly one bus, so the ordered buses take their
  // first targets in increasing order: target 0 is fixed on bus 0 and
  // target 1 off bus 2 (x[i][k] is variable 3i + k).
  const std::vector<std::pair<int, double>> fixed = {
      {0, 1.0}, {1, 0.0}, {2, 0.0}, {5, 0.0}};
  for (const auto& [v, value] : fixed) {
    EXPECT_LT(pb.var_map[static_cast<std::size_t>(v)], 0) << "x" << v;
    EXPECT_EQ(pb.fixed_value[static_cast<std::size_t>(v)], value) << "x" << v;
  }
  int free_vars = 0;
  for (const int v : pb.var_map) free_vars += v >= 0 ? 1 : 0;
  EXPECT_EQ(free_vars, 13 - 4);
  // B-1 = 2 lexicographic ordering rows between consecutive blocks. The
  // bus 0-1 row then drops (bus 0's fixed first target satisfies it), as
  // does target 0's assignment row; the bus 1-2 row stays.
  EXPECT_EQ(pb.reduced.num_rows(), pp.reduced.num_rows() + 2 - 2);
}

TEST(SymmetryBreaking, LexRowsAloneFixNothingInPresolve) {
  // 4 targets on 3 buses, each target on AT LEAST one bus: no row keeps
  // two buses from sharing a target, so presolve adds the lex rows and
  // fixes nothing.
  model plain;
  std::vector<std::vector<int>> blocks(3);
  for (int i = 0; i < 4; ++i) {
    std::vector<lp::term> cover;
    for (auto& block : blocks) {
      block.push_back(plain.add_binary(1.0));
      cover.push_back({block.back(), 1.0});
    }
    plain.add_row(cover, lp::relation::greater_equal, 1.0);
  }
  model broken = plain;
  broken.add_symmetry_group(blocks);
  const auto pb = presolve(broken);
  const auto pp = presolve(plain);
  ASSERT_FALSE(pb.proven_infeasible);
  EXPECT_EQ(pb.reduced.num_rows(), pp.reduced.num_rows() + 2);
  for (const int v : pb.var_map) EXPECT_GE(v, 0);
}

TEST(SymmetryBreaking, RejectsMalformedGroups) {
  model m;
  const int a = m.add_binary(1.0);
  const int b = m.add_binary(1.0);
  const int c = m.add_continuous(0.0, 1.0, 1.0);
  EXPECT_THROW(m.add_symmetry_group({{a}}), invalid_argument_error);
  EXPECT_THROW(m.add_symmetry_group({{a}, {b, a}}), invalid_argument_error);
  EXPECT_THROW(m.add_symmetry_group({{a}, {c}}), invalid_argument_error);
  EXPECT_THROW(m.add_symmetry_group({{a}, {99}}), invalid_argument_error);
  // A well-formed group is accepted and recorded.
  m.add_symmetry_group({{a}, {b}});
  EXPECT_EQ(m.symmetry_groups().size(), 1u);
}

}  // namespace
}  // namespace stx::milp
