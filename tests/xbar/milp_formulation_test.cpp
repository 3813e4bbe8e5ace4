// Unit tests for the paper-faithful MILP formulation (Eq. 3-9, Eq. 11).
#include "xbar/milp_formulation.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <utility>

#include "milp/branch_bound.h"
#include "util/error.h"
#include "workloads/mpsoc_apps.h"
#include "xbar/flow.h"
#include "xbar/synthesis.h"

namespace stx::xbar {
namespace {

design_params basic_params(cycle_t ws = 100, int maxtb = 0) {
  design_params p;
  p.window_size = ws;
  p.max_targets_per_bus = maxtb;
  return p;
}

synthesis_input make_input(std::vector<std::vector<cycle_t>> comm,
                           std::vector<std::vector<cycle_t>> om,
                           std::vector<std::pair<int, int>> conflicts,
                           const design_params& p) {
  const auto n = comm.size();
  std::vector<std::vector<bool>> conf(n, std::vector<bool>(n, false));
  for (auto [i, j] : conflicts) {
    conf[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = true;
    conf[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] = true;
  }
  if (om.empty()) om.assign(n, std::vector<cycle_t>(n, 0));
  return synthesis_input(std::move(comm), std::move(om), std::move(conf),
                         p.window_size, p);
}

TEST(MilpFormulation, VariableCountsMatchTheModel) {
  // T=3, B=2, W=1. Compact feasibility: only the x binding variables,
  // 3*2=6. Binding keeps the paper-literal sharing layer — sb: 3 pairs
  // * 2 = 6, s: 3 — plus maxov: 6+6+3+1 = 16.
  const auto in = make_input({{10}, {10}, {10}}, {}, {}, basic_params());
  const auto fm = build_feasibility_milp(in, 2);
  EXPECT_EQ(fm.model.num_variables(), 6);
  EXPECT_TRUE(fm.sb.empty());
  EXPECT_TRUE(fm.s.empty());
  const auto bm = build_binding_milp(in, 2);
  EXPECT_EQ(bm.model.num_variables(), 16);
  EXPECT_GE(bm.maxov, 0);
  EXPECT_EQ(fm.maxov, -1);
}

TEST(MilpFormulation, RowCountsMatchTheModel) {
  // T=3, B=2, W=2, maxtb set, no conflicts.
  // Compact feasibility: Eq3: 3, Eq4: B*W = 4 (all comm nonzero),
  // Eq8: 2. Total 9 (no sharing linearisation).
  // Binding: + Eq5: pairs*B*2 = 12, Eq6: 3, maxov rows: 0 (om all
  // zero). Total 24.
  const auto in = make_input({{10, 5}, {10, 5}, {10, 5}}, {}, {},
                             basic_params(100, 2));
  EXPECT_EQ(build_feasibility_milp(in, 2).model.num_rows(), 9);
  EXPECT_EQ(build_binding_milp(in, 2).model.num_rows(), 24);
}

TEST(MilpFormulation, ConflictAddsEqSevenRow) {
  // Compact form: one x_i_k + x_j_k <= 1 row PER BUS per conflicting
  // pair (B=2 here); the binding model keeps the single s=0 row.
  const auto base = make_input({{10}, {10}}, {}, {}, basic_params());
  const auto with = make_input({{10}, {10}}, {}, {{0, 1}}, basic_params());
  EXPECT_EQ(build_feasibility_milp(with, 2).model.num_rows(),
            build_feasibility_milp(base, 2).model.num_rows() + 2);
  EXPECT_EQ(build_binding_milp(with, 2).model.num_rows(),
            build_binding_milp(base, 2).model.num_rows() + 1);
}

TEST(MilpFormulation, FeasibilitySolveFindsValidBinding) {
  const auto in = make_input({{60}, {60}, {30}}, {}, {}, basic_params());
  const auto binding = solve_feasibility_milp(in, 2);
  ASSERT_TRUE(binding.has_value());
  EXPECT_TRUE(in.binding_feasible(*binding, 2));
  EXPECT_NE((*binding)[0], (*binding)[1]);  // 60+60 > 100
}

TEST(MilpFormulation, FeasibilityDetectsInfeasible) {
  const auto in = make_input({{60}, {60}, {60}}, {}, {}, basic_params());
  EXPECT_FALSE(solve_feasibility_milp(in, 2).has_value());
}

TEST(MilpFormulation, ConflictForcesSeparationInSolution) {
  const auto in =
      make_input({{10}, {10}}, {}, {{0, 1}}, basic_params());
  const auto binding = solve_feasibility_milp(in, 2);
  ASSERT_TRUE(binding.has_value());
  EXPECT_NE((*binding)[0], (*binding)[1]);
}

TEST(MilpFormulation, BindingMinimisesMaxOverlap) {
  // Same instance as the bb_solver hand-optimum test.
  std::vector<std::vector<cycle_t>> om = {
      {0, 100, 10, 40}, {100, 0, 40, 10}, {10, 40, 0, 90}, {40, 10, 90, 0}};
  const auto in = make_input({{25}, {25}, {25}, {25}}, om, {},
                             basic_params(100, 2));
  const auto sol = solve_binding_milp(in, 2);
  ASSERT_TRUE(sol.has_value());
  EXPECT_EQ(sol->max_overlap, 10);
  EXPECT_TRUE(in.binding_feasible(sol->binding, 2));
}

TEST(MilpFormulation, PairIndexIsCanonical) {
  const auto in = make_input({{1}, {1}, {1}, {1}}, {}, {}, basic_params());
  const auto fm = build_feasibility_milp(in, 2);
  EXPECT_EQ(fm.pair_index(0, 1), 0);
  EXPECT_EQ(fm.pair_index(1, 0), 0);  // unordered
  EXPECT_EQ(fm.pair_index(2, 3), 5);
  EXPECT_THROW(fm.pair_index(1, 1), invalid_argument_error);
}

TEST(MilpFormulation, MaxtbZeroMeansNoCardinalityRows) {
  const auto unlimited = make_input({{10}, {10}}, {}, {},
                                    basic_params(100, 0));
  const auto limited = make_input({{10}, {10}}, {}, {},
                                  basic_params(100, 1));
  EXPECT_EQ(build_feasibility_milp(limited, 2).model.num_rows(),
            build_feasibility_milp(unlimited, 2).model.num_rows() + 2);
}

/// FNV-1a over the bytes of one integer.
std::uint64_t fnv1a(std::uint64_t h, std::int64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (static_cast<std::uint64_t>(v) >> (8 * i)) & 0xffU;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Everything deterministic about one search: its counts, the decoded
/// binding and the integral objective. No raw double is hashed, because
/// the sign of an exact zero is not part of the result.
std::uint64_t digest_search(std::uint64_t h, const milp::bb_result& r,
                            const xbar_milp& mm) {
  for (const std::int64_t v : std::initializer_list<std::int64_t>{
           static_cast<std::int64_t>(r.status), r.nodes, r.lp_iterations,
           r.dual_pivots, r.refactorizations, r.warm_solves, r.cold_solves,
           r.waves, r.cuts_added, std::llround(r.objective)}) {
    h = fnv1a(h, v);
  }
  if (!r.x.empty()) {
    for (const int bus : mm.decode_binding(r.x)) h = fnv1a(h, bus);
  }
  return h;
}

/// What any exact engine must reproduce of one search: its status and
/// integral objective. Counts and the decoded binding are left out, since
/// a different pivot order may reach another of several tied optima.
std::uint64_t digest_answer(std::uint64_t h, const milp::bb_result& r,
                            const xbar_milp&) {
  h = fnv1a(h, static_cast<std::int64_t>(r.status));
  return fnv1a(h, std::llround(r.objective));
}

/// Runs the generic MILP path's searches on the benchmark's DES and QSort
/// inputs: flow seeds 1-2, horizon 8k, both directions, window 400,
/// threshold 0.30, maxtb 4. For each input, the Eq. 11 binding MILP at
/// the minimal bus count B and the Eq. 3-9 feasibility MILP at B - 1,
/// under node budgets only; `digest` folds each search into one FNV-1a
/// hash per app, which must equal the pinned one.
template <class Digest>
void expect_generic_searches(
    const std::pair<workloads::app_spec, std::uint64_t> (&expected)[2],
    Digest digest) {
  for (const auto& [app, want] : expected) {
    std::uint64_t h = 14695981039346656037ULL;
    for (const std::uint64_t seed : {1, 2}) {
      flow_options opts;
      opts.horizon = 8'000;
      opts.seed = seed;
      opts.synth.params.window_size = 400;
      opts.synth.params.overlap_threshold = 0.30;
      opts.synth.params.max_targets_per_bus = 4;
      const auto traces = collect_traces(app, opts);
      for (const bool request : {true, false}) {
        const auto in = input_from_trace(
            request ? traces.request : traces.response,
            effective_synthesis_params(opts, request));
        synthesis_options spec;
        spec.params = in.params();
        const int buses = min_feasible_buses(in, spec);
        ASSERT_GT(buses, 1) << app.name;

        milp::bb_options mo;
        mo.time_limit_sec = 0.0;
        mo.max_nodes = 100'000;
        const auto bm = build_binding_milp(in, buses);
        const auto bind = milp::solve_branch_bound(bm.model, mo);
        ASSERT_EQ(bind.status, milp::milp_status::optimal) << app.name;
        EXPECT_EQ(in.max_bus_overlap(bm.decode_binding(bind.x), buses),
                  std::llround(bind.objective))
            << app.name;
        h = digest(h, bind, bm);

        mo.feasibility_only = true;
        const auto fm = build_feasibility_milp(in, buses - 1);
        const auto probe = milp::solve_branch_bound(fm.model, mo);
        EXPECT_EQ(probe.status, milp::milp_status::infeasible) << app.name;
        h = digest(h, probe, fm);
      }
    }
    EXPECT_EQ(h, want) << app.name << ": 0x" << std::hex << h;
  }
}

TEST(MilpFormulation, GenericSearchIsPinnedOnSynthMilpShapedInputs) {
  // Every pivot, node and refactorization count: a change to the LP or
  // MILP engine that moves any pivot or rounding moves a digest.
  expect_generic_searches({{workloads::make_des(), 0x7d302602de12bc19ULL},
                           {workloads::make_qsort(), 0x46bc6136c9710a81ULL}},
                          digest_search);
}

TEST(MilpFormulation, GenericSearchAnswersArePinnedOnSynthMilpShapedInputs) {
  // Only the answers of the same searches: an LP engine that pivots or
  // rounds differently must still leave these digests alone.
  expect_generic_searches({{workloads::make_des(), 0x9a404155f0923231ULL},
                           {workloads::make_qsort(), 0x3fbabab28606260eULL}},
                          digest_answer);
}

}  // namespace
}  // namespace stx::xbar
