// Unit tests for the specialised branch & bound solver.
#include "xbar/bb_solver.h"

#include <gtest/gtest.h>

#include <atomic>
#include <climits>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "util/error.h"
#include "util/random.h"
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

/// Direct-input builder for readable tests.
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
  if (om.empty()) {
    om.assign(n, std::vector<cycle_t>(n, 0));
  }
  return synthesis_input(std::move(comm), std::move(om), std::move(conf),
                         p.window_size, p);
}

TEST(BbSolver, PacksWhenBandwidthAllows) {
  // Three targets of 30 cycles in one 100-cycle window: fit on one bus.
  const auto in = make_input({{30}, {30}, {30}}, {}, {}, basic_params());
  const auto b = find_feasible_binding(in, 1);
  ASSERT_TRUE(b.has_value());
  EXPECT_TRUE(in.binding_feasible(*b, 1));
}

TEST(BbSolver, BandwidthForcesSeparation) {
  // 60 + 60 > 100: two buses needed.
  const auto in = make_input({{60}, {60}}, {}, {}, basic_params());
  EXPECT_FALSE(find_feasible_binding(in, 1).has_value());
  EXPECT_TRUE(find_feasible_binding(in, 2).has_value());
}

TEST(BbSolver, PerWindowConstraintIsNotAggregate) {
  // Aggregate fits (60+60 over two windows = 120 <= 200) but window 0
  // collides: per-window semantics must reject one bus.
  const auto in =
      make_input({{60, 0}, {60, 0}}, {}, {}, basic_params(100));
  EXPECT_FALSE(find_feasible_binding(in, 1).has_value());
  // Anti-correlated traffic shares fine.
  const auto in2 =
      make_input({{60, 0}, {0, 60}}, {}, {}, basic_params(100));
  EXPECT_TRUE(find_feasible_binding(in2, 1).has_value());
}

TEST(BbSolver, ConflictCliqueNeedsThatManyBuses) {
  const auto in = make_input({{10}, {10}, {10}}, {},
                             {{0, 1}, {0, 2}, {1, 2}}, basic_params());
  EXPECT_FALSE(find_feasible_binding(in, 2).has_value());
  const auto b = find_feasible_binding(in, 3);
  ASSERT_TRUE(b.has_value());
  std::set<int> used(b->begin(), b->end());
  EXPECT_EQ(used.size(), 3u);
}

TEST(BbSolver, MaxTbCaps) {
  const auto in =
      make_input({{10}, {10}, {10}, {10}}, {}, {}, basic_params(100, 2));
  EXPECT_FALSE(find_feasible_binding(in, 1).has_value());
  EXPECT_TRUE(find_feasible_binding(in, 2).has_value());
}

TEST(BbSolver, LowerBoundComponents) {
  // Bandwidth bound: total 180 over WS 100 -> 2 buses.
  const auto bw = make_input({{90}, {90}}, {}, {}, basic_params());
  EXPECT_EQ(lower_bound_buses(bw), 2);
  // Cardinality bound: 5 targets, maxtb 2 -> 3.
  const auto card = make_input({{1}, {1}, {1}, {1}, {1}}, {}, {},
                               basic_params(100, 2));
  EXPECT_EQ(lower_bound_buses(card), 3);
  // Clique bound: triangle -> 3.
  const auto clique = make_input({{1}, {1}, {1}}, {},
                                 {{0, 1}, {0, 2}, {1, 2}}, basic_params());
  EXPECT_EQ(lower_bound_buses(clique), 3);
}

TEST(BbSolver, LowerBoundTakesExtremeWindowsAndCaps) {
  // The ceiling divisions must not overflow: a window near INT64_MAX
  // (total + capacity - 1 did), demands summing past INT64_MAX, and
  // maxtb = INT_MAX (T + maxtb - 1 did).
  constexpr cycle_t kMax = std::numeric_limits<cycle_t>::max();
  EXPECT_EQ(lower_bound_buses(
                make_input({{10}, {10}}, {}, {}, basic_params(kMax))),
            1);
  EXPECT_EQ(lower_bound_buses(make_input({{kMax - 1}, {2}}, {}, {},
                                         basic_params(kMax))),
            2);
  EXPECT_EQ(lower_bound_buses(
                make_input({{kMax}, {kMax}}, {}, {}, basic_params(kMax))),
            2);
  EXPECT_EQ(lower_bound_buses(make_input({{10}, {10}}, {}, {},
                                         basic_params(100, INT_MAX))),
            1);
  // Exact multiples and remainders still round up: 3 x 40 over 100
  // needs 2 buses, 5 x 20 exactly fills 1.
  EXPECT_EQ(lower_bound_buses(
                make_input({{40}, {40}, {40}}, {}, {}, basic_params())),
            2);
  EXPECT_EQ(lower_bound_buses(make_input({{20}, {20}, {20}, {20}, {20}},
                                         {}, {}, basic_params())),
            1);
  // 7 targets under maxtb 3 need ceil(7 / 3) = 3 buses.
  EXPECT_EQ(lower_bound_buses(make_input({{1}, {1}, {1}, {1}, {1}, {1}, {1}},
                                         {}, {}, basic_params(100, 3))),
            3);
}

TEST(BbSolver, MinOverlapBindingMatchesHandOptimum) {
  // Four targets: om(0,1)=100, om(2,3)=90, om(0,2)=om(1,3)=10,
  // om(0,3)=om(1,2)=40. The three 2+2 pairings score 100, 40 and 10:
  // the optimum pairs (0,2)/(1,3) for maxov 10.
  std::vector<std::vector<cycle_t>> om = {
      {0, 100, 10, 40}, {100, 0, 40, 10}, {10, 40, 0, 90}, {40, 10, 90, 0}};
  const auto in = make_input({{25}, {25}, {25}, {25}}, om, {},
                             basic_params(100, 2));
  const auto sol = find_min_overlap_binding(in, 2);
  ASSERT_TRUE(sol.has_value());
  EXPECT_TRUE(sol->proven_optimal);
  EXPECT_EQ(sol->max_overlap, 10);
  EXPECT_EQ(in.max_bus_overlap(sol->binding, 2), 10);
}

TEST(BbSolver, MinOverlapHonoursConflicts) {
  // om(0,1) = 0 would make {0,1} the obvious pair, but they conflict.
  std::vector<std::vector<cycle_t>> om = {
      {0, 0, 50}, {0, 0, 50}, {50, 50, 0}};
  const auto in = make_input({{20}, {20}, {20}}, om, {{0, 1}},
                             basic_params(100, 2));
  const auto sol = find_min_overlap_binding(in, 2);
  ASSERT_TRUE(sol.has_value());
  EXPECT_NE(sol->binding[0], sol->binding[1]);
  EXPECT_EQ(sol->max_overlap, 50);
}

TEST(BbSolver, InfeasibleOptimisationReturnsNullopt) {
  const auto in = make_input({{80}, {80}, {80}}, {}, {}, basic_params());
  EXPECT_FALSE(find_min_overlap_binding(in, 2).has_value());
}

TEST(BbSolver, RandomBindingsAreFeasibleAndVary) {
  const auto in = make_input(
      {{20}, {20}, {20}, {20}, {20}, {20}}, {}, {}, basic_params(100, 3));
  std::set<std::vector<int>> seen;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto b = find_random_feasible_binding(in, 3, seed);
    ASSERT_TRUE(b.has_value());
    EXPECT_TRUE(in.binding_feasible(*b, 3));
    seen.insert(*b);
  }
  EXPECT_GT(seen.size(), 2u);  // different seeds explore different bindings
}

TEST(BbSolver, RandomBindingProvesInfeasibilityToo) {
  const auto in = make_input({{80}, {80}}, {}, {}, basic_params());
  EXPECT_FALSE(find_random_feasible_binding(in, 1, 3).has_value());
}

TEST(BbSolver, StatsReportNodes) {
  const auto in = make_input({{30}, {30}, {30}}, {}, {}, basic_params());
  solve_stats stats;
  const auto b = find_feasible_binding(in, 2, {}, &stats);
  ASSERT_TRUE(b.has_value());
  EXPECT_GT(stats.nodes, 0);
  EXPECT_TRUE(stats.complete);
}

TEST(BbSolver, NodeBudgetReturnsTheIncumbentUnproven) {
  // Ten unconstrained targets on four buses: the first descent finds a
  // binding within 11 nodes. Every om is 20-22, so the bindings' scores
  // crowd together and neither the child bound nor the look-ahead cuts
  // much: proving the optimum takes 178 nodes, far more than 60.
  std::vector<std::vector<cycle_t>> om(10, std::vector<cycle_t>(10, 0));
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t j = i + 1; j < 10; ++j) {
      om[i][j] = om[j][i] = static_cast<cycle_t>((i * 7 + j * 13) % 3 + 20);
    }
  }
  const auto in = make_input(std::vector<std::vector<cycle_t>>(10, {5}), om,
                             {}, basic_params());
  solver_options opts;
  opts.max_nodes = 60;
  solve_stats stats;
  const auto sol = find_min_overlap_binding(in, 4, opts, &stats);
  ASSERT_TRUE(sol.has_value());
  EXPECT_FALSE(sol->proven_optimal);
  EXPECT_EQ(stats.nodes, 60);
  EXPECT_FALSE(stats.complete);
  EXPECT_TRUE(in.binding_feasible(sol->binding, 4));
  EXPECT_EQ(in.max_bus_overlap(sol->binding, 4), sol->max_overlap);
}

TEST(BbSolver, RaisedCancelFlagStopsBothSearches) {
  // The portfolio race stops the losing engine through this flag.
  const auto in = make_input({{30}, {30}, {30}}, {}, {}, basic_params());
  std::atomic<bool> cancel{true};
  solver_options opts;
  opts.cancel = &cancel;
  solve_stats feasibility;
  EXPECT_THROW(find_feasible_binding(in, 2, opts, &feasibility), error);
  EXPECT_FALSE(feasibility.complete);
  solve_stats binding;
  EXPECT_THROW(find_min_overlap_binding(in, 2, opts, &binding), error);
  EXPECT_FALSE(binding.complete);
  // The same input solves once the flag is down.
  cancel = false;
  EXPECT_TRUE(find_feasible_binding(in, 2, opts).has_value());
}

/// Exhaustive Eq. 11 optimum: every assignment of the targets to
/// `num_buses` buses, judged by the model's own feasibility test and
/// objective. nullopt when no assignment is feasible.
std::optional<cycle_t> brute_force_min_overlap(const synthesis_input& in,
                                               int num_buses) {
  const auto n = static_cast<std::size_t>(in.num_targets());
  std::vector<int> binding(n, 0);
  std::optional<cycle_t> best;
  while (true) {
    if (in.binding_feasible(binding, num_buses)) {
      const cycle_t obj = in.max_bus_overlap(binding, num_buses);
      if (!best.has_value() || obj < *best) best = obj;
    }
    std::size_t i = 0;  // odometer step over base num_buses
    while (i < n && ++binding[i] == num_buses) binding[i++] = 0;
    if (i == n) return best;
  }
}

TEST(BbSolver, MinOverlapMatchesExhaustiveEnumeration) {
  // Small random instances with conflicts, maxtb 0-3 and per-window
  // demands of up to half a window, so capacity binds: the search (with
  // its look-ahead) must reach the enumerated optimum and prove it, and
  // agree on infeasibility.
  rng r(2024);
  int feasible = 0;
  for (int instance = 0; instance < 300; ++instance) {
    SCOPED_TRACE("instance " + std::to_string(instance));
    const int n = static_cast<int>(r.uniform_int(1, 9));
    const int buses = static_cast<int>(r.uniform_int(1, 4));
    const int windows = static_cast<int>(r.uniform_int(1, 3));
    const auto maxtb = static_cast<int>(r.uniform_int(0, 3));
    std::vector<std::vector<cycle_t>> comm(static_cast<std::size_t>(n));
    for (auto& row : comm) {
      for (int m = 0; m < windows; ++m) row.push_back(r.uniform_int(0, 50));
    }
    std::vector<std::vector<cycle_t>> om(
        static_cast<std::size_t>(n),
        std::vector<cycle_t>(static_cast<std::size_t>(n), 0));
    std::vector<std::pair<int, int>> conflicts;
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        const cycle_t v = r.chance(0.2) ? 0 : r.uniform_int(1, 30);
        om[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = v;
        om[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] = v;
        if (r.chance(0.15)) conflicts.emplace_back(i, j);
      }
    }
    const auto in = make_input(std::move(comm), std::move(om),
                               std::move(conflicts), basic_params(100, maxtb));
    const auto expected = brute_force_min_overlap(in, buses);
    solve_stats stats;
    const auto sol = find_min_overlap_binding(in, buses, {}, &stats);
    ASSERT_EQ(sol.has_value(), expected.has_value());
    EXPECT_TRUE(stats.complete);
    if (!sol.has_value()) continue;
    ++feasible;
    EXPECT_EQ(sol->max_overlap, *expected);
    EXPECT_TRUE(sol->proven_optimal);
    EXPECT_TRUE(in.binding_feasible(sol->binding, buses));
  }
  EXPECT_GT(feasible, 100);  // the check is not vacuous
}

/// FNV-1a over 64-bit values, folded a byte at a time (low byte first).
class fnv1a {
 public:
  void add(std::int64_t v) {
    auto u = static_cast<std::uint64_t>(v);
    for (int b = 0; b < 8; ++b, u >>= 8) {
      hash_ ^= u & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(const std::vector<int>& v) {
    add(static_cast<std::int64_t>(v.size()));
    for (int x : v) add(x);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// What a digest folds: `answers` is every decision a completed search
/// returns (the synthesised design with its probe counts and two
/// random-baseline bindings); `tree` adds the binding search's node count
/// and a 500-node optimise search (cut by its budget or not).
enum class digest_scope { answers, tree };

/// Folds what the specialised search decides on one direction's traffic
/// over the sweep_grid grid. Node budgets only, so a slow machine cannot
/// change a digest.
std::uint64_t search_digest(const traffic::trace& t, digest_scope scope) {
  solver_options limits;
  limits.time_limit_sec = 0.0;
  fnv1a h;
  for (const cycle_t window : {200, 400, 800, 1600}) {
    for (const double threshold : {0.1, 0.3, 0.5}) {
      for (const int maxtb : {0, 4}) {
        synthesis_options so;
        so.limits = limits;
        so.params.window_size = window;
        so.params.overlap_threshold = threshold;
        so.params.max_targets_per_bus = maxtb;
        const auto in = input_from_trace(t, so.params);
        const auto d = synthesize(in, so);
        h.add(d.num_buses);
        h.add(d.binding);
        h.add(d.max_overlap);
        h.add(d.binding_optimal ? 1 : 0);
        h.add(d.probes);
        h.add(d.feasibility_nodes);
        if (scope == digest_scope::tree) h.add(d.binding_nodes);
        for (const std::uint64_t seed : {1, 2}) {
          const auto rb =
              find_random_feasible_binding(in, d.num_buses, seed, limits);
          h.add(rb.has_value() ? 1 : 0);
          if (rb.has_value()) h.add(*rb);
        }
        if (scope == digest_scope::answers) continue;
        solver_options budget = limits;
        budget.max_nodes = 500;
        solve_stats stats;
        try {
          const auto sol =
              find_min_overlap_binding(in, d.num_buses, budget, &stats);
          h.add(sol.has_value() ? 1 : 0);
          if (sol.has_value()) {
            h.add(sol->binding);
            h.add(sol->max_overlap);
            h.add(sol->proven_optimal ? 1 : 0);
          }
        } catch (const error&) {
          h.add(-1);
        }
        h.add(stats.nodes);
      }
    }
  }
  return h.value();
}

/// Per paper app, the expected (request, response) digests.
using app_digests =
    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>;

/// Checks both directions' search_digest of every paper app (horizon
/// 6,000) against `expected`.
void expect_digests(const app_digests& expected, digest_scope scope) {
  flow_options opts;
  opts.horizon = 6'000;
  for (const auto& app : workloads::all_mpsoc_apps()) {
    SCOPED_TRACE(app.name);
    const auto traces = collect_traces(app, opts);
    const auto it = expected.find(app.name);
    ASSERT_NE(it, expected.end());
    const auto request = search_digest(traces.request, scope);
    const auto response = search_digest(traces.response, scope);
    EXPECT_EQ(request, it->second.first)
        << "request digest 0x" << std::hex << request;
    EXPECT_EQ(response, it->second.second)
        << "response digest 0x" << std::hex << response;
  }
}

TEST(BbSolver, SearchTreeIsPinnedOverTheSweepGrid) {
  // The goldens pin node counts only at default parameters; these
  // digests pin the whole search (sizes, bindings, node counts, random
  // bindings, budget-cut searches) across the sweep_grid grid. A change
  // to the search's child order or pruning moves them.
  const app_digests expected = {
      {"Mat1", {0x976811061e673f83ULL, 0x388d72409a0e169bULL}},
      {"Mat2", {0x66eae5a6f3dbdf85ULL, 0x020dad12c402cd55ULL}},
      {"FFT", {0x4c458c9efc342082ULL, 0x8d9eb8ef2020deb2ULL}},
      {"QSort", {0x8706101d081ae86dULL, 0x06298e3249a7f2bdULL}},
      {"DES", {0x9f832af62cd147cbULL, 0x562fb176fcb5027dULL}},
  };
  expect_digests(expected, digest_scope::tree);
}

TEST(BbSolver, SearchAnswersArePinnedOverTheSweepGrid) {
  // Every answer a completed search returns across the sweep_grid grid:
  // bus counts, bindings, objectives, optimality flags, probe counts and
  // random bindings. Pruning that is exact leaves these digests alone
  // even where it moves the node counts SearchTreeIsPinned folds.
  const app_digests expected = {
      {"Mat1", {0x545ace0dc97548f6ULL, 0xd2ebae6fea82399fULL}},
      {"Mat2", {0x012782a0960b13f5ULL, 0xdbd14fdfefd6c624ULL}},
      {"FFT", {0x00026198ce2756daULL, 0xfd7b01ba00da0e95ULL}},
      {"QSort", {0xc82f2d505cac2589ULL, 0x23926d7ab533bcf1ULL}},
      {"DES", {0x5fc0397eef033af7ULL, 0x41ea0307686ad296ULL}},
  };
  expect_digests(expected, digest_scope::answers);
}

TEST(BbSolver, RejectsNonPositiveBusCount) {
  const auto in = make_input({{10}}, {}, {}, basic_params());
  EXPECT_THROW(find_feasible_binding(in, 0), invalid_argument_error);
}

}  // namespace
}  // namespace stx::xbar
