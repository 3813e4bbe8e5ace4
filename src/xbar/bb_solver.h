// Specialised exact solver for the crossbar binding model.
//
// Solves the same model as the paper's MILPs (Eq. 3-9 feasibility and the
// Eq. 11 min-max-overlap binding) with a dedicated branch & bound:
// targets are assigned to buses hardest-first, with window-bandwidth /
// conflict / cardinality propagation and bus-symmetry breaking. Exact —
// property tests cross-check it against the generic MILP path — and the
// default engine (solver_kind::specialized).
//
// Placing a target on a bus (and undoing it) updates per-bus running
// tables: each target's summed overlap with the bus's members, the count
// of members conflicting with each target, the member count and the
// per-window load. A search node therefore reads its Eq. 11 deltas and
// conflict tests from the tables, tests the O(1) objective bound before
// the capacity scan, and allocates nothing. The binding search tries
// children in (overlap delta, bus id) order.
//
// Once the binding search holds an incumbent, each node also runs a
// pigeonhole look-ahead over the unplaced targets: the buses each can
// still join below the incumbent, how many targets each bus can still
// take, and whether two targets that must share a bus can. It cuts only
// subtrees with no binding better than the incumbent, so every completed
// search returns the binding, objective and proven_optimal flag of the
// search without it, in fewer nodes; a node-budget-cut search gets
// further along the same order, so its incumbent is no worse.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "xbar/problem.h"

namespace stx::xbar {

/// Search limits, honoured by BOTH engines: the specialised branch &
/// bound directly, and the generic MILP path via milp::bb_options. The
/// defaults are far above what the paper-scale instances (|T| <= 32)
/// need; verification harnesses shrink them to bound a cross-check.
struct solver_options {
  std::int64_t max_nodes = 20'000'000;
  double time_limit_sec = 60.0;
  /// Generic-MILP path: worker threads for the wave-parallel branch &
  /// bound (milp::bb_options::threads; results are bit-identical across
  /// values, only wall time changes).
  int threads = 1;
  /// Generic-MILP path: separate cover/clique cuts at the root.
  bool cuts = true;
  /// Race the specialised solver against the generic MILP on every
  /// feasibility probe and take the first DEFINITIVE answer. Both
  /// engines are exact, so the sat/unsat verdict — and with it the bus
  /// count — stays deterministic; which engine wins is timing-dependent,
  /// so probe node telemetry is zeroed under portfolio mode and win
  /// attribution goes to the obs wall section.
  bool portfolio = false;
  /// Cooperative cancellation: when non-null and it reads true, both
  /// engines stop at their next budget check as if the time limit fired
  /// (the portfolio uses this to cancel the losing engine). The caller
  /// keeps ownership.
  const std::atomic<bool>* cancel = nullptr;

  bool operator==(const solver_options&) const = default;
};

/// Search telemetry.
struct solve_stats {
  std::int64_t nodes = 0;
  bool complete = true;  ///< search ran to proof (not stopped by limits)
  double seconds = 0.0;
};

/// Feasibility (MILP 10 equivalent): find any binding of targets onto
/// `num_buses` buses satisfying Eq. 3-9, or prove none exists.
/// Returns nullopt on proven infeasibility. Throws if limits were hit
/// before an answer (stats->complete false tells the caller why).
std::optional<std::vector<int>> find_feasible_binding(
    const synthesis_input& input, int num_buses,
    const solver_options& opts = {}, solve_stats* stats = nullptr);

/// Optimal binding (MILP 11 equivalent): minimize the maximum per-bus
/// summed pairwise overlap subject to Eq. 3-9.
struct binding_solution {
  std::vector<int> binding;
  cycle_t max_overlap = 0;
  bool proven_optimal = true;
};
std::optional<binding_solution> find_min_overlap_binding(
    const synthesis_input& input, int num_buses,
    const solver_options& opts = {}, solve_stats* stats = nullptr);

/// A *random* feasible binding (Sec. 7.3's random-binding baseline):
/// randomised DFS that still honours Eq. 3-9. Distinct seeds give
/// different bindings. Returns nullopt on proven infeasibility.
std::optional<std::vector<int>> find_random_feasible_binding(
    const synthesis_input& input, int num_buses, std::uint64_t seed,
    const solver_options& opts = {});

/// Cheap lower bound on the feasible bus count, used to seed the binary
/// search and to fail infeasible probes without search:
///  * bandwidth: ceil(max_m sum_i comm[i][m] / WS)
///  * cardinality: ceil(T / maxtb)
///  * conflicts: a greedily grown clique in the conflict graph
int lower_bound_buses(const synthesis_input& input);

}  // namespace stx::xbar
