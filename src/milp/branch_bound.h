// Branch & bound MILP solver over the revised-simplex LP relaxation.
//
// One engine, deterministically parallel:
//
//  * Nodes are explored best-bound-first with a deterministic
//    newest-first (DFS plunge) tie-break; each child inherits its
//    parent's optimal BASIS (shared_ptr chains through the tree) and
//    re-solves with a handful of dual pivots instead of a full two-phase
//    solve. Branching is most-fractional weighted by pseudocosts
//    initialised from the objective.
//
//  * Parallelism is bulk-synchronous waves: the coordinator pops a wave
//    of the globally best open nodes (wave size depends only on the heap,
//    never on the thread count), workers claim wave slots dynamically
//    (work stealing) and run pure LP solves on per-worker
//    lp::revised_solver instances, and a sequential merge in slot order
//    performs every state mutation — pseudocost updates, pruning,
//    incumbent publication, child creation. Because each LP solve is a
//    pure function of (bounds, warm basis) and the merge order is fixed,
//    `bb_result` is bit-identical across thread counts (the contract the
//    sweep engine and sim::batch pin; the only caveat is a wall-clock
//    limit actually firing, which truncates the search at a
//    timing-dependent wave).
//
//  * A root cut layer exploits the Eq. 3-9 packing structure: cover cuts
//    from knapsack rows and clique cuts from the 2-variable conflict
//    graph are separated at the root in deterministic rounds, appended to
//    the working LP through lp::revised_solver::add_row + warm dual
//    re-solves, and kept in a pool that every per-worker solver is
//    rebuilt against. Cuts are valid inequalities for every integer
//    point, so incumbents always satisfy them (the engine asserts it).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "milp/model.h"

namespace stx::milp {

/// Terminal state of a MILP solve.
enum class milp_status {
  optimal,     ///< proven optimal (or proven feasible in feasibility mode)
  feasible,    ///< incumbent found but search hit a limit before proving
  infeasible,  ///< proven: no integer feasible point exists
  unbounded,   ///< LP relaxation unbounded in the minimization direction
  limit,       ///< node/time limit hit with no incumbent: unresolved
};

const char* to_string(milp_status s);

/// Search knobs.
struct bb_options {
  /// Stop after exploring this many branch & bound nodes (checked at
  /// wave boundaries, so a wave in flight may overshoot by its size).
  std::int64_t max_nodes = 2'000'000;
  /// Wall-clock budget in seconds (checked between waves); <= 0 = none.
  double time_limit_sec = 120.0;
  /// Stop at the first integer-feasible point (paper's MILP1 usage:
  /// "obj: Feasibility Analysis").
  bool feasibility_only = false;
  /// Run bound-tightening presolve before the search.
  bool use_presolve = true;
  /// Try a round-to-nearest heuristic at each node to seed the incumbent.
  bool rounding_heuristic = true;
  /// Worker threads exploring the tree (clamped to [1, 64]). The result
  /// is bit-identical across values; only wall time changes.
  int threads = 1;
  /// Separate cover/clique cuts at the root (see header comment). Off
  /// reproduces the pure PR-5 search tree.
  bool cuts = true;
  /// Cooperative cancellation hook (portfolio racing): when non-null and
  /// it reads true, the search stops as if the time limit fired. It is
  /// read at wave boundaries, between root cut rounds, and before every
  /// LP pivot (lp::solve_options::cancel; the interrupted LP counts as
  /// iteration_limit). The caller keeps ownership. Cancellable solves are
  /// excluded from the deterministic obs counter section — a cancelled
  /// search is truncated at a timing-dependent point.
  const std::atomic<bool>* cancel = nullptr;
};

/// One pooled root cut: sum(terms) <= rhs over the variable space the
/// engine solved (the presolve-reduced space when use_presolve is on).
/// Valid for every integer-feasible point of that space.
struct bb_cut {
  std::vector<lp::term> terms;
  double rhs = 0.0;
};

/// Solve outcome. `x` is in the ORIGINAL variable space (presolve fixings
/// are expanded back) and `objective` is evaluated on the original model.
/// Every field is deterministic for a given (model, options) — including
/// across `threads` values; timing-dependent telemetry (steal counts,
/// portfolio win attribution) goes to the obs wall section instead.
struct bb_result {
  milp_status status = milp_status::limit;
  double objective = 0.0;
  std::vector<double> x;
  std::int64_t nodes = 0;
  std::int64_t lp_iterations = 0;
  double best_bound = 0.0;  ///< global lower bound on the optimum
  /// How many LP solves (root + cut rounds + nodes) re-solved from a
  /// warm basis vs from scratch (internal fallbacks count as cold).
  std::int64_t warm_solves = 0;
  std::int64_t cold_solves = 0;
  /// Pseudocost estimator refinements, the open-heap high-water mark,
  /// and the revised-simplex engine's dual-repair pivot and
  /// refactorization totals over all counted solves.
  std::int64_t pseudocost_updates = 0;
  std::int64_t max_heap_depth = 0;
  std::int64_t dual_pivots = 0;
  std::int64_t refactorizations = 0;
  /// Root cut layer: how many cover/clique cuts entered the pool, the
  /// pool itself (empty when opts.cuts is off), and how many
  /// bulk-synchronous waves the search ran.
  std::int64_t cuts_added = 0;
  std::vector<bb_cut> cuts;
  std::int64_t waves = 0;
};

/// Solves `m` exactly. The engine is exact for the 0/1 models used
/// throughout this repository; the specialised solver in src/xbar is
/// cross-checked against this path (tests/xbar), and thread-count
/// bit-identity is pinned by tests/milp/parallel_bb_test.
bb_result solve_branch_bound(const model& m, const bb_options& opts = {});

}  // namespace stx::milp
