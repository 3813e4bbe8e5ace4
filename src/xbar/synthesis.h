// Crossbar synthesis: minimum configuration search + optimal binding
// (paper Section 6, "Crossbar Design Algorithm").
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "sim/config.h"
#include "traffic/trace.h"
#include "xbar/bb_solver.h"
#include "xbar/problem.h"

namespace stx::xbar {

/// Which exact engine solves the two MILPs.
enum class solver_kind {
  /// Specialised branch & bound (default: fast, exact).
  specialized,
  /// Paper-faithful MILP through the generic simplex branch & bound
  /// (CPLEX stand-in). Exact but slower; used for cross-checks and the
  /// solver ablation bench.
  generic_milp,
};

/// Options for a synthesis run.
struct synthesis_options {
  design_params params;
  solver_kind solver = solver_kind::specialized;
  solver_options limits;
  /// Skip the Eq. 11 binding optimisation and keep the feasibility
  /// binding (the random/first binding ablation uses this).
  bool optimize_binding = true;

  bool operator==(const synthesis_options&) const = default;
};

/// A synthesised crossbar for one direction.
struct crossbar_design {
  int num_targets = 0;
  int num_buses = 0;
  std::vector<int> binding;       ///< target -> bus
  cycle_t max_overlap = 0;        ///< achieved Eq. 11 objective
  bool binding_optimal = true;    ///< proven optimal by the solver
  design_params params;
  /// Conflicting target pairs in the pre-processed input (Eq. 2); kept so
  /// reports and generated artifacts can summarise the conflict matrix.
  int num_conflicts = 0;

  // Search telemetry.
  std::int64_t feasibility_nodes = 0;
  std::int64_t binding_nodes = 0;
  int probes = 0;                 ///< feasibility checks in binary search

  bool operator==(const crossbar_design&) const = default;

  /// Ratio of a full crossbar's bus count to this design's (Table 2).
  double savings_vs_full() const {
    return static_cast<double>(num_targets) /
           static_cast<double>(num_buses);
  }

  /// Converts to a simulator config for validation (phase 4).
  sim::crossbar_config to_config(
      sim::arbitration policy = sim::arbitration::round_robin,
      cycle_t transfer_overhead = 2) const;

  std::string to_string() const;
};

/// Finds the minimum bus count for which the Eq. 3-9 model is feasible,
/// by binary search over [lower_bound_buses(input), |T|]. Feasibility is
/// monotone in the bus count (a k-bus solution extends to k+1 by leaving
/// the new bus empty), so binary search is exact; a property test checks
/// this against a linear scan.
int min_feasible_buses(const synthesis_input& input,
                       const synthesis_options& opts, int* probes = nullptr,
                       std::int64_t* probe_nodes = nullptr);

/// Full synthesis from a pre-processed input: size the crossbar, then
/// bind targets minimising the maximum per-bus overlap.
crossbar_design synthesize(const synthesis_input& input,
                           const synthesis_options& opts);

/// Convenience: window analysis + pre-processing + synthesis straight
/// from a functional traffic trace (phases 2-3 of Fig. 3).
crossbar_design synthesize_from_trace(const traffic::trace& t,
                                      const synthesis_options& opts);

/// The window partition phase 2 analyses `t` over: uniform windows of
/// params.window_size, or burst-adaptive ones when params.burst_window >
/// 0 (see design_params::burst_window). The one place that picks the
/// partition: input_from_trace and explore::run_sweep (which shares one
/// analysis between the sweep points whose partitions agree) both call
/// it. Reads only window_size and burst_window of `params`.
traffic::window_partition analysis_partition(const traffic::trace& t,
                                             const design_params& params);

/// Phases 2-3 model construction without the solve: window analysis over
/// analysis_partition(t, params) followed by pre-processing, exactly as
/// synthesize_from_trace performs it. Exposed so verification harnesses
/// (src/testkit) can rebuild the model a design was solved against and
/// re-check feasibility and the Eq. 11 objective independently of the
/// solver that produced the design.
synthesis_input input_from_trace(const traffic::trace& t,
                                 const design_params& params);

}  // namespace stx::xbar
