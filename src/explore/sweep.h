// Parallel design-space exploration engine: evaluates a grid of
// methodology parameter points across one or many applications on a
// worker thread pool. Most points of a sweep land on the same crossbar,
// so run_sweep computes each distinct unit of work once and hands the
// result to every point that needs it:
//
//  * phase 1: one full-crossbar simulation per (app, horizon, seed,
//    policy, transfer overhead), through a trace_cache; its metrics are
//    every point's full-crossbar reference;
//  * window analysis: one per (phase-1 trace, direction, effective
//    window after the per-direction override, burst_window);
//  * synthesis: one per (window analysis, conflict matrix, synthesis
//    options without the overlap threshold), since the threshold reaches
//    the solvers only through the conflict matrix; each point gets the
//    shared design back with its own design_params;
//  * validation: one simulated instance per (app, request crossbar
//    config, response crossbar config), in same-app cohorts of up to 32.
//
// The keys are exact, so each point's report equals its own
// run_design_flow. Reports are ordered app-major / grid-order, and both
// they and the work done (every obs counter) are bit-identical across
// thread counts.
#pragma once

#include <cstdint>
#include <vector>

#include "explore/grid.h"
#include "explore/report.h"
#include "explore/trace_cache.h"
#include "workloads/app.h"

namespace stx::explore {

/// What to sweep: the applications, the parameter grid (plus optional
/// explicit points), and the shared simulation settings.
struct sweep_spec {
  /// Applications to explore; names must be unique (they key the trace
  /// cache). Must not be empty.
  std::vector<workloads::app_spec> apps;
  /// Cross-product axes. An all-empty grid with no extra_points is an
  /// error: a sweep must never silently run zero points.
  sweep_grid grid;
  /// Explicit points appended after the grid expansion (duplicates of
  /// grid points or of each other are dropped).
  std::vector<sweep_point> extra_points;

  /// Base synthesis settings for every knob a sweep_point does not carry
  /// (conflict pre-processing, critical-stream separation, solver
  /// limits, binding optimisation). Each point's swept fields overwrite
  /// the corresponding fields of this base.
  xbar::synthesis_options synth_base;

  /// Simulation settings shared by every point (phase 1 and phase 4).
  traffic::cycle_t horizon = 120'000;
  std::uint64_t seed = 1;
  traffic::cycle_t transfer_overhead = 2;

  /// Run the phase-4 validation simulations and fill each report's
  /// full-crossbar reference from its phase-1 run. Off = synthesis-only
  /// sweeps (Figs. 5-6 only need bus counts) with zeroed latency metrics.
  bool validate = true;

  /// Worker threads; values < 1 and 1 both run inline on the caller.
  int threads = 1;
};

/// The deduplicated evaluation points of `spec` (grid expansion followed
/// by extra_points), in deterministic order.
std::vector<sweep_point> sweep_points(const sweep_spec& spec);

/// The flow options one point evaluates under (the trace cache keys on
/// the non-synthesis part of this).
xbar::flow_options options_for(const sweep_spec& spec,
                               const sweep_point& point);

/// Runs the sweep on `spec.threads` workers, sharing phase-1 work via
/// `cache` (callers may pass a warm cache, or keep it to inspect hit
/// statistics afterwards; every point makes its own lookups, so the
/// report's cache section counts one per point). With a store behind
/// the cache, a point whose stage=metrics entry is present skips
/// validation, and every simulated point writes its own entry. Throws
/// stx::invalid_argument_error, before any simulation, on an empty app
/// list, duplicate app names, zero points, or a point whose options fail
/// flow_options::validate. A failing shared item fails every point that
/// shares it; the first failure in report order is rethrown. The report
/// is bit-identical across thread counts.
sweep_report run_sweep(const sweep_spec& spec, trace_cache& cache);

/// run_sweep with a private cache.
sweep_report run_sweep(const sweep_spec& spec);

}  // namespace stx::explore
