// End-to-end design flow (paper Fig. 3): full-crossbar simulation ->
// window analysis & pre-processing -> synthesis -> validation simulation.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "gen/artifact.h"
#include "workloads/app.h"
#include "xbar/baselines.h"
#include "xbar/synthesis.h"

namespace stx::xbar {

/// Latency metrics of one validation simulation (phase 4): the kernel's
/// run harvest.
using validation_metrics = sim::run_metrics;

/// Flow knobs.
struct flow_options {
  /// Cycles simulated for trace collection (phase 1) and for each
  /// validation run (phase 4).
  traffic::cycle_t horizon = 120'000;
  /// Synthesis settings applied to BOTH directions (the window size may
  /// be overridden per direction via request/response overrides below).
  synthesis_options synth;
  /// Optional per-direction parameter overrides (<=0 / negative values
  /// mean "use synth.params").
  traffic::cycle_t request_window_override = 0;
  traffic::cycle_t response_window_override = 0;
  /// Simulator settings shared by all runs.
  sim::arbitration policy = sim::arbitration::round_robin;
  traffic::cycle_t transfer_overhead = 2;
  std::uint64_t seed = 1;

  /// Throws stx::invalid_argument_error for knobs no flow can run:
  /// horizon < 1, window size < 1, a negative or non-finite overlap
  /// threshold, or burst_window < 0. run_design_flow, explore::run_sweep,
  /// the serve protocol and the CLIs call it before any simulation.
  void validate() const;
};

/// Everything the flow produced for one application. This is also the
/// input of the generation phase (src/gen/): artifact backends consume a
/// flow_report and nothing else, so it carries the endpoint names and the
/// phase-1 traffic totals alongside the two designs.
struct flow_report {
  std::string app_name;
  int num_initiators = 0;
  int num_targets = 0;
  /// Target names from the app spec ("tgt<i>" placeholders when absent).
  std::vector<std::string> target_names;
  crossbar_design request_design;   ///< initiator->target crossbar
  crossbar_design response_design;  ///< target->initiator crossbar
  validation_metrics designed;      ///< the synthesised partial crossbars
  validation_metrics full;          ///< full crossbars reference
  int full_buses = 0;               ///< total buses of the full config
  int designed_buses = 0;           ///< total buses of the design
  /// Phase-1 busy-cycle totals per link: request_traffic[i][t] counts the
  /// cycles initiator i kept target t busy; response_traffic[t][i] the
  /// reverse direction. Artifact backends use these as edge weights.
  std::vector<std::vector<traffic::cycle_t>> request_traffic;
  std::vector<std::vector<traffic::cycle_t>> response_traffic;

  double savings() const {
    if (designed_buses == 0) return 0.0;
    return static_cast<double>(full_buses) /
           static_cast<double>(designed_buses);
  }

  bool operator==(const flow_report&) const = default;
};

/// Runs phases 1-4 for `app` and returns the report: collect_traces,
/// synthesize_design, then validate_design with the traces' `full`.
/// Deterministic for a given (app, options) pair. Two simulations: the
/// phase-1 run on full crossbars, whose metrics are also the report's
/// `full` reference, and the designed configuration's validation run.
flow_report run_design_flow(const workloads::app_spec& app,
                            const flow_options& opts);

/// Phase 4 reference point: full crossbars on both directions, measured
/// with the same simulator settings as the designed run. Depends only on
/// (app, horizon, seed, policy, transfer_overhead) — never on the
/// synthesis knobs. Bit-equal to collected_traces::full, which every
/// phase-1 run carries; this entry point is for callers that have no
/// phase-1 run to take it from.
validation_metrics validate_full_crossbars(const workloads::app_spec& app,
                                           const flow_options& opts);

/// Phase 4 only: simulate `app` on explicit crossbar configs and measure.
validation_metrics validate_configuration(const workloads::app_spec& app,
                                          const sim::crossbar_config& req,
                                          const sim::crossbar_config& resp,
                                          const flow_options& opts);

/// One phase-4 validation request of a batched call: an explicit crossbar
/// pair plus the flow options it runs under (policies/seeds may differ
/// per job; the horizon must be shared — instances advance in lockstep).
struct validation_job {
  sim::crossbar_config request;
  sim::crossbar_config response;
  flow_options opts;
};

/// Phase 4 for many configurations of the same `app` as one kernel batch:
/// entry i is bit-identical to `validate_configuration(app,
/// jobs[i].request, jobs[i].response, jobs[i].opts)` — instances are
/// independent — but the whole set shares one calendar pass.
/// explore::run_sweep validates its cohorts through this.
std::vector<validation_metrics> validate_configurations(
    const workloads::app_spec& app, const std::vector<validation_job>& jobs);

/// The synthesis parameters synthesize_design actually uses for one
/// direction: opts.synth.params with the per-direction window override
/// applied. The single source of the override rule — verification
/// harnesses (src/testkit) rebuild a direction's model through this, so
/// they can never diverge from what the flow solved.
design_params effective_synthesis_params(const flow_options& opts,
                                         bool request_direction);

/// The phase-1 result: the functional traffic traces of one run on full
/// crossbars, and that run's metrics. Recording only appends to the
/// traces, so the run is also the phase-4 full-crossbar reference: `full`
/// is bit-equal to validate_full_crossbars under the same options, and
/// validation takes it from here instead of simulating the same
/// configuration a second time.
struct collected_traces {
  traffic::trace request;   ///< events keyed by target id
  traffic::trace response;  ///< events keyed by initiator id
  validation_metrics full;  ///< the run's harvest: the full reference
};

/// Phase 1: simulates `app` on full crossbars with trace recording on.
collected_traces collect_traces(const workloads::app_spec& app,
                                const flow_options& opts);

/// Stage "analyze + synthesize" (phases 2-3) alone: window analysis,
/// pre-processing and crossbar synthesis for both directions from an
/// injected phase-1 result, honouring the per-direction window
/// overrides. The report comes back unvalidated (zeroed latency metrics)
/// but otherwise complete: a synthesis-only report as it stands, or the
/// input of validate_design.
flow_report synthesize_design(const workloads::app_spec& app,
                              const collected_traces& traces,
                              const flow_options& opts);

/// Report assembly for a synthesised design pair: the app's endpoint
/// names (padded with "tgt<i>"), the phase-1 traffic matrices of
/// `traces`, the two designs and both bus counts, with zeroed latency
/// metrics. synthesize_design ends with it; explore::run_sweep calls it
/// per point with designs it shares between points.
flow_report report_from_designs(const workloads::app_spec& app,
                                const collected_traces& traces,
                                crossbar_design request,
                                crossbar_design response);

/// Stage "validate" (phase 4) against an already-synthesised report:
/// simulates the designed configuration and fills report.designed, then
/// report.full from `full` when provided (else re-simulates the
/// full-crossbar reference). Callers holding the phase-1 result pass its
/// `full`, which must come from the same (app, horizon, seed, policy,
/// transfer_overhead) as `opts`, or the report's `full` section lies.
/// Idempotent: re-running overwrites the same fields. A synthesis-only
/// report skips this stage and keeps its zeroed latency metrics.
void validate_design(const workloads::app_spec& app, const flow_options& opts,
                     const std::optional<validation_metrics>& full,
                     flow_report& report);

/// Phase 5, "Generation" (the step Fig. 3 feeds into): renders `report`
/// into deployable artifacts through the gen backend registry. Backend
/// names are resolved via gen::registry; unknown names throw. Pure — use
/// gen::write_artifacts to put the results on disk.
std::vector<gen::artifact> generate_artifacts(const flow_report& report,
                                              const gen::generate_options& opts);

}  // namespace stx::xbar
