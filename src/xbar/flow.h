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

/// Runs phases 1-4 for `app` and returns the report. Deterministic for a
/// given (app, options) pair. Two simulations: the phase-1 run on full
/// crossbars, whose metrics are also the report's `full` reference (see
/// collect_traces), and the designed configuration's validation run.
flow_report run_design_flow(const workloads::app_spec& app,
                            const flow_options& opts);

/// Phase 4 reference point: full crossbars on both directions, measured
/// with the same simulator settings as the designed run. Depends only on
/// (app, horizon, seed, policy, transfer_overhead) — never on the
/// synthesis knobs — so sweep engines compute it once per application.
/// Bit-equal to the metrics collect_traces harvests from its phase-1 run;
/// this entry point is for callers that have no phase-1 run to take them
/// from.
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

/// The synthesis parameters design_from_traces actually uses for one
/// direction: opts.synth.params with the per-direction window override
/// applied. The single source of the override rule — verification
/// harnesses (src/testkit) rebuild a direction's model through this, so
/// they can never diverge from what the flow solved.
design_params effective_synthesis_params(const flow_options& opts,
                                         bool request_direction);

/// Collects the functional traffic traces of phase 1 (full crossbars).
struct collected_traces {
  traffic::trace request;   ///< events keyed by target id
  traffic::trace response;  ///< events keyed by initiator id
};

/// Phase 1: simulates `app` on full crossbars with trace recording on.
/// Recording only appends to the traces, so the run is also the phase-4
/// full-crossbar reference: when `full` is non-null it receives the run's
/// metrics, bit-equal to validate_full_crossbars(app, opts), and callers
/// pass them on as flow_stage_inputs::full instead of simulating the
/// same configuration a second time.
collected_traces collect_traces(const workloads::app_spec& app,
                                const flow_options& opts,
                                validation_metrics* full = nullptr);

/// Whether (and how) phase 4 runs after synthesis.
enum class validation_mode {
  /// Run the validation simulations: the designed configuration, plus the
  /// full-crossbar reference unless stage inputs supply it precomputed.
  validate,
  /// Skip phase 4 entirely: the report still carries the designs,
  /// endpoint names, traffic matrices and bus counts, with zeroed latency
  /// metrics — synthesis-only sweeps (Figs. 5-6 shapes) need nothing
  /// more.
  skip,
};

/// Precomputed inputs a staged flow invocation carries between stages.
/// Replaces the old `(const validation_metrics* full, bool validate)`
/// trailing parameters, whose pointer lifetime and positional-bool
/// semantics were easy to misuse.
struct flow_stage_inputs {
  /// Full-crossbar reference metrics, when the caller already holds them:
  /// harvested from the phase-1 run through collect_traces' `full`
  /// out-parameter, or served by a cache (see validate_full_crossbars).
  /// Must come from the same (app, horizon, seed, policy,
  /// transfer_overhead) as `opts` — the explore::trace_cache /
  /// serve::service keys guarantee this; hand callers must too, or the
  /// report's `full` section lies.
  std::optional<validation_metrics> full;
  validation_mode mode = validation_mode::validate;
};

/// Stage "analyze + synthesize" (phases 2-3) alone: window analysis,
/// pre-processing and crossbar synthesis for both directions from an
/// injected phase-1 result, honouring the per-direction window
/// overrides. The report comes back unvalidated (zeroed latency metrics)
/// but otherwise complete, and is exactly what the persistent store
/// caches at the synthesis stage.
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
/// full-crossbar reference). Idempotent: re-running overwrites the same
/// fields.
void validate_design(const workloads::app_spec& app, const flow_options& opts,
                     const std::optional<validation_metrics>& full,
                     flow_report& report);

/// Phases 2-4 with an injected phase-1 result: `synthesize_design`
/// followed by `validate_design` (per stages.mode). `run_design_flow` is
/// exactly `collect_traces` + this, with the phase-1 metrics passed as
/// stages.full; design-space sweeps and the design service call it
/// directly so one cached trace serves many parameter points.
flow_report design_from_traces(const workloads::app_spec& app,
                               const collected_traces& traces,
                               const flow_options& opts,
                               const flow_stage_inputs& stages = {});

/// Phase 5, "Generation" (the step Fig. 3 feeds into): renders `report`
/// into deployable artifacts through the gen backend registry. Backend
/// names are resolved via gen::registry; unknown names throw. Pure — use
/// gen::write_artifacts to put the results on disk.
std::vector<gen::artifact> generate_artifacts(const flow_report& report,
                                              const gen::generate_options& opts);

}  // namespace stx::xbar
