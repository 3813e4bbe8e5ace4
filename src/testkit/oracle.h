// Flow-invariant oracle: what must hold for EVERY design the flow
// produces, no matter the application.
//
// The unit suites check the code we wrote against expectations we also
// wrote; the oracle instead states properties of the methodology itself
// (coverage, minimality, bounded degradation, solver agreement,
// model-level feasibility) and re-derives them from the flow's own
// inputs, so a fuzzer can search for applications that break them.
#pragma once

#include <string>
#include <vector>

#include "workloads/app.h"
#include "xbar/flow.h"

namespace stx::testkit {

/// One violated invariant. `invariant` is a stable machine-readable tag
/// (the check names below); `detail` says what was observed.
struct violation {
  std::string invariant;
  std::string detail;
};

/// "invariant: detail" per line; empty string when `v` is empty.
std::string to_string(const std::vector<violation>& v);

/// Oracle tolerances. The latency bound is deliberately loose — the
/// paper's conservative designs stay within ~1.2x of the full crossbar,
/// but the fuzzer explores aggressive windows/thresholds where a real
/// degradation is legitimate; the bound catches pathologies (starvation,
/// deadlock, mis-binding), not tuning quality.
struct oracle_options {
  /// designed.avg_latency <= full.avg_latency * factor + slack.
  double latency_factor = 8.0;
  double latency_slack_cycles = 50.0;
  /// Re-solve both directions with the paper-faithful generic MILP and
  /// require the same bus count (and objective when both are proven
  /// optimal). Quadratically more expensive than the rest of the oracle,
  /// so instances above the size cap skip it, and the MILP search is
  /// node-capped: a cross-check that exhausts `solver_max_nodes` is
  /// INCONCLUSIVE and skipped (a limitation of the CPLEX stand-in, not a
  /// methodology violation). The node cap, unlike a wall-clock budget,
  /// keeps fuzz verdicts machine-independent.
  /// Re-simulate the full-crossbar reference with trace recording off
  /// and require the report's `full` section, which the flow harvests
  /// from the trace-recording phase-1 run. Costs one extra simulation per
  /// validated report.
  bool full_reference = true;
  bool solver_agreement = true;
  int solver_agreement_max_targets = 10;
  /// Skip the cross-check when windows * targets exceeds this: LP size,
  /// not target count, is what makes the generic solver slow, and the
  /// differential signal is just as strong on the small models.
  int solver_agreement_max_cells = 400;
  std::int64_t solver_max_nodes = 2'000;
};

// Individual checks, exposed so the test suite can exercise each
// invariant in isolation. Each appends its violations to `out`.

/// "shape": report dimensions agree with the app (initiator/target
/// counts, traffic-matrix dimensions, binding vector sizes).
void check_shape(const workloads::app_spec& app,
                 const xbar::flow_report& report, std::vector<violation>* out);

/// "coverage": every link with nonzero phase-1 traffic is routed — the
/// receiving endpoint's binding names a real bus — and no bus is dead
/// (a bus with no endpoint bound contradicts bus-count minimality).
void check_coverage(const xbar::flow_report& report,
                    std::vector<violation>* out);

/// "bus-bound": per-direction bus counts stay within [1, #endpoints],
/// the designed total never exceeds the full crossbar, and the report's
/// cost fields are mutually consistent.
void check_bus_bounds(const workloads::app_spec& app,
                      const xbar::flow_report& report,
                      std::vector<violation>* out);

/// "latency": the designed configuration still makes progress (nonzero
/// packets/iterations whenever the full reference has them) and its
/// average latency stays within the degradation bound vs. full.
void check_latency(const xbar::flow_report& report,
                   const oracle_options& opts, std::vector<violation>* out);

/// "metrics": validation metrics are internally consistent (avg <= max,
/// p99 <= max, critical <= max critical, bus totals match the designs).
void check_metrics(const xbar::flow_report& report,
                   std::vector<violation>* out);

/// "feasibility": each direction's binding, re-checked against the
/// synthesis model rebuilt from the phase-1 trace (Eq. 3-9), is feasible,
/// and the recorded Eq. 11 objective/conflict count match the rebuilt
/// model exactly.
void check_feasibility(const xbar::collected_traces& traces,
                       const xbar::flow_options& opts,
                       const xbar::flow_report& report,
                       std::vector<violation>* out);

/// "solver-agreement": the specialised branch & bound and the generic
/// MILP path agree on the minimum bus count for both directions (and on
/// the Eq. 11 objective when both proofs completed).
void check_solver_agreement(const xbar::collected_traces& traces,
                            const xbar::flow_options& opts,
                            const xbar::flow_report& report,
                            const oracle_options& oopts,
                            std::vector<violation>* out);

/// "full-reference": re-simulating the full crossbars with trace
/// recording off (validate_full_crossbars) reproduces the report's `full`
/// metrics exactly, every double included — the flow harvests them from
/// the trace-recording phase-1 run, so recording must not perturb the
/// simulation. Skipped when the report was never validated.
void check_full_reference(const workloads::app_spec& app,
                          const xbar::flow_options& opts,
                          const xbar::flow_report& report,
                          const oracle_options& oopts,
                          std::vector<violation>* out);

// (The "kernel-equivalence" invariant — bit-identity of the event-driven
// and legacy polling kernels — soaked one release and retired with the
// polling kernel itself, and the batch-vs-session half of the former
// "observer-equivalence" invariant retired when the session became a
// batch of one; see CHANGES.md.)

/// Runs every check above on one completed flow. `traces` must be the
/// phase-1 traces the report was designed from and `opts` the flow
/// options used (synthesize_design's inputs).
std::vector<violation> check_flow_invariants(
    const workloads::app_spec& app, const xbar::collected_traces& traces,
    const xbar::flow_options& opts, const xbar::flow_report& report,
    const oracle_options& oopts = {});

}  // namespace stx::testkit
