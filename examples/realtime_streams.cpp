// Real-time (critical) stream isolation, Sec. 7.3 of the paper.
//
// Runs the design flow on the Mat2 variant whose cores 0 and 1 carry
// real-time streams to their private memories, and shows how the
// criticality-aware pre-processing isolates the overlapping critical
// streams on separate buses — versus what happens when criticality
// handling is switched off.
//
//   $ ./realtime_streams [--horizon=120000]
#include <cstdio>

#include "util/flags.h"
#include "util/table.h"
#include "workloads/mpsoc_apps.h"
#include "xbar/flow.h"

int main(int argc, char** argv) {
  using namespace stx;
  const flag_set flags(argc, argv);

  const auto app = workloads::make_mat2_critical();
  xbar::flow_options opts;
  opts.horizon = flags.get_int("horizon", 120'000);
  opts.synth.params.window_size = 400;

  // With criticality handling (the default).
  const auto aware = xbar::run_design_flow(app, opts);

  // Without: critical streams are treated like any other traffic.
  auto blind_opts = opts;
  blind_opts.synth.params.separate_critical = false;
  const auto blind = xbar::run_design_flow(app, blind_opts);

  std::printf("critical streams: cores 0 and 1 -> PrivateMemory0/1\n");
  std::printf("aware design : %s\n",
              aware.request_design.to_string().c_str());
  std::printf("blind design : %s\n\n",
              blind.request_design.to_string().c_str());

  const bool separated =
      aware.request_design.binding[0] != aware.request_design.binding[1];
  std::printf("critical targets on separate buses (aware): %s\n",
              separated ? "yes" : "no (their streams never overlap)");

  // The important distinction: the aware design *guarantees* separation
  // through a conflict constraint (Eq. 7); the blind design can only
  // separate them by luck of the overlap-minimising objective.
  const auto traces = xbar::collect_traces(app, opts);
  const auto aware_in =
      xbar::input_from_trace(traces.request, opts.synth.params);
  const auto blind_in =
      xbar::input_from_trace(traces.request, blind_opts.synth.params);
  std::printf("conflict(PrivateMemory0, PrivateMemory1): aware=%s blind=%s\n\n",
              aware_in.conflict(0, 1) ? "enforced" : "absent",
              blind_in.conflict(0, 1) ? "enforced" : "absent");

  table t({"Design", "crit avg lat", "crit max lat", "all avg lat",
           "buses"});
  t.cell("full crossbar")
      .cell(aware.full.avg_critical, 2)
      .cell(aware.full.max_critical, 0)
      .cell(aware.full.avg_latency, 2)
      .cell(aware.full_buses)
      .end_row();
  t.cell("criticality-aware")
      .cell(aware.designed.avg_critical, 2)
      .cell(aware.designed.max_critical, 0)
      .cell(aware.designed.avg_latency, 2)
      .cell(aware.designed_buses)
      .end_row();
  t.cell("criticality-blind")
      .cell(blind.designed.avg_critical, 2)
      .cell(blind.designed.max_critical, 0)
      .cell(blind.designed.avg_latency, 2)
      .cell(blind.designed_buses)
      .end_row();
  std::printf("%s", t.render().c_str());
  std::printf(
      "\nThe aware design keeps critical latency near the full-crossbar "
      "level\n(paper: \"almost equal to the latency of perfect "
      "communication\").\n");
  return 0;
}
