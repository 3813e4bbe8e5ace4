// Quickstart: design an application-specific STbus crossbar in ~40 lines.
//
//   $ ./quickstart [--horizon=120000] [--window=400] [--threshold=0.30]
//                  [--maxtb=4]
//
// Runs the paper's 4-phase flow (Fig. 3) on the Mat2 benchmark: simulate
// with full crossbars, analyse the traffic in windows, synthesise the
// minimal crossbars, validate by simulation, and print the outcome.
#include <cstdio>

#include "util/flags.h"
#include "workloads/mpsoc_apps.h"
#include "xbar/flow.h"

int main(int argc, char** argv) {
  const stx::flag_set flags(argc, argv);

  // The application: 9 ARM cores, 9 private memories, shared memory,
  // semaphore and interrupt device (21 cores, Fig. 2a).
  const auto app = stx::workloads::make_mat2();

  stx::xbar::flow_options opts;
  opts.horizon = flags.get_int("horizon", 120'000);
  opts.synth.params.window_size = flags.get_int("window", 400);
  opts.synth.params.overlap_threshold = flags.get_double("threshold", 0.30);
  opts.synth.params.max_targets_per_bus =
      static_cast<int>(flags.get_int("maxtb", 4));

  const auto report = stx::xbar::run_design_flow(app, opts);

  std::printf("application        : %s (%d initiators, %d targets)\n",
              report.app_name.c_str(), app.num_initiators, app.num_targets);
  std::printf("request  crossbar  : %s\n",
              report.request_design.to_string().c_str());
  std::printf("response crossbar  : %s\n",
              report.response_design.to_string().c_str());
  std::printf("buses, full vs ours: %d vs %d  (%.2fx savings)\n",
              report.full_buses, report.designed_buses, report.savings());
  std::printf("avg latency  full  : %6.2f cycles\n",
              report.full.avg_latency);
  std::printf("avg latency  ours  : %6.2f cycles (%.2fx of full)\n",
              report.designed.avg_latency,
              report.designed.avg_latency / report.full.avg_latency);
  std::printf("max latency  full  : %6.0f cycles\n",
              report.full.max_latency);
  std::printf("max latency  ours  : %6.0f cycles (%.2fx of full)\n",
              report.designed.max_latency,
              report.designed.max_latency / report.full.max_latency);
  return 0;
}
