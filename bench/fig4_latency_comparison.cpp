// Reproduces Figures 4(a) and 4(b): packet latencies of crossbars
// designed from AVERAGE traffic flows ("previous approaches": one window
// over the whole run, no overlap constraints) versus the window-based
// methodology, both normalised to the latency of a full crossbar.
//
// Paper reference: the avg-flow designs incur 4x-7x (avg) and up to
// ~9x (max) the full-crossbar latency; the window-based designs stay
// within a small factor of full.
#include <cstdio>

#include "bench_common.h"
#include "util/table.h"
#include "workloads/mpsoc_apps.h"
#include "xbar/baselines.h"
#include "xbar/flow.h"

int main() {
  using namespace stx;
  bench::print_header(
      "Figures 4(a)/4(b) — relative packet latency: avg-flow design vs "
      "window-based design",
      "values normalised to the full crossbar (1.0 = full); paper: avg "
      "4x-7x, win within acceptable bounds");

  table t({"Application", "avg-design rel avg", "win-design rel avg",
           "avg-design rel max", "win-design rel max", "avg buses",
           "win buses"});

  const auto opts = bench::default_flow();
  for (const auto& app : workloads::all_mpsoc_apps()) {
    // Window-based design + full reference (phases 1-4): phase 1 runs
    // once, its metrics are the full reference.
    const auto traces = xbar::collect_traces(app, opts);
    auto report = xbar::synthesize_design(app, traces, opts);
    xbar::validate_design(app, opts, traces.full, report);

    // Average-flow baseline on the same traces.
    const auto avg_req = xbar::design_average_traffic(traces.request);
    const auto avg_resp = xbar::design_average_traffic(traces.response);
    const auto avg_metrics = xbar::validate_configuration(
        app, avg_req.to_config(opts.policy, opts.transfer_overhead),
        avg_resp.to_config(opts.policy, opts.transfer_overhead), opts);

    t.cell(app.name)
        .cell(avg_metrics.avg_latency / report.full.avg_latency, 2)
        .cell(report.designed.avg_latency / report.full.avg_latency, 2)
        .cell(avg_metrics.max_latency / report.full.max_latency, 2)
        .cell(report.designed.max_latency / report.full.max_latency, 2)
        .cell(avg_req.num_buses + avg_resp.num_buses)
        .cell(report.designed_buses)
        .end_row();
  }
  std::printf("%s", t.render().c_str());
  std::printf(
      "\nshape check: the avg-flow column should sit several times above "
      "the window column on every row.\n");
  return 0;
}
