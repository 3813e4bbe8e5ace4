// Reproduces Section 7.3: the effect of the optimal (overlap-minimising)
// binding versus a random feasible binding, and the latency of critical
// (real-time) streams under the criticality-aware design.
//
// Paper reference: random bindings average ~2.1x the average latency of
// the optimal binding; overlapping critical streams placed on separate
// buses see latencies "almost equal to ... a full crossbar".
#include <cstdio>

#include "bench_common.h"
#include "util/table.h"
#include "workloads/mpsoc_apps.h"
#include "workloads/synthetic.h"
#include "xbar/baselines.h"
#include "xbar/flow.h"

int main() {
  using namespace stx;
  bench::print_header(
      "Section 7.3 — optimal vs random binding, and critical streams",
      "random = mean over 5 random feasible bindings (paper: ~2.1x)");

  const auto opts = bench::default_flow();

  table t({"Application", "optimal avg lat", "random avg lat",
           "random/optimal"});
  double ratio_sum = 0.0;
  int ratio_count = 0;
  auto apps = workloads::all_mpsoc_apps();
  apps.push_back(workloads::make_synthetic());  // strong overlap gradient
  for (const auto& app : apps) {
    const auto traces = xbar::collect_traces(app, opts);
    const auto req_in =
        xbar::input_from_trace(traces.request, opts.synth.params);
    const auto resp_in =
        xbar::input_from_trace(traces.response, opts.synth.params);
    const auto req_design = xbar::synthesize(req_in, opts.synth);
    const auto resp_design = xbar::synthesize(resp_in, opts.synth);

    const auto optimal = xbar::validate_configuration(
        app, req_design.to_config(opts.policy, opts.transfer_overhead),
        resp_design.to_config(opts.policy, opts.transfer_overhead), opts);

    double random_sum = 0.0;
    const int kSeeds = 5;
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      const auto rnd_req = xbar::rebind_randomly(req_in, req_design, seed);
      const auto rnd_resp =
          xbar::rebind_randomly(resp_in, resp_design, seed + 100);
      const auto metrics = xbar::validate_configuration(
          app, rnd_req.to_config(opts.policy, opts.transfer_overhead),
          rnd_resp.to_config(opts.policy, opts.transfer_overhead), opts);
      random_sum += metrics.avg_latency;
    }
    const double random_avg = random_sum / kSeeds;
    const double ratio = random_avg / optimal.avg_latency;
    ratio_sum += ratio;
    ++ratio_count;
    t.cell(app.name)
        .cell(optimal.avg_latency, 2)
        .cell(random_avg, 2)
        .cell(ratio, 2)
        .end_row();
  }
  std::printf("%s", t.render().c_str());
  std::printf(
      "mean random/optimal ratio: %.2fx (paper: ~2.1x)\n"
      "note: the ordering (random >= optimal) reproduces; the magnitude is\n"
      "smaller than the paper's because our cores are strictly closed-loop\n"
      "(one outstanding transaction) and maxtb bounds per-bus queueing —\n"
      "see EXPERIMENTS.md.\n\n",
      ratio_sum / ratio_count);

  // ---- Critical streams (Mat2 with two real-time private streams).
  const auto app = workloads::make_mat2_critical();
  const auto report = xbar::run_design_flow(app, opts);
  table c({"Metric", "Full crossbar", "Designed crossbar"});
  c.cell("critical avg latency")
      .cell(report.full.avg_critical, 2)
      .cell(report.designed.avg_critical, 2)
      .end_row();
  c.cell("critical max latency")
      .cell(report.full.max_critical, 0)
      .cell(report.designed.max_critical, 0)
      .end_row();
  c.cell("all-packet avg latency")
      .cell(report.full.avg_latency, 2)
      .cell(report.designed.avg_latency, 2)
      .end_row();
  std::printf("%s", c.render().c_str());
  std::printf(
      "\nshape check: critical latency under the designed crossbar should "
      "sit close to the full-crossbar level (paper: \"almost equal\").\n");
  return 0;
}
