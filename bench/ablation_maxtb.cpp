// Ablation (ours): the maxtb knob (Eq. 8 — maximum targets per bus).
// Sweeps maxtb on the synthetic benchmark and reports designed size and
// validated latency: the size/worst-case-latency trade-off the paper
// motivates when introducing the constraint.
#include <cstdio>

#include "bench_common.h"
#include "util/table.h"
#include "workloads/synthetic.h"
#include "xbar/flow.h"

int main() {
  using namespace stx;
  bench::print_header(
      "Ablation — maxtb (max targets per bus) sweep, synthetic 20-core",
      "window = 2000 cycles, threshold 30%");

  workloads::synthetic_params params;
  const auto app = workloads::make_synthetic(params);
  xbar::flow_options fopts;
  fopts.horizon = 150'000;
  // Phase 1's full-crossbar run is also the latency reference.
  const auto traces = xbar::collect_traces(app, fopts);

  table t({"maxtb", "req buses", "resp buses", "avg lat", "max lat",
           "max/full-max"});
  for (const int maxtb : {0, 2, 3, 4, 6, 8}) {
    xbar::synthesis_options so;
    so.params.window_size = 2'000;
    so.params.max_targets_per_bus = maxtb;
    const auto req = xbar::synthesize_from_trace(traces.request, so);
    const auto resp = xbar::synthesize_from_trace(traces.response, so);
    const auto m = xbar::validate_configuration(
        app, req.to_config(fopts.policy, fopts.transfer_overhead),
        resp.to_config(fopts.policy, fopts.transfer_overhead), fopts);
    t.cell(maxtb == 0 ? std::string("off") : std::to_string(maxtb))
        .cell(req.num_buses)
        .cell(resp.num_buses)
        .cell(m.avg_latency, 2)
        .cell(m.max_latency, 0)
        .cell(m.max_latency / traces.full.max_latency, 2)
        .end_row();
  }
  std::printf("%s", t.render().c_str());
  std::printf(
      "\nexpectation: tighter maxtb buys a lower worst-case latency at "
      "the cost of more buses.\n");
  return 0;
}
