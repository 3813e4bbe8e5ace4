// Walks the complete 4-phase design flow (paper Fig. 3) on the Mat2
// MPSoC step by step, printing what each phase produces — the
// "open the hood" companion to quickstart.cpp.
//
//   $ ./mat2_design_flow [--horizon=120000] [--window=400]
#include <algorithm>
#include <cstdio>

#include "traffic/burst.h"
#include "util/flags.h"
#include "util/table.h"
#include "workloads/mpsoc_apps.h"
#include "xbar/flow.h"

int main(int argc, char** argv) {
  using namespace stx;
  const flag_set flags(argc, argv);

  const auto app = workloads::make_mat2();
  xbar::flow_options opts;
  opts.horizon = flags.get_int("horizon", 120'000);
  opts.synth.params.window_size = flags.get_int("window", 400);

  // ---- Phase 1: cycle-accurate simulation with full crossbars,
  // collecting the functional traffic traces.
  std::printf("phase 1: full-crossbar simulation (%lld cycles)\n",
              static_cast<long long>(opts.horizon));
  const auto traces = xbar::collect_traces(app, opts);
  std::printf("  request trace: %zu events over %d targets\n",
              traces.request.events().size(), traces.request.num_targets());
  std::printf("  response trace: %zu events over %d initiators\n",
              traces.response.events().size(),
              traces.response.num_targets());
  std::printf("  typical burst length (request side): %.0f cycles\n\n",
              traffic::typical_burst_length(traces.request, 50));

  // ---- Phase 2: window analysis + pre-processing.
  const auto input =
      xbar::input_from_trace(traces.request, opts.synth.params);
  std::printf("phase 2: %s\n", input.to_string().c_str());

  table demand({"Target", "total busy (cy)", "peak window (cy)",
                "peak/WS"});
  for (int t = 0; t < input.num_targets(); ++t) {
    traffic::cycle_t total = 0;
    traffic::cycle_t peak = 0;
    for (int m = 0; m < input.num_windows(); ++m) {
      total += input.comm(t, m);
      peak = std::max(peak, input.comm(t, m));
    }
    demand.cell(app.target_names[static_cast<std::size_t>(t)])
        .cell(static_cast<std::int64_t>(total))
        .cell(static_cast<std::int64_t>(peak))
        .cell(static_cast<double>(peak) /
                  static_cast<double>(input.window_size()),
              2)
        .end_row();
  }
  std::printf("%s\n", demand.render().c_str());

  // ---- Phase 3: binary search for the minimum configuration, then the
  // overlap-minimising binding.
  const auto design = xbar::synthesize(input, opts.synth);
  std::printf("phase 3: %s\n", design.to_string().c_str());
  std::printf("  feasibility probes: %d, binding search nodes: %lld\n\n",
              design.probes, static_cast<long long>(design.binding_nodes));

  table binding({"Bus", "Targets"});
  for (int k = 0; k < design.num_buses; ++k) {
    std::string members;
    for (int t = 0; t < design.num_targets; ++t) {
      if (design.binding[static_cast<std::size_t>(t)] != k) continue;
      if (!members.empty()) members += ", ";
      members += app.target_names[static_cast<std::size_t>(t)];
    }
    binding.cell(k).cell(members).end_row();
  }
  std::printf("%s\n", binding.render().c_str());

  // ---- Phase 4: validation (the full flow also designs the response
  // side the same way).
  const auto report = xbar::run_design_flow(app, opts);
  std::printf("phase 4: validation\n");
  std::printf("  full crossbars    : avg %.2f cy, max %.0f cy (%d buses)\n",
              report.full.avg_latency, report.full.max_latency,
              report.full_buses);
  std::printf("  designed crossbars: avg %.2f cy, max %.0f cy (%d buses)\n",
              report.designed.avg_latency, report.designed.max_latency,
              report.designed_buses);
  std::printf("  component savings : %.2fx\n", report.savings());
  return 0;
}
