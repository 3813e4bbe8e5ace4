// Unit tests for the synthesis driver (binary search + binding).
#include "xbar/synthesis.h"

#include <gtest/gtest.h>

#include "util/error.h"
#include "workloads/mpsoc_apps.h"
#include "xbar/flow.h"

namespace stx::xbar {
namespace {

design_params basic_params(cycle_t ws = 100, int maxtb = 0) {
  design_params p;
  p.window_size = ws;
  p.max_targets_per_bus = maxtb;
  return p;
}

synthesis_input make_input(std::vector<std::vector<cycle_t>> comm,
                           const design_params& p) {
  const auto n = comm.size();
  std::vector<std::vector<cycle_t>> om(n, std::vector<cycle_t>(n, 0));
  std::vector<std::vector<bool>> conf(n, std::vector<bool>(n, false));
  return synthesis_input(std::move(comm), std::move(om), std::move(conf),
                         p.window_size, p);
}

TEST(Synthesis, FindsMinimalBusCount) {
  // Demands 60,60,60,30 in a 100-cycle window: 2 buses impossible
  // (60+60>100 for at least one pair... actually 60+30 fits, so {60},{60},
  // {60,30} -> 3 buses needed since three 60s can't pair up).
  const auto in = make_input({{60}, {60}, {60}, {30}}, basic_params());
  synthesis_options opts;
  opts.params = in.params();
  EXPECT_EQ(min_feasible_buses(in, opts), 3);
}

TEST(Synthesis, SynthesizeReturnsFeasibleOptimalDesign) {
  const auto in = make_input({{40}, {40}, {40}, {40}}, basic_params());
  synthesis_options opts;
  opts.params = in.params();
  const auto design = synthesize(in, opts);
  EXPECT_EQ(design.num_buses, 2);  // 40*3 > 100, 40*2 fits
  EXPECT_TRUE(in.binding_feasible(design.binding, design.num_buses));
  EXPECT_TRUE(design.binding_optimal);
  EXPECT_EQ(design.num_targets, 4);
  EXPECT_DOUBLE_EQ(design.savings_vs_full(), 2.0);
}

TEST(Synthesis, GenericMilpEngineAgrees) {
  const auto in = make_input({{60}, {60}, {30}, {30}}, basic_params());
  synthesis_options bb_opts;
  bb_opts.params = in.params();
  synthesis_options milp_opts = bb_opts;
  milp_opts.solver = solver_kind::generic_milp;
  const auto a = synthesize(in, bb_opts);
  const auto b = synthesize(in, milp_opts);
  EXPECT_EQ(a.num_buses, b.num_buses);
  EXPECT_EQ(a.max_overlap, b.max_overlap);
}

TEST(Synthesis, OptimizeBindingOffSkipsEqElevenPhase)
{
  const auto in = make_input({{40}, {40}, {40}}, basic_params());
  synthesis_options opts;
  opts.params = in.params();
  opts.optimize_binding = false;
  const auto design = synthesize(in, opts);
  EXPECT_FALSE(design.binding_optimal);
  EXPECT_TRUE(in.binding_feasible(design.binding, design.num_buses));
}

TEST(Synthesis, ToConfigProducesValidSimulatorConfig) {
  const auto in = make_input({{40}, {40}, {40}, {40}}, basic_params());
  synthesis_options opts;
  opts.params = in.params();
  const auto design = synthesize(in, opts);
  const auto cfg = design.to_config(sim::arbitration::fixed_priority, 3);
  EXPECT_EQ(cfg.num_buses, design.num_buses);
  EXPECT_EQ(cfg.binding, design.binding);
  EXPECT_EQ(cfg.policy, sim::arbitration::fixed_priority);
  EXPECT_EQ(cfg.transfer_overhead, 3);
}

TEST(Synthesis, FromTraceRunsWindowAnalysis) {
  traffic::trace t(3, 1, 200);
  t.add({0, 0, 0, 60, false});
  t.add({1, 0, 10, 70, false});
  t.add({2, 0, 120, 150, false});
  synthesis_options opts;
  opts.params.window_size = 100;
  opts.params.max_targets_per_bus = 0;
  const auto design = synthesize_from_trace(t, opts);
  EXPECT_EQ(design.num_targets, 3);
  // 60 + 60 > 100 in window 0: targets 0,1 cannot share.
  EXPECT_NE(design.binding[0], design.binding[1]);
}

TEST(Synthesis, ProbeCountIsLogarithmic) {
  // 16 identical light targets: feasible bus counts form a long monotone
  // range; binary search should probe far fewer than 16 times.
  std::vector<std::vector<cycle_t>> comm(16, {5});
  const auto in = make_input(std::move(comm), basic_params(100, 0));
  synthesis_options opts;
  opts.params = in.params();
  int probes = 0;
  min_feasible_buses(in, opts, &probes);
  EXPECT_LE(probes, 5);  // ceil(log2(16)) + slack
}

TEST(Synthesis, DesignOnRealAppTraceIsValidatable) {
  // End-to-end spot check on a real app trace: the synthesised design
  // must be feasible and strictly smaller than full for Mat2.
  const auto app = workloads::make_mat2();
  flow_options fopts;
  fopts.horizon = 30'000;
  const auto traces = collect_traces(app, fopts);
  synthesis_options opts;
  opts.params.window_size = 400;
  const auto design = synthesize_from_trace(traces.request, opts);
  EXPECT_LT(design.num_buses, app.num_targets);
  EXPECT_GE(design.num_buses, 2);
  const auto in = input_from_trace(traces.request, opts.params);
  EXPECT_TRUE(in.binding_feasible(design.binding, design.num_buses));
}

}  // namespace
}  // namespace stx::xbar
