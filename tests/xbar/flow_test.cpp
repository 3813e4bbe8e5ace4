// Integration tests: the full 4-phase design flow on real applications.
#include "xbar/flow.h"

#include <gtest/gtest.h>

#include "workloads/mpsoc_apps.h"
#include "workloads/synthetic.h"

namespace stx::xbar {
namespace {

flow_options fast_options() {
  flow_options opts;
  opts.horizon = 40'000;
  opts.synth.params.window_size = 400;
  return opts;
}

TEST(Flow, Mat2EndToEnd) {
  const auto report = run_design_flow(workloads::make_mat2(), fast_options());
  EXPECT_EQ(report.app_name, "Mat2");
  EXPECT_EQ(report.full_buses, 21);
  EXPECT_LT(report.designed_buses, report.full_buses);
  EXPECT_GT(report.savings(), 1.5);
  // The designed crossbar must stay within a small factor of full.
  EXPECT_GT(report.designed.avg_latency, 0.0);
  EXPECT_LT(report.designed.avg_latency, report.full.avg_latency * 3.0);
  EXPECT_GT(report.designed.packets, 1000);
  EXPECT_GT(report.full.iterations, 0);
}

TEST(Flow, DesignBeatsAverageBaselineOnLatency) {
  const auto app = workloads::make_mat2();
  auto opts = fast_options();
  const auto traces = collect_traces(app, opts);

  const auto avg_design = design_average_traffic(traces.request);
  const auto avg_resp = design_average_traffic(traces.response);
  const auto avg_metrics = validate_configuration(
      app, avg_design.to_config(opts.policy, opts.transfer_overhead),
      avg_resp.to_config(opts.policy, opts.transfer_overhead), opts);

  const auto report = run_design_flow(app, opts);
  // The window-based design must deliver lower average latency than the
  // average-flow design (the paper's Fig. 4 claim, here as an ordering).
  EXPECT_LT(report.designed.avg_latency, avg_metrics.avg_latency);
  // And the average design uses no more buses (it ignores overlap).
  EXPECT_LE(avg_design.num_buses, report.request_design.num_buses);
}

TEST(Flow, ReportIsDeterministic) {
  const auto a = run_design_flow(workloads::make_qsort(), fast_options());
  const auto b = run_design_flow(workloads::make_qsort(), fast_options());
  EXPECT_EQ(a.designed_buses, b.designed_buses);
  EXPECT_EQ(a.request_design.binding, b.request_design.binding);
  EXPECT_DOUBLE_EQ(a.designed.avg_latency, b.designed.avg_latency);
}

TEST(Flow, PerDirectionWindowOverrides) {
  auto opts = fast_options();
  opts.request_window_override = 800;
  opts.response_window_override = 200;
  const auto report = run_design_flow(workloads::make_des(), opts);
  EXPECT_EQ(report.request_design.params.window_size, 800);
  EXPECT_EQ(report.response_design.params.window_size, 200);
}

TEST(Flow, CriticalStreamsGetLowLatency) {
  const auto app = workloads::make_mat2_critical();
  auto opts = fast_options();
  const auto report = run_design_flow(app, opts);
  // Critical packets must see latency close to the full-crossbar level
  // (Sec. 7.3: "almost equal to the latency of ... a full crossbar").
  EXPECT_GT(report.designed.avg_critical, 0.0);
  EXPECT_LT(report.designed.avg_critical,
            report.full.avg_critical * 2.0 + 10.0);
}

TEST(Flow, SyntheticBenchmarkFlows) {
  workloads::synthetic_params p;
  p.num_cores = 12;
  auto opts = fast_options();
  opts.synth.params.window_size = 2'000;
  const auto report =
      run_design_flow(workloads::make_synthetic(p), opts);
  EXPECT_EQ(report.full_buses, 12);
  EXPECT_LE(report.designed_buses, report.full_buses);
  EXPECT_GT(report.designed.transactions, 0);
}

TEST(Flow, ValidationMetricsAreInternallyConsistent) {
  const auto report = run_design_flow(workloads::make_des(), fast_options());
  for (const auto* m : {&report.designed, &report.full}) {
    EXPECT_LE(m->avg_latency, m->max_latency);
    EXPECT_LE(m->p99_latency, m->max_latency);
    EXPECT_GE(m->p99_latency, m->avg_latency * 0.5);
    EXPECT_GT(m->packets, 0);
    EXPECT_GT(m->transactions, 0);
  }
  EXPECT_EQ(report.full.total_buses, 19);
  EXPECT_EQ(report.designed.total_buses, report.designed_buses);
}

// Phase 1 simulates the same full crossbars as the phase-4 reference,
// with trace recording on: the metrics its result carries must equal the
// reference's, and run_design_flow (which uses them) must equal the
// composition that simulated the reference separately.
TEST(Flow, PhaseOneMetricsAreTheFullCrossbarReference) {
  for (const auto& app : workloads::all_mpsoc_apps()) {
    for (const auto policy : {sim::arbitration::fixed_priority,
                              sim::arbitration::round_robin,
                              sim::arbitration::least_recently_granted}) {
      for (const traffic::cycle_t overhead : {0, 2}) {
        flow_options opts;
        opts.horizon = 6'000;
        opts.policy = policy;
        opts.transfer_overhead = overhead;
        const auto where = app.name + " " + sim::to_string(policy) +
                           " overhead " + std::to_string(overhead);

        const auto traces = collect_traces(app, opts);
        const auto reference = validate_full_crossbars(app, opts);
        EXPECT_EQ(traces.full, reference) << where;
        EXPECT_GT(traces.full.packets, 0) << where;

        auto composed = synthesize_design(app, traces, opts);
        validate_design(app, opts, reference, composed);
        EXPECT_EQ(run_design_flow(app, opts), composed) << where;
      }
    }
  }
}

}  // namespace
}  // namespace stx::xbar
