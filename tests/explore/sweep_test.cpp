// The sweep engine: point evaluation equals the serial flow, phase 1 is
// shared, and reports are bit-identical across thread counts.
#include "explore/sweep.h"

#include <gtest/gtest.h>

#include "util/error.h"
#include "workloads/synthetic.h"
#include "xbar/flow.h"

namespace stx::explore {
namespace {

workloads::app_spec small_app(int cores = 8) {
  workloads::synthetic_params params;
  params.num_cores = cores;
  return workloads::make_synthetic(params);
}

sweep_spec small_spec() {
  sweep_spec spec;
  spec.apps = {small_app()};
  spec.horizon = 8'000;
  spec.grid.window_sizes = {200, 400, 1000, 2000};
  spec.grid.overlap_thresholds = {0.30};
  return spec;
}

TEST(Sweep, SharesOnePhase1SimulationAcrossAllPoints) {
  trace_cache cache;
  const auto report = run_sweep(small_spec(), cache);
  ASSERT_EQ(report.results.size(), 4u);
  EXPECT_EQ(report.phase1_simulations, 1);
  // The phase-1 run seeded the full-crossbar reference: no second run.
  EXPECT_EQ(report.full_simulations, 0);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.trace_misses, 1);
  EXPECT_EQ(stats.trace_hits, 3);
  EXPECT_EQ(stats.full_hits, 4);
}

TEST(Sweep, PointReportsEqualTheSerialDesignFlow) {
  const auto spec = small_spec();
  const auto report = run_sweep(spec);
  const auto points = sweep_points(spec);
  ASSERT_EQ(report.results.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto serial =
        xbar::run_design_flow(spec.apps[0], options_for(spec, points[i]));
    EXPECT_EQ(report.results[i].report, serial)
        << "point " << points[i].to_string();
  }
}

TEST(Sweep, ValidationCohortBoundariesDoNotChangeResults) {
  // 36 points per app: each app validates as one full 32-point cohort
  // plus a 4-point one. Every point must equal its serial design flow,
  // on one thread and on eight.
  auto spec = small_spec();
  spec.apps = {small_app(6), small_app(8)};
  spec.apps[0].name += "-6";
  spec.apps[1].name += "-8";
  spec.grid.window_sizes = {200, 300, 400, 500, 600, 800, 1000, 1500, 2000};
  spec.grid.overlap_thresholds = {0.1, 0.3, 0.5, 0.7};
  const auto points = sweep_points(spec);
  ASSERT_GT(points.size(), 32u);
  std::vector<xbar::flow_report> serial;
  for (const auto& app : spec.apps) {
    for (const auto& point : points) {
      serial.push_back(
          xbar::run_design_flow(app, options_for(spec, point)));
    }
  }
  for (const int threads : {1, 8}) {
    spec.threads = threads;
    const auto report = run_sweep(spec);
    ASSERT_EQ(report.results.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(report.results[i].report, serial[i])
          << "threads " << threads << " app "
          << report.results[i].app_name << " point "
          << points[i % points.size()].to_string();
    }
  }
}

TEST(Sweep, ReportIsBitIdenticalAcrossThreadCounts) {
  auto spec = small_spec();
  spec.apps = {small_app(6), small_app(10)};
  spec.apps[0].name += "-6";
  spec.apps[1].name += "-10";
  spec.threads = 1;
  const auto serial = run_sweep(spec);
  spec.threads = 2;
  const auto parallel2 = run_sweep(spec);
  spec.threads = 8;
  const auto parallel8 = run_sweep(spec);
  EXPECT_EQ(serial, parallel2);
  EXPECT_EQ(serial, parallel8);
  EXPECT_EQ(render_json(serial), render_json(parallel2));
  EXPECT_EQ(render_json(serial), render_json(parallel8));
  EXPECT_EQ(render_csv(serial), render_csv(parallel8));
}

TEST(Sweep, ResultsAreAppMajorInGridOrder) {
  auto spec = small_spec();
  spec.apps = {small_app(6), small_app(10)};
  spec.apps[0].name = "app-a";
  spec.apps[1].name = "app-b";
  spec.threads = 4;
  const auto report = run_sweep(spec);
  const auto points = sweep_points(spec);
  ASSERT_EQ(report.results.size(), 2 * points.size());
  for (std::size_t i = 0; i < report.results.size(); ++i) {
    EXPECT_EQ(report.results[i].app_name,
              i < points.size() ? "app-a" : "app-b");
    EXPECT_EQ(report.results[i].point, points[i % points.size()]);
  }
}

TEST(Sweep, ValidationOffSkipsPhase4ButKeepsDesigns) {
  auto spec = small_spec();
  spec.validate = false;
  const auto report = run_sweep(spec);
  EXPECT_EQ(report.full_simulations, 0);
  EXPECT_EQ(report.phase1_simulations, 1);
  EXPECT_TRUE(report.pareto.empty());
  for (const auto& r : report.results) {
    EXPECT_FALSE(r.validated);
    EXPECT_GT(r.total_buses(), 0);
    EXPECT_EQ(r.avg_latency(), 0.0);
    // Synthesis-only reports stay complete for the gen:: backends:
    // padded endpoint names and the phase-1 traffic matrices.
    EXPECT_EQ(r.report.target_names.size(),
              static_cast<std::size_t>(r.report.num_targets));
    EXPECT_FALSE(r.report.request_traffic.empty());
    EXPECT_FALSE(r.report.response_traffic.empty());
  }
  // The synthesised designs match the validated sweep's designs.
  auto validated = small_spec();
  const auto vreport = run_sweep(validated);
  for (std::size_t i = 0; i < report.results.size(); ++i) {
    EXPECT_EQ(report.results[i].report.request_design,
              vreport.results[i].report.request_design);
  }
}

TEST(Sweep, ExtraPointsAppendAndDeduplicate) {
  auto spec = small_spec();
  sweep_point dup;  // equals the grid's win=400 point
  dup.window_size = 400;
  dup.overlap_threshold = 0.30;
  sweep_point fresh;
  fresh.window_size = 123;
  spec.extra_points = {dup, fresh, fresh};
  const auto points = sweep_points(spec);
  ASSERT_EQ(points.size(), 5u);  // 4 grid + 1 genuinely new
  EXPECT_EQ(points.back().window_size, 123);
}

TEST(Sweep, ParetoFrontMarksTheBusLatencyTradeoff) {
  const auto report = run_sweep(small_spec());
  ASSERT_FALSE(report.pareto.empty());
  // Every index valid; front members are mutually non-dominating.
  for (const auto i : report.pareto) {
    ASSERT_LT(i, report.results.size());
  }
  for (const auto i : report.pareto) {
    for (const auto j : report.pareto) {
      if (i == j) continue;
      const bool dominates =
          report.results[j].total_buses() <= report.results[i].total_buses() &&
          report.results[j].avg_latency() <= report.results[i].avg_latency() &&
          (report.results[j].total_buses() <
               report.results[i].total_buses() ||
           report.results[j].avg_latency() <
               report.results[i].avg_latency());
      EXPECT_FALSE(dominates);
    }
  }
}

TEST(Sweep, SynthBaseCarriesTheUnsweptKnobs) {
  // Disabling conflict pre-processing through the base must reach every
  // point (the overlap threshold then has nothing to forbid, so designs
  // can only shrink or stay).
  auto strict_spec = small_spec();
  auto loose_spec = small_spec();
  loose_spec.synth_base.params.use_overlap_conflicts = false;
  loose_spec.validate = false;
  strict_spec.validate = false;
  const auto strict_report = run_sweep(strict_spec);
  const auto loose_report = run_sweep(loose_spec);
  for (std::size_t i = 0; i < strict_report.results.size(); ++i) {
    EXPECT_LE(loose_report.results[i].total_buses(),
              strict_report.results[i].total_buses());
    EXPECT_EQ(
        loose_report.results[i].report.request_design.params
            .use_overlap_conflicts,
        false);
  }
}

TEST(Sweep, RejectsDegenerateSpecs) {
  sweep_spec empty_apps = small_spec();
  empty_apps.apps.clear();
  EXPECT_THROW(run_sweep(empty_apps), invalid_argument_error);

  sweep_spec dup_names = small_spec();
  dup_names.apps = {small_app(6), small_app(8)};  // same name "synthetic…"
  dup_names.apps[1].name = dup_names.apps[0].name;
  EXPECT_THROW(run_sweep(dup_names), invalid_argument_error);
}

}  // namespace
}  // namespace stx::explore
