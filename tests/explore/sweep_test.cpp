// The sweep engine: point evaluation equals the serial flow, phase 1 is
// shared, each distinct analysis, synthesis and validation runs once, and
// reports and work counters are bit-identical across thread counts.
#include "explore/sweep.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.h"
#include "util/error.h"
#include "workloads/mpsoc_apps.h"
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
  const auto stats = cache.stats();
  EXPECT_EQ(stats.trace_misses, 1);
  EXPECT_EQ(stats.trace_hits, 3);
  // The phase-1 run is every point's full-crossbar reference.
  for (const auto& r : report.results) {
    EXPECT_EQ(r.report.full, report.results[0].report.full);
  }
  EXPECT_GT(report.results[0].report.full.packets, 0);
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

/// The distinct (request config, response config) pairs among `app`'s
/// designs in a report: what phase 4 simulates once each.
std::size_t distinct_designs(const sweep_spec& spec,
                             const sweep_report& report,
                             const std::string& app) {
  std::vector<std::pair<sim::crossbar_config, sim::crossbar_config>> seen;
  for (const auto& r : report.results) {
    if (r.app_name != app) continue;
    const auto opts = options_for(spec, r.point);
    std::pair<sim::crossbar_config, sim::crossbar_config> key{
        r.report.request_design.to_config(opts.policy,
                                          opts.transfer_overhead),
        r.report.response_design.to_config(opts.policy,
                                           opts.transfer_overhead)};
    if (std::find(seen.begin(), seen.end(), key) == seen.end()) {
      seen.push_back(std::move(key));
    }
  }
  return seen.size();
}

TEST(Sweep, ValidationCohortBoundariesDoNotChangeResults) {
  // 72 points per app land on 36 and 46 distinct designs, so each app
  // validates as one full 32-instance cohort plus a partial one. Every
  // point must equal its serial design flow, on one thread and on eight.
  auto spec = small_spec();
  spec.apps = {small_app(16), small_app(20)};
  spec.apps[0].name += "-16";
  spec.apps[1].name += "-20";
  spec.grid.window_sizes = {200, 300, 400, 500, 600, 800, 1000, 1500, 2000};
  spec.grid.overlap_thresholds = {0.1, 0.3, 0.5, 0.7};
  spec.grid.policies = {sim::arbitration::fixed_priority,
                        sim::arbitration::round_robin};
  const auto points = sweep_points(spec);
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
    for (const auto& app : spec.apps) {
      const auto designs = distinct_designs(spec, report, app.name);
      EXPECT_GT(designs, 32u) << app.name;
      EXPECT_LT(designs, 64u) << app.name;
    }
    ASSERT_EQ(report.results.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(report.results[i].report, serial[i])
          << "threads " << threads << " app "
          << report.results[i].app_name << " point "
          << points[i % points.size()].to_string();
    }
  }
}

/// A grid built so that points share work: thresholds that leave the
/// conflict matrix unchanged, maxtb values that may not bind, and two
/// policies. On these two apps the policies' phase-1 traces lead to
/// different designs, so an analysis keyed by app alone designs the
/// fixed-priority points from the round-robin trace and gets them wrong.
sweep_spec colliding_spec() {
  workloads::synthetic_params lockstep;
  lockstep.num_cores = 8;
  lockstep.phase_spread = 0.0;
  lockstep.gap_cycles = 200;
  sweep_spec spec;
  spec.apps = {workloads::make_synthetic(lockstep), workloads::make_qsort()};
  spec.horizon = 8'000;
  spec.grid.overlap_thresholds = {0.1, 0.3, 0.5, 0.7};
  spec.grid.max_targets_per_bus = {0, 4};
  spec.grid.policies = {sim::arbitration::round_robin,
                        sim::arbitration::fixed_priority};
  spec.grid.burst_windows = {0, 100};
  return spec;
}

TEST(Sweep, SharedWorkPointsEqualTheirDesignFlows) {
  auto spec = colliding_spec();
  const auto points = sweep_points(spec);
  ASSERT_EQ(points.size(), 32u);
  std::vector<xbar::flow_report> serial;
  for (const auto& app : spec.apps) {
    for (const auto& point : points) {
      serial.push_back(xbar::run_design_flow(app, options_for(spec, point)));
    }
  }
  for (const int threads : {1, 4}) {
    spec.threads = threads;
    const auto report = run_sweep(spec);
    ASSERT_EQ(report.results.size(), serial.size());
    // One phase-1 simulation per (app, policy).
    EXPECT_EQ(report.phase1_simulations, 4);
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(report.results[i].report, serial[i])
          << "threads " << threads << " app " << report.results[i].app_name
          << " point " << points[i % points.size()].to_string();
    }
  }
}

TEST(Sweep, WorkCountersAreIdenticalAcrossThreadCounts) {
  auto spec = colliding_spec();
  std::vector<obs::metrics_snapshot> snaps;
  for (const int threads : {1, 2, 8}) {
    spec.threads = threads;
    obs::reset();
    obs::enable();
    (void)run_sweep(spec);
    obs::disable();
    snaps.push_back(obs::snapshot());
  }
  obs::reset();
  ASSERT_GT(snaps[0].counter("sim.runs"), 0);
  ASSERT_GT(snaps[0].counter("xbar.synth.runs"), 0);
  for (std::size_t k = 1; k < snaps.size(); ++k) {
    for (const char* name :
         {"sim.runs", "sim.events_processed", "xbar.synth.runs"}) {
      EXPECT_EQ(snaps[k].counter(name), snaps[0].counter(name))
          << name << " at run " << k;
    }
    EXPECT_EQ(snaps[k].counters, snaps[0].counters) << "run " << k;
    EXPECT_EQ(snaps[k].gauges, snaps[0].gauges) << "run " << k;
  }
}

TEST(Sweep, SimulatesEachDistinctDesignOnce) {
  const auto spec = colliding_spec();
  obs::reset();
  obs::enable();
  const auto report = run_sweep(spec);
  obs::disable();
  const auto snap = obs::snapshot();
  obs::reset();
  std::size_t distinct = 0;
  for (const auto& app : spec.apps) {
    distinct += distinct_designs(spec, report, app.name);
  }
  // The grid collides: fewer designs than points, and fewer syntheses
  // than point directions.
  EXPECT_LT(distinct, report.results.size());
  EXPECT_LT(snap.counter("xbar.synth.runs"),
            static_cast<std::int64_t>(2 * report.results.size()));
  EXPECT_EQ(snap.counter("sim.runs"),
            report.phase1_simulations +
                static_cast<std::int64_t>(distinct));
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
  EXPECT_EQ(report.phase1_simulations, 1);
  EXPECT_TRUE(report.pareto.empty());
  for (const auto& r : report.results) {
    EXPECT_FALSE(r.validated);
    EXPECT_GT(r.total_buses(), 0);
    EXPECT_EQ(r.avg_latency(), 0.0);
    // Phase 1 ran, but an unvalidated report carries no reference.
    EXPECT_EQ(r.report.full, xbar::validation_metrics{});
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
