// Unit tests for the obs subsystem: counter determinism across thread
// counts, span nesting, trace/metrics JSON rendering, and the
// end-to-end flow instrumentation smoke test.
#include "obs/obs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "gen/json.h"
#include "milp/branch_bound.h"
#include "milp/model.h"
#include "obs/export.h"
#include "workloads/mpsoc_apps.h"
#include "xbar/flow.h"

namespace stx {
namespace {

/// Every test starts from a clean, disabled registry and leaves it that
/// way: obs state is process-global, so leakage between tests (or into
/// other suites linked against the same library) must be impossible.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::disable();
    obs::reset();
  }
  void TearDown() override {
    obs::disable();
    obs::reset();
  }
};

TEST_F(ObsTest, DisabledEntryPointsAreNoOps) {
  ASSERT_FALSE(obs::enabled());
  obs::add_counter("noop.counter", 5);
  obs::gauge_max("noop.gauge", 7);
  obs::record_wall("noop.wall", 0.25);
  {
    obs::span sp("noop.span", {{"k", 1}});
    sp.set_attr({"late", "value"});
  }
  const auto snap = obs::snapshot();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.gauges.empty());
  EXPECT_TRUE(snap.wall.empty());
  EXPECT_TRUE(obs::trace_events().empty());
}

/// The deterministic workload the thread-identity test distributes:
/// item i contributes i to one counter, 1 to another, and raises a
/// high-water gauge — all order-independent updates.
void run_items_over_threads(int num_threads, int num_items) {
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(num_threads));
  for (int t = 0; t < num_threads; ++t) {
    pool.emplace_back([=] {
      for (int i = t; i < num_items; i += num_threads) {
        obs::span sp("items.work", {{"item", i}});
        obs::add_counter("items.sum", i);
        obs::add_counter("items.count", 1);
        obs::gauge_max("items.max", i);
      }
    });
  }
  for (auto& th : pool) th.join();
}

TEST_F(ObsTest, CountersBitIdenticalAcrossThreadCounts) {
  obs::enable();
  run_items_over_threads(1, 500);
  const auto serial = obs::snapshot();

  obs::reset();
  run_items_over_threads(8, 500);
  const auto parallel = obs::snapshot();

  // The deterministic sections must match exactly — same names, same
  // values, same order — regardless of how the work was scheduled.
  EXPECT_EQ(serial.counters, parallel.counters);
  EXPECT_EQ(serial.gauges, parallel.gauges);
  EXPECT_EQ(serial.counter("items.count"), 500);
  EXPECT_EQ(serial.counter("items.sum"), 500 * 499 / 2);
  ASSERT_EQ(serial.gauges.size(), 1u);
  EXPECT_EQ(serial.gauges[0].name, "items.max");
  EXPECT_EQ(serial.gauges[0].value, 499);
  // The wall section saw the same number of samples even though the
  // durations themselves are timing (non-deterministic).
  const auto* wall = parallel.find_wall("items.work");
  ASSERT_NE(wall, nullptr);
  EXPECT_EQ(wall->count, 500);
}

TEST_F(ObsTest, SpansRecordNestingDepthAndAttributes) {
  obs::enable();
  {
    obs::span outer("outer", {{"app", "mat1"}});
    {
      obs::span inner("inner");
    }
    outer.set_attr({"buses", 7});
  }
  const auto events = obs::trace_events();
  ASSERT_EQ(events.size(), 2u);
  // Events land in completion order: inner closes first.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[0].depth, 1);
  EXPECT_EQ(events[1].name, "outer");
  EXPECT_EQ(events[1].depth, 0);
  EXPECT_EQ(events[0].tid, events[1].tid);
  // Containment on the shared thread track: that is what Perfetto uses
  // to reconstruct the hierarchy.
  EXPECT_GE(events[0].start_ns, events[1].start_ns);
  EXPECT_LE(events[0].start_ns + events[0].dur_ns,
            events[1].start_ns + events[1].dur_ns);
  ASSERT_EQ(events[1].attrs.size(), 2u);
  EXPECT_EQ(events[1].attrs[0], (obs::attr{"app", "mat1"}));
  EXPECT_EQ(events[1].attrs[1], (obs::attr{"buses", 7}));
  // Ending a span also feeds the registry's wall section.
  const auto snap = obs::snapshot();
  ASSERT_NE(snap.find_wall("outer"), nullptr);
  EXPECT_EQ(snap.find_wall("outer")->count, 1);
}

TEST_F(ObsTest, TraceJsonIsValidChromeTraceFormat) {
  obs::enable();
  {
    obs::span sp("traced.op", {{"kind", "unit"}, {"n", 3}});
  }
  const auto doc = gen::json::parse(obs::render_trace_json());
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 1u);
  const auto& ev = events[0];
  EXPECT_EQ(ev.at("name").as_string(), "traced.op");
  EXPECT_EQ(ev.at("cat").as_string(), "stx");
  EXPECT_EQ(ev.at("ph").as_string(), "X");
  EXPECT_EQ(ev.at("pid").as_int(), 1);
  EXPECT_TRUE(ev.at("tid").is_int());
  EXPECT_TRUE(ev.at("ts").is_number());
  EXPECT_TRUE(ev.at("dur").is_number());
  EXPECT_GE(ev.at("dur").as_double(), 0.0);
  const auto& args = ev.at("args");
  EXPECT_EQ(args.at("kind").as_string(), "unit");
  EXPECT_EQ(args.at("n").as_int(), 3);
}

TEST_F(ObsTest, MetricsSnapshotIsNameSortedAndRendersSchema) {
  obs::enable();
  // Registered out of order on purpose: snapshots must sort by name.
  obs::add_counter("zeta", 2);
  obs::add_counter("alpha", 1);
  obs::add_counter("mid", 4);
  obs::gauge_max("depth", 3);
  obs::record_wall("walltime", 0.5);
  const auto snap = obs::snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_TRUE(std::is_sorted(
      snap.counters.begin(), snap.counters.end(),
      [](const auto& a, const auto& b) { return a.name < b.name; }));
  EXPECT_EQ(snap.counter("alpha"), 1);
  EXPECT_EQ(snap.counter("absent"), 0);

  const auto doc = gen::json::parse(obs::render_metrics_json(snap));
  EXPECT_EQ(doc.at("schema").as_string(), "stx-metrics/v1");
  EXPECT_EQ(doc.at("counters").at("zeta").as_int(), 2);
  EXPECT_EQ(doc.at("gauges").at("depth").as_int(), 3);
  const auto& wall = doc.at("wall_nondeterministic").at("walltime");
  EXPECT_EQ(wall.at("count").as_int(), 1);
  EXPECT_NEAR(wall.at("total_ms").as_double(), 500.0, 1e-6);

  // Two snapshots of the same registry render byte-identically.
  EXPECT_EQ(obs::render_metrics_json(snap),
            obs::render_metrics_json(obs::snapshot()));
}

/// End-to-end smoke test of the acceptance criterion: one flow run emits
/// the five stage spans exactly once each, with solver/simulator child
/// spans strictly below them.
TEST_F(ObsTest, DesignFlowEmitsFiveStageSpansExactlyOnce) {
  obs::enable();
  const auto app = workloads::make_app_by_name("mat1");
  ASSERT_TRUE(app.has_value());
  xbar::flow_options opts;
  opts.horizon = 4'000;  // smoke horizon: structure, not fidelity
  const auto report = xbar::run_design_flow(*app, opts);
  gen::generate_options gopts;
  gopts.backends = {"json"};
  const auto artifacts = xbar::generate_artifacts(report, gopts);
  ASSERT_FALSE(artifacts.empty());

  const auto events = obs::trace_events();
  const auto count_of = [&](std::string_view name) {
    return std::count_if(events.begin(), events.end(),
                         [&](const auto& e) { return e.name == name; });
  };
  const auto depth_of = [&](std::string_view name) {
    for (const auto& e : events) {
      if (e.name == name) return e.depth;
    }
    return -1;
  };
  for (const char* stage : {"flow.collect", "flow.analyze",
                            "flow.synthesize", "flow.validate",
                            "flow.generate"}) {
    EXPECT_EQ(count_of(stage), 1) << stage;
  }
  // Child spans nest strictly below their stage.
  EXPECT_GE(count_of("sim.run"), 1);
  EXPECT_GT(depth_of("sim.run"), depth_of("flow.collect"));
  EXPECT_EQ(count_of("xbar.synthesize"), 2);  // request + response
  EXPECT_GT(depth_of("xbar.synthesize"), depth_of("flow.synthesize"));
  EXPECT_EQ(count_of("xbar.size_search"), 2);
  EXPECT_GT(depth_of("xbar.size_search"), depth_of("xbar.synthesize"));

  // The registry carries the flow's deterministic counters.
  const auto snap = obs::snapshot();
  // Phase 1 (also the full-crossbar reference) + the designed run.
  EXPECT_EQ(snap.counter("sim.runs"), 2);
  EXPECT_GT(snap.counter("sim.events_processed"), 0);
  EXPECT_EQ(snap.counter("xbar.synth.runs"), 2);
  EXPECT_GT(snap.counter("xbar.synth.feasibility_nodes"), 0);
  EXPECT_EQ(snap.counter("gen.artifacts"),
            static_cast<std::int64_t>(artifacts.size()));
}

/// The generic solver's span + counter flush, on a model small enough
/// that the MILP engine answers instantly.
TEST_F(ObsTest, MilpSolveFlushesSpanAndCounters) {
  obs::enable();
  // maximise x0 + x1 s.t. x0 + x1 <= 1, binaries: optimum 1.
  milp::model m;
  m.add_binary(-1.0);
  m.add_binary(-1.0);
  m.add_row({{0, 1.0}, {1, 1.0}}, lp::relation::less_equal, 1.0);
  const auto res = milp::solve_branch_bound(m, milp::bb_options{});
  ASSERT_EQ(res.status, milp::milp_status::optimal);

  const auto events = obs::trace_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "milp.solve");
  const auto snap = obs::snapshot();
  EXPECT_EQ(snap.counter("milp.solves"), 1);
  EXPECT_EQ(snap.counter("milp.nodes"), res.nodes);
  EXPECT_EQ(snap.counter("milp.lp_iterations"), res.lp_iterations);
  EXPECT_EQ(snap.counter("lp.dual_pivots"), res.dual_pivots);
}

}  // namespace
}  // namespace stx
