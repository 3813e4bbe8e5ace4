// Unit tests for the baseline design approaches.
#include "xbar/baselines.h"

#include <gtest/gtest.h>

#include <set>


namespace stx::xbar {
namespace {

/// Trace where averages mislead: two targets alternate heavy bursts, so
/// their AVERAGE demand is low but they collide in every burst window.
traffic::trace make_bursty_trace() {
  traffic::trace t(3, 1, 1000);
  for (cycle_t start = 0; start < 1000; start += 200) {
    t.add({0, 0, start, start + 90, false});
    t.add({1, 0, start + 10, start + 100, false});
  }
  t.add({2, 0, 150, 170, false});
  return t;
}

TEST(Baselines, AverageTrafficDesignUsesOneWindowAndNoConflicts) {
  const auto t = make_bursty_trace();
  const auto design = design_average_traffic(t);
  // Average duty: target0 450/1000, target1 450/1000, target2 20/1000:
  // all fit on one bus by aggregate bandwidth.
  EXPECT_EQ(design.num_buses, 1);
  EXPECT_EQ(design.params.window_size, 1000);
  EXPECT_FALSE(design.params.use_overlap_conflicts);
}

TEST(Baselines, WindowDesignSeparatesWhatAveragesMerge) {
  const auto t = make_bursty_trace();
  synthesis_options opts;
  opts.params.window_size = 200;
  opts.params.max_targets_per_bus = 0;
  const auto design = synthesize_from_trace(t, opts);
  // Within each 200-cycle window targets 0 and 1 demand 90+90 = 180 <=
  // 200... but overlap (80 cycles = 40% of WS) exceeds the default 30%
  // threshold, so the window-based method separates them.
  EXPECT_NE(design.binding[0], design.binding[1]);
  EXPECT_GE(design.num_buses, 2);
}

TEST(Baselines, PeakDesignSeparatesAnyOverlappingPair) {
  const auto t = make_bursty_trace();
  const auto design = design_peak_contention_free(t, 200);
  // Targets 0,1 overlap -> separate. Target 2 overlaps nobody -> may
  // share with either.
  EXPECT_NE(design.binding[0], design.binding[1]);
  EXPECT_EQ(design.params.overlap_threshold, 0.0);
}

TEST(Baselines, PeakDesignOversizesRelativeToWindowDesign) {
  // Three mutually slightly-overlapping light targets: window design
  // tolerates the small overlap, the contention-free design does not.
  traffic::trace t(3, 1, 400);
  t.add({0, 0, 0, 50, false});
  t.add({1, 0, 45, 95, false});   // 5-cycle overlap with 0
  t.add({2, 0, 90, 140, false});  // 5-cycle overlap with 1
  const auto peak = design_peak_contention_free(t, 400);
  synthesis_options opts;
  opts.params.window_size = 400;
  opts.params.overlap_threshold = 0.30;
  opts.params.max_targets_per_bus = 0;
  const auto window = synthesize_from_trace(t, opts);
  EXPECT_GT(peak.num_buses, window.num_buses);
  EXPECT_EQ(window.num_buses, 1);  // 150/400 duty, 5/400 overlap: shareable
}

TEST(Baselines, RandomRebindKeepsBusCountAndFeasibility) {
  const auto t = make_bursty_trace();
  synthesis_options opts;
  opts.params.window_size = 200;
  opts.params.max_targets_per_bus = 0;
  const auto in = input_from_trace(t, opts.params);
  const auto design = synthesize(in, opts);

  std::set<std::vector<int>> bindings;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const auto rebound = rebind_randomly(in, design, seed);
    EXPECT_EQ(rebound.num_buses, design.num_buses);
    EXPECT_TRUE(in.binding_feasible(rebound.binding, rebound.num_buses));
    EXPECT_GE(rebound.max_overlap, design.max_overlap)
        << "random binding beat the proven optimum";
    bindings.insert(rebound.binding);
  }
  EXPECT_GE(bindings.size(), 2u);
}

}  // namespace
}  // namespace stx::xbar
