// Edge values of design_params::overlap_threshold (Sec. 7.4): at 0.0
// every overlapping pair conflicts; above 0.5 the pre-processing adds no
// constraint beyond the Eq. 4 bandwidth limit (two streams overlapping
// more than half a window cannot share a bus anyway). The rule is
// overlap / window length > threshold, exactly, at every threshold.
#include <gtest/gtest.h>

#include <random>

#include "traffic/windows.h"
#include "workloads/mpsoc_apps.h"
#include "xbar/flow.h"
#include "xbar/problem.h"

namespace stx::xbar {
namespace {

constexpr cycle_t kWS = 100;

traffic::window_analysis analyze(const traffic::trace& t, cycle_t ws) {
  return traffic::window_analysis(
      t, traffic::window_partition::uniform(t.horizon(), ws));
}

design_params params_with_threshold(double th) {
  design_params p;
  p.window_size = kWS;
  p.overlap_threshold = th;
  p.separate_critical = false;  // isolate the overlap-threshold rule
  return p;
}

traffic::trace mixed_trace() {
  traffic::trace t(/*num_targets=*/4, /*num_initiators=*/1,
                   /*horizon=*/2 * kWS);
  // Window 0: targets 0 and 1 overlap for 10 cycles; target 2 is busy but
  // disjoint from both; target 3 idle.
  t.add({0, 0, 0, 50, false});
  t.add({1, 0, 40, 60, false});
  t.add({2, 0, 60, 90, false});
  // Window 1: targets 2 and 3 overlap for 20 cycles.
  t.add({2, 0, 100, 130, false});
  t.add({3, 0, 110, 160, false});
  return t;
}

TEST(OverlapThreshold, ZeroConflictsEveryOverlappingPair) {
  const auto t = mixed_trace();
  const auto wa = analyze(t, kWS);
  const synthesis_input input(wa, params_with_threshold(0.0));

  for (int i = 0; i < input.num_targets(); ++i) {
    for (int j = i + 1; j < input.num_targets(); ++j) {
      EXPECT_EQ(input.conflict(i, j), wa.max_overlap_fraction(i, j) > 0.0)
          << "pair (" << i << "," << j << ")";
    }
  }
  // Sanity: the trace has both kinds of pairs.
  EXPECT_TRUE(input.conflict(0, 1));
  EXPECT_TRUE(input.conflict(2, 3));
  EXPECT_FALSE(input.conflict(0, 2));
  EXPECT_FALSE(input.conflict(0, 3));
}

TEST(OverlapThreshold, ExactlyHalfWindowNeverTriggersAboveHalf) {
  traffic::trace t(2, 1, kWS);
  // Both targets busy [0, 50): overlap exactly WS/2.
  t.add({0, 0, 0, 50, false});
  t.add({1, 0, 0, 50, false});
  const auto wa = analyze(t, kWS);
  ASSERT_EQ(wa.max_overlap_fraction(0, 1), 0.5);

  for (double th : {0.5, 0.51, 0.75, 1.0}) {
    const synthesis_input input(wa, params_with_threshold(th));
    EXPECT_FALSE(input.conflict(0, 1)) << "threshold " << th;
  }
  // Control: below half it does trigger.
  const synthesis_input tight(wa, params_with_threshold(0.25));
  EXPECT_TRUE(tight.conflict(0, 1));
}

// The Sec. 7.4 claim, stated precisely: with threshold > 0.5, any pair
// the pre-processing marks conflicting is already unable to share a bus
// because some window's combined demand exceeds the bus bandwidth. So the
// conflict rule never removes a binding that Eq. 4 would admit.
TEST(OverlapThreshold, AboveHalfAddsNothingBeyondBandwidth) {
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> start_dist(0, 9 * kWS);
  std::uniform_int_distribution<int> len_dist(1, 2 * kWS);

  for (int trial = 0; trial < 20; ++trial) {
    traffic::trace t(/*num_targets=*/6, /*num_initiators=*/1,
                     /*horizon=*/10 * kWS);
    for (int e = 0; e < 30; ++e) {
      const int tgt = static_cast<int>(rng() % 6);
      const cycle_t begin = start_dist(rng);
      const cycle_t end = begin + len_dist(rng);
      t.add({tgt, 0, begin, end, false});
    }
    const auto wa = analyze(t, kWS);

    for (double th : {0.51, 0.6, 0.75, 0.99}) {
      const synthesis_input input(wa, params_with_threshold(th));
      for (int i = 0; i < input.num_targets(); ++i) {
        for (int j = i + 1; j < input.num_targets(); ++j) {
          if (!input.conflict(i, j)) continue;
          bool bandwidth_excludes = false;
          for (int m = 0; m < input.num_windows(); ++m) {
            if (input.comm(i, m) + input.comm(j, m) > input.capacity(m)) {
              bandwidth_excludes = true;
              break;
            }
          }
          EXPECT_TRUE(bandwidth_excludes)
              << "trial " << trial << " threshold " << th << " pair (" << i
              << "," << j << ") conflicts without a bandwidth violation";
        }
      }
    }
  }
}

TEST(OverlapThreshold, FullWindowOverlapStillConflictsAboveHalf) {
  traffic::trace t(2, 1, kWS);
  t.add({0, 0, 0, kWS, false});
  t.add({1, 0, 0, kWS, false});
  const auto wa = analyze(t, kWS);
  // Overlap is the whole window: above any threshold < 1.0, and the pair
  // indeed cannot share a bus (comm sums to 2*WS).
  const synthesis_input input(wa, params_with_threshold(0.75));
  EXPECT_TRUE(input.conflict(0, 1));
  EXPECT_GT(input.comm(0, 0) + input.comm(1, 0), input.capacity(0));
}

// thr * WS = 49.5 here. An overlap of 50 of 150 cycles (a third of the
// window) exceeds 0.33; rounding the threshold to 50 cycles first would
// miss it.
TEST(OverlapThreshold, FractionalThresholdProductIsNotRounded) {
  traffic::trace t(2, 1, 150);
  t.add({0, 0, 0, 50, false});
  t.add({1, 0, 0, 50, false});
  auto p = params_with_threshold(0.33);
  p.window_size = 150;
  const synthesis_input input(analyze(t, 150), p);
  EXPECT_TRUE(input.conflict(0, 1));
}

// A threshold whose product with WS overflows int64 must behave like any
// other huge threshold: no overlap exceeds it.
TEST(OverlapThreshold, HugeThresholdsAddNoConflict) {
  traffic::trace t(3, 1, 2 * kWS);
  t.add({0, 0, 0, 40, false});
  t.add({1, 0, 40, 90, false});
  t.add({2, 0, 120, 180, false});
  const auto wa = analyze(t, kWS);
  for (double th : {1e17, 1e300}) {
    const synthesis_input input(wa, params_with_threshold(th));
    EXPECT_EQ(input.num_conflicts(), 0) << "threshold " << th;
  }
}

TEST(OverlapThreshold, HugeThresholdDesignsLikeThresholdOne) {
  // What `xbargen --app=mat2 --threshold=...` runs, at its defaults.
  const auto app = workloads::make_mat2();
  auto design_buses = [&](double th) {
    flow_options opts;
    opts.synth.params.window_size = 400;
    opts.synth.params.overlap_threshold = th;
    opts.synth.params.max_targets_per_bus = 4;
    return run_design_flow(app, opts).designed_buses;
  };
  const int at_one = design_buses(1.0);
  EXPECT_LT(at_one, app.total_cores());
  EXPECT_EQ(design_buses(1e17), at_one);
}

// The uniform partition gives a partial last window a full window's
// length and bus capacity: 20,000 cycles at WS 1,600 are 13 windows.
TEST(OverlapThreshold, PartialLastWindowHasFullCapacity) {
  traffic::trace t(2, 1, 20'000);
  t.add({0, 0, 19'500, 20'000, false});
  t.add({1, 0, 19'600, 20'000, false});
  design_params p = params_with_threshold(0.3);
  p.window_size = 1'600;
  const auto input = input_from_trace(t, p);
  ASSERT_EQ(input.num_windows(), 13);
  for (int m = 0; m < input.num_windows(); ++m) {
    EXPECT_EQ(input.capacity(m), 1'600) << "window " << m;
  }
  EXPECT_EQ(input.window_size(), 1'600);
  // 400 of 1,600 cycles is a quarter of the window; a last window cut
  // at the horizon (800 cycles) would make it half and conflict at 0.3.
  EXPECT_FALSE(input.conflict(0, 1));
  p.overlap_threshold = 0.24;
  EXPECT_TRUE(input_from_trace(t, p).conflict(0, 1));
}

}  // namespace
}  // namespace stx::xbar
