// Unit tests for window partitions (uniform and burst-adaptive) and the
// window analysis over windows of unequal length.
#include <gtest/gtest.h>

#include <limits>

#include "traffic/windows.h"
#include "util/error.h"

namespace stx::traffic {
namespace {

TEST(WindowPartition, UniformFactoryCoversHorizon) {
  // Every window is full length: the last one runs past the horizon.
  const auto p = window_partition::uniform(1000, 300);
  EXPECT_EQ(p.num_windows(), 4);  // 300,300,300,300
  EXPECT_EQ(p.begin(0), 0);
  EXPECT_EQ(p.begin(3), 900);
  EXPECT_EQ(p.end(3), 1200);
  EXPECT_EQ(p.size(3), 300);
  EXPECT_EQ(p.max_size(), 300);
  EXPECT_EQ(p.horizon(), 1200);

  const auto exact = window_partition::uniform(1200, 300);
  EXPECT_EQ(exact.num_windows(), 4);
  EXPECT_EQ(exact.horizon(), 1200);
}

TEST(WindowPartition, UniformRejectsBadArguments) {
  EXPECT_THROW(window_partition::uniform(1000, 0), invalid_argument_error);
  EXPECT_THROW(window_partition::uniform(1000, -5), invalid_argument_error);
  EXPECT_THROW(window_partition::uniform(0, 100), invalid_argument_error);
  // The last boundary would not fit in a cycle_t.
  constexpr cycle_t kMax = std::numeric_limits<cycle_t>::max();
  EXPECT_THROW(window_partition::uniform(kMax, kMax - 1),
               invalid_argument_error);
}

TEST(WindowPartition, ValidatesBoundaries) {
  EXPECT_THROW(window_partition({0}), invalid_argument_error);
  EXPECT_THROW(window_partition({5, 10}), invalid_argument_error);
  EXPECT_THROW(window_partition({0, 10, 10}), invalid_argument_error);
  EXPECT_THROW(window_partition({0, 20, 10}), invalid_argument_error);
  EXPECT_NO_THROW(window_partition({0, 10, 30}));
}

TEST(WindowPartition, BurstAdaptiveShrinksInDensePhases) {
  // Dense activity in [0,200), silence until 2000.
  trace t(2, 1, 2000);
  t.add({0, 0, 0, 200, false});
  t.add({1, 0, 0, 200, false});
  const auto p = window_partition::burst_adaptive(
      t, /*target_busy_per_window=*/100, /*min_size=*/50, /*max_size=*/1000);
  // Dense region: ~100 busy per 50-cycle window -> several small windows;
  // quiet region: max_size windows.
  ASSERT_GE(p.num_windows(), 4);
  EXPECT_LE(p.size(0), 100);
  EXPECT_EQ(p.max_size(), 1000);
  EXPECT_EQ(p.horizon(), 2000);
}

TEST(WindowPartition, BurstAdaptiveRespectsClamp) {
  trace t(1, 1, 5000);
  t.add({0, 0, 0, 5000, false});  // uniformly busy
  const auto p = window_partition::burst_adaptive(t, 100, 200, 400);
  for (int m = 0; m < p.num_windows() - 1; ++m) {
    EXPECT_GE(p.size(m), 200);
    EXPECT_LE(p.size(m), 400);
  }
}

TEST(WindowPartition, BurstAdaptiveTakesHugeClamps) {
  trace t(1, 1, 1000);
  t.add({0, 0, 0, 1000, false});
  constexpr cycle_t kMax = std::numeric_limits<cycle_t>::max();
  const auto p = window_partition::burst_adaptive(t, 100, 1, kMax);
  EXPECT_EQ(p.num_windows(), 10);  // 100 busy cycles each
  EXPECT_EQ(p.horizon(), 1000);
  const auto one = window_partition::burst_adaptive(t, 100, kMax / 2, kMax);
  EXPECT_EQ(one.num_windows(), 1);
  EXPECT_EQ(one.horizon(), 1000);
}

TEST(VariableWindows, CommBoundedByWindowSize) {
  trace t(1, 1, 1000);
  t.add({0, 0, 0, 1000, false});
  const window_analysis wa(t, window_partition({0, 100, 400, 1000}));
  EXPECT_EQ(wa.comm(0, 0), 100);
  EXPECT_EQ(wa.comm(0, 1), 300);
  EXPECT_EQ(wa.comm(0, 2), 600);
}

TEST(VariableWindows, OverlapFractionUsesOwnWindowSize) {
  // Overlap of 50 cycles inside a 100-cycle window is 50%, even though a
  // later window is 10x larger.
  trace t(2, 1, 1100);
  t.add({0, 0, 0, 60, false});
  t.add({1, 0, 10, 60, false});
  const window_analysis wa(t, window_partition({0, 100, 1100}));
  EXPECT_DOUBLE_EQ(wa.max_overlap_fraction(0, 1), 0.5);
}

}  // namespace
}  // namespace stx::traffic
