// Unit tests for the window analysis over uniform partitions; partitions
// and unequal windows are covered by variable_windows_test.
#include "traffic/windows.h"

#include <gtest/gtest.h>

#include "util/error.h"

namespace stx::traffic {
namespace {

window_analysis analyze(const trace& t, cycle_t window_size) {
  return window_analysis(t, window_partition::uniform(t.horizon(),
                                                      window_size));
}

/// Two targets with hand-computable layout:
/// target 0 busy [0,10) and [95,105); target 1 busy [5,12) and [100,103).
trace make_hand_trace() {
  trace t(2, 1, 200);
  t.add({0, 0, 0, 10, false});
  t.add({0, 0, 95, 105, false});
  t.add({1, 0, 5, 12, false});
  t.add({1, 0, 100, 103, false});
  return t;
}

TEST(WindowAnalysis, CommSplitsAcrossWindowBoundaries) {
  const auto t = make_hand_trace();
  const auto wa = analyze(t, 100);  // windows [0,100) and [100,200)
  EXPECT_EQ(wa.num_windows(), 2);
  EXPECT_EQ(wa.comm(0, 0), 15);  // [0,10) + [95,100)
  EXPECT_EQ(wa.comm(0, 1), 5);   // [100,105)
  EXPECT_EQ(wa.comm(1, 0), 7);
  EXPECT_EQ(wa.comm(1, 1), 3);
}

TEST(WindowAnalysis, OverlapMatrixAndMaxFraction) {
  const auto t = make_hand_trace();
  const auto wa = analyze(t, 100);
  // Window 0: [5,10) = 5 of 100; window 1: [100,103) = 3 of 100.
  EXPECT_EQ(wa.total_overlap(0, 1), 8);
  EXPECT_DOUBLE_EQ(wa.max_overlap_fraction(0, 1), 0.05);
  EXPECT_EQ(wa.total_overlap(1, 0), 8);  // symmetric
  EXPECT_DOUBLE_EQ(wa.max_overlap_fraction(1, 0), 0.05);
  EXPECT_EQ(wa.total_overlap(0, 0), 0);  // diagonal convention
  EXPECT_DOUBLE_EQ(wa.max_overlap_fraction(0, 0), 0.0);
}

TEST(WindowAnalysis, OverlapSpanningWindowBoundary) {
  trace t(2, 1, 200);
  t.add({0, 0, 90, 110, false});
  t.add({1, 0, 95, 120, false});
  const auto wa = analyze(t, 100);
  // [95,100) = 5 in window 0, [100,110) = 10 in window 1.
  EXPECT_EQ(wa.total_overlap(0, 1), 15);
  EXPECT_DOUBLE_EQ(wa.max_overlap_fraction(0, 1), 0.10);
}

TEST(WindowAnalysis, SingleWindowEqualsTotals) {
  const auto t = make_hand_trace();
  const auto wa = analyze(t, 1000);  // one window covers everything
  EXPECT_EQ(wa.num_windows(), 1);
  EXPECT_EQ(wa.comm(0, 0), 20);
  EXPECT_DOUBLE_EQ(wa.max_overlap_fraction(0, 1),
                   static_cast<double>(wa.total_overlap(0, 1)) / 1000.0);
}

TEST(WindowAnalysis, CriticalOverlapOnlyCountsCriticalEvents) {
  trace t(2, 1, 100);
  t.add({0, 0, 0, 10, true});
  t.add({1, 0, 5, 15, false});  // overlaps but not critical
  const auto wa1 = analyze(t, 100);
  EXPECT_EQ(wa1.critical_overlap(0, 1), 0);
  EXPECT_EQ(wa1.total_overlap(0, 1), 5);  // plain overlap still seen

  trace t2(2, 1, 100);
  t2.add({0, 0, 0, 10, true});
  t2.add({1, 0, 5, 15, true});
  const auto wa2 = analyze(t2, 100);
  EXPECT_EQ(wa2.critical_overlap(0, 1), 5);
  EXPECT_EQ(wa2.critical_overlap(1, 0), 5);
}

TEST(WindowAnalysis, PartitionMustCoverTheTrace) {
  const auto t = make_hand_trace();  // horizon 200
  EXPECT_THROW(window_analysis(t, window_partition({0, 100})),
               invalid_argument_error);
  EXPECT_NO_THROW(window_analysis(t, window_partition({0, 100, 250})));
}

TEST(WindowAnalysis, EmptyTraceYieldsZeroes) {
  trace t(3, 1, 1000);
  const auto wa = analyze(t, 100);
  EXPECT_EQ(wa.num_windows(), 10);
  EXPECT_EQ(wa.comm(0, 5), 0);
  EXPECT_EQ(wa.total_overlap(0, 1), 0);
  EXPECT_DOUBLE_EQ(wa.max_overlap_fraction(1, 2), 0.0);
  EXPECT_EQ(wa.critical_overlap(0, 2), 0);
}

TEST(WindowAnalysis, BoundsChecking) {
  const auto t = make_hand_trace();
  const auto wa = analyze(t, 100);
  EXPECT_THROW(wa.comm(5, 0), invalid_argument_error);
  EXPECT_THROW(wa.comm(0, 9), invalid_argument_error);
  EXPECT_THROW(wa.total_overlap(0, 5), invalid_argument_error);
  EXPECT_THROW(wa.max_overlap_fraction(-1, 0), invalid_argument_error);
}

}  // namespace
}  // namespace stx::traffic
