// Unit tests for traffic traces.
#include "traffic/trace.h"

#include <gtest/gtest.h>

#include <sstream>

#include "explore/codec.h"
#include "util/error.h"
#include "workloads/mpsoc_apps.h"
#include "xbar/flow.h"

namespace stx::traffic {
namespace {

TEST(Trace, ConstructionAndDimensions) {
  trace t(4, 3, 1000);
  EXPECT_EQ(t.num_targets(), 4);
  EXPECT_EQ(t.num_initiators(), 3);
  EXPECT_EQ(t.horizon(), 1000);
  EXPECT_TRUE(t.empty());
}

TEST(Trace, AddValidatesIds) {
  trace t(2, 2, 100);
  EXPECT_THROW(t.add({5, 0, 0, 10, false}), invalid_argument_error);
  EXPECT_THROW(t.add({0, 7, 0, 10, false}), invalid_argument_error);
  EXPECT_THROW(t.add({0, 0, 10, 10, false}), invalid_argument_error);
  EXPECT_THROW(t.add({0, 0, -1, 10, false}), invalid_argument_error);
  t.add({0, 0, 0, 10, false});
  EXPECT_EQ(t.events().size(), 1u);
}

TEST(Trace, HorizonGrowsWithEvents) {
  trace t(1, 1, 50);
  t.add({0, 0, 40, 120, false});
  EXPECT_EQ(t.horizon(), 120);
}

TEST(Trace, ExtendHorizonNeverShrinks) {
  trace t(1, 1, 100);
  t.extend_horizon(50);
  EXPECT_EQ(t.horizon(), 100);
  t.extend_horizon(300);
  EXPECT_EQ(t.horizon(), 300);
}

TEST(Trace, BusyIntervalsMergeAdjacentAndOverlapping) {
  trace t(2, 1, 100);
  t.add({0, 0, 0, 10, false});
  t.add({0, 0, 10, 20, false});   // adjacent: merges
  t.add({0, 0, 30, 50, false});
  t.add({0, 0, 40, 60, false});   // overlapping: merges
  t.add({1, 0, 5, 7, false});     // different target: untouched
  const auto iv = t.busy_intervals(0);
  ASSERT_EQ(iv.size(), 2u);
  EXPECT_EQ(iv[0].first, 0);
  EXPECT_EQ(iv[0].second, 20);
  EXPECT_EQ(iv[1].first, 30);
  EXPECT_EQ(iv[1].second, 60);
}

TEST(Trace, BusyIntervalsCriticalOnly) {
  trace t(1, 1, 100);
  t.add({0, 0, 0, 10, false});
  t.add({0, 0, 20, 30, true});
  const auto all = t.busy_intervals(0);
  const auto crit = t.busy_intervals(0, /*critical_only=*/true);
  EXPECT_EQ(all.size(), 2u);
  ASSERT_EQ(crit.size(), 1u);
  EXPECT_EQ(crit[0].first, 20);
}

TEST(Trace, TotalBusyPerTarget) {
  trace t(2, 1, 100);
  t.add({0, 0, 0, 10, false});
  t.add({0, 0, 5, 15, false});  // overlap merged: total 15, not 20
  t.add({1, 0, 0, 4, false});
  const auto busy = t.total_busy_per_target();
  EXPECT_EQ(busy[0], 15);
  EXPECT_EQ(busy[1], 4);
}

TEST(Trace, TargetHasCritical) {
  trace t(2, 1, 100);
  t.add({0, 0, 0, 10, true});
  t.add({1, 0, 0, 10, false});
  EXPECT_TRUE(t.target_has_critical(0));
  EXPECT_FALSE(t.target_has_critical(1));
}

TEST(Trace, SaveLoadRoundTrip) {
  trace t(3, 2, 500);
  t.add({0, 1, 10, 20, false});
  t.add({2, 0, 30, 45, true});
  std::stringstream buffer;
  t.save(buffer);
  const auto loaded = trace::load(buffer);
  EXPECT_EQ(loaded.num_targets(), 3);
  EXPECT_EQ(loaded.num_initiators(), 2);
  EXPECT_EQ(loaded.horizon(), 500);
  ASSERT_EQ(loaded.events().size(), 2u);
  EXPECT_EQ(loaded.events()[1].target, 2);
  EXPECT_EQ(loaded.events()[1].begin, 30);
  EXPECT_TRUE(loaded.events()[1].critical);
  EXPECT_FALSE(loaded.events()[0].critical);
}

TEST(Trace, LoadRejectsGarbage) {
  std::stringstream buffer("not a trace at all");
  EXPECT_THROW(trace::load(buffer), invalid_argument_error);
}

TEST(Trace, LoadRejectsTruncated) {
  trace t(1, 1, 100);
  t.add({0, 0, 0, 10, false});
  std::stringstream buffer;
  t.save(buffer);
  std::string text = buffer.str();
  text.resize(text.size() / 2);
  std::stringstream half(text);
  EXPECT_THROW(trace::load(half), invalid_argument_error);
}

TEST(Trace, TextFormatIsPinned) {
  trace t(3, 2, 500);
  t.add({0, 1, 10, 20, false});
  t.add({2, 0, 30, 45, true});
  t.add({1, 1, 0, 5, false});
  const std::string expected =
      "stxtrace v1 targets=3 initiators=2 horizon=500 events=3\n"
      "0 1 10 20 0\n"
      "2 0 30 45 1\n"
      "1 1 0 5 0\n";
  std::string text;
  t.append_text(text);
  EXPECT_EQ(text, expected);
  std::ostringstream out;
  t.save(out);
  EXPECT_EQ(out.str(), expected);
  std::size_t pos = 0;
  EXPECT_EQ(trace::parse_text(expected, pos), t);
  EXPECT_EQ(pos, expected.size() - 1);  // stops after the last field
}

TEST(Trace, PhaseOneTraceBlobsRoundTripExactly) {
  for (const auto& name : workloads::app_names()) {
    SCOPED_TRACE(name);
    xbar::flow_options opts;
    opts.horizon = 4'000;
    const auto traces =
        xbar::collect_traces(*workloads::make_app_by_name(name), opts);
    ASSERT_FALSE(traces.request.empty());
    const auto blob = explore::encode_traces(traces);
    const auto back = explore::decode_traces(blob);
    EXPECT_EQ(back.request, traces.request);
    EXPECT_EQ(back.response, traces.response);
    EXPECT_EQ(back.full, traces.full);  // doubles included, bit for bit
    EXPECT_EQ(explore::encode_traces(back), blob);
  }
}

TEST(Trace, MalformedBlobsAreRejected) {
  xbar::collected_traces traces;
  traces.request = trace(2, 2, 100);
  traces.request.add({0, 1, 10, 20, false});
  traces.request.add({1, 0, 30, 45, true});
  traces.response = trace(2, 2, 100);
  traces.response.add({1, 1, 5, 9, false});
  const auto blob = explore::encode_traces(traces);
  ASSERT_EQ(explore::decode_traces(blob).response, traces.response);

  // Truncated inside the last event: "1 1 5" of "1 1 5 9 0".
  EXPECT_THROW(explore::decode_traces(blob.substr(0, blob.size() - 5)),
               invalid_argument_error);
  // A non-numeric field.
  auto garbled = blob;
  garbled.replace(garbled.find("30 45"), 2, "3x");
  EXPECT_THROW(explore::decode_traces(garbled), invalid_argument_error);
  // More events announced than the blob holds.
  auto short_count = blob;
  short_count.replace(short_count.rfind("events=1"), 8, "events=4");
  EXPECT_THROW(explore::decode_traces(short_count), invalid_argument_error);
  // A huge announced count is read as a bound, never allocated up front.
  auto huge_count = blob;
  huge_count.replace(huge_count.rfind("events=1"), 8,
                     "events=9000000000000000000");
  EXPECT_THROW(explore::decode_traces(huge_count), invalid_argument_error);
}

TEST(Trace, BusyIntervalsRejectsBadTarget) {
  trace t(1, 1, 10);
  EXPECT_THROW(t.busy_intervals(3), invalid_argument_error);
}

}  // namespace
}  // namespace stx::traffic
