// Event-kernel edge cases, driven through sim::session: zero-length
// horizons, events at horizon-1, re-arming components that already hold
// a wake, idle spans skipped wholesale (up to 2^42-cycle horizons), shape
// limits of the calendar's packed component ids, and counters that
// accumulate across segments.
#include <gtest/gtest.h>

#include <vector>

#include "sim/session.h"
#include "util/error.h"

namespace stx::sim {
namespace {

core_op read_op(int target, int cells) {
  core_op op;
  op.op = core_op::kind::read;
  op.target = target;
  op.cells = cells;
  return op;
}

core_op compute_op(cycle_t cycles) {
  core_op op;
  op.op = core_op::kind::compute;
  op.cycles = cycles;
  return op;
}

system_config event_config(int n) {
  system_config cfg;
  cfg.request = crossbar_config::full(n);
  cfg.response = crossbar_config::full(n);
  cfg.core.compute_jitter = 0.0;
  return cfg;
}

TEST(EventKernel, ZeroLengthHorizonIsANoOp) {
  session s({{read_op(0, 4)}}, 1, event_config(1));
  s.run(0);
  EXPECT_EQ(s.now(), 0);
  EXPECT_EQ(s.metrics().transactions, 0);
  EXPECT_EQ(s.stats().events_processed, 0);
  // Re-running to the same horizon is also a no-op.
  s.run(50);
  const auto t = s.metrics().transactions;
  const auto processed = s.stats().events_processed;
  s.run(50);
  EXPECT_EQ(s.metrics().transactions, t);
  EXPECT_EQ(s.stats().events_processed, processed);
}

TEST(EventKernel, EventsAtHorizonMinusOneAreProcessed) {
  // A 1-cell read with zero overheads round-trips quickly; run once to
  // the full horizon and once stopping at EVERY intermediate cycle: a
  // horizon-edge bug (events at h-1 dropped or double-run) would make
  // the segmented run diverge from the single-shot run.
  auto cfg = event_config(2);
  cfg.request.transfer_overhead = 0;
  cfg.response.transfer_overhead = 0;
  cfg.target.service_latency = 0;
  const std::vector<std::vector<core_op>> progs = {{read_op(0, 1)},
                                                   {read_op(1, 1)}};
  session whole(progs, 2, cfg);
  whole.run(100);
  session evt(progs, 2, cfg);
  for (cycle_t h = 1; h <= 100; ++h) evt.run(h);  // every split point
  EXPECT_GT(whole.metrics().transactions, 0);
  EXPECT_TRUE(whole.metrics() == evt.metrics());
  EXPECT_TRUE(whole.request_trace() == evt.request_trace());
  EXPECT_TRUE(whole.response_trace() == evt.response_trace());
}

TEST(EventKernel, ReArmingAQueuedComponentStepsItOncePerCycle) {
  // Two cores hammering the same target produce overlapping wake causes
  // (self re-arm + enqueue wakes + completion wakes) for the shared bus;
  // core 1's requests land while core 0's transfer holds the bus, so an
  // enqueue wake supersedes the bus's pending completion wake. The
  // kernel must drop the superseded wakes, not double-step the
  // component. Double-stepping would also desynchronise segmented runs,
  // so compare against a run split every 50 cycles.
  system_config cfg;
  cfg.request = crossbar_config::shared(1);
  cfg.response = crossbar_config::shared(2);
  cfg.core.compute_jitter = 0.0;
  const std::vector<std::vector<core_op>> progs = {
      {read_op(0, 2)}, {compute_op(1), read_op(0, 3)}};
  session evt(progs, 1, cfg);
  evt.run(2000);
  EXPECT_GT(evt.stats().events_skipped, 0);
  EXPECT_GT(evt.metrics().transactions, 0);

  session split(progs, 1, cfg);
  for (cycle_t h = 50; h <= 2000; h += 50) split.run(h);
  EXPECT_TRUE(split.metrics() == evt.metrics());
  EXPECT_TRUE(split.request_trace() == evt.request_trace());
  EXPECT_TRUE(split.response_trace() == evt.response_trace());
}

TEST(EventKernel, IdleSpansAreActuallySkipped) {
  // 10k compute cycles between tiny transfers: the kernel must visit far
  // fewer cycles than the horizon.
  session s({{compute_op(10'000), read_op(0, 1)}}, 1, event_config(1));
  s.run(100'000);
  EXPECT_GT(s.metrics().transactions, 5);
  EXPECT_LT(s.stats().cycles_visited, 2'000);
}

TEST(EventKernel, IdleSpansCostEventsNotCycles) {
  // One core computing 2^40 cycles between one-cell reads, run to 2^42:
  // the frontier jumps each idle span, so this finishes in a handful of
  // events. Reads issue at 2^40, 2*2^40 + 10 and 3*2^40 + 20 (a read
  // round trip is 10 cycles: 3 request + 4 service + 3 reply).
  constexpr cycle_t span = cycle_t{1} << 40;
  session s({{compute_op(span), read_op(0, 1)}}, 1, event_config(1));
  s.run(4 * span);
  EXPECT_EQ(s.now(), 4 * span);
  EXPECT_EQ(s.metrics().transactions, 3);
  ASSERT_EQ(s.request_trace().events().size(), 3u);
  EXPECT_EQ(s.request_trace().events()[2].begin, 3 * span + 20);
  EXPECT_EQ(s.request_trace().horizon(), 4 * span);
  EXPECT_LT(s.stats().events_processed, 100);
}

TEST(EventKernel, RejectsSystemsWhoseWakesCannotBePacked) {
  // The calendar packs component ids into 16 bits: 2^16 targets (and so
  // 2^16 buses on a full request crossbar, and 2^16 response-bus ports)
  // fit and run; one more is refused at construction.
  constexpr int limit = 1 << 16;
  system_config wide;
  wide.request = crossbar_config::full(limit);
  wide.response = crossbar_config::full(1);
  wide.record_traces = false;
  session s({{read_op(limit - 1, 1)}}, limit, wide);
  s.run(200);
  EXPECT_GT(s.metrics().transactions, 0);

  wide.request = crossbar_config::shared(limit + 1);
  EXPECT_THROW(session({{read_op(limit, 1)}}, limit + 1, wide),
               invalid_argument_error);
}

TEST(EventKernel, StatsAccumulateAcrossSegments) {
  session s({{read_op(0, 4)}}, 1, event_config(1));
  s.run(500);
  const auto first = s.stats().events_processed;
  EXPECT_GT(first, 0);
  s.run(1000);
  EXPECT_GT(s.stats().events_processed, first);
}

}  // namespace
}  // namespace stx::sim
