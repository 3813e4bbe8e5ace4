// Event-queue and event-kernel edge cases: deterministic ordering of
// simultaneous wakes, packed keys up to their field limits (and systems
// past them rejected), zero-length horizons, events at horizon-1, and
// re-arming components that are already queued.
#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/engine.h"
#include "sim/system.h"
#include "util/error.h"
#include "util/random.h"

namespace stx::sim {
namespace {

TEST(EventQueue, PopsInCycleMajorOrder) {
  event_queue q;
  q.push({30, phase_core, 0});
  q.push({10, phase_response_bus, 5});
  q.push({20, phase_target, 1});
  EXPECT_EQ(q.pop().cycle, 10);
  EXPECT_EQ(q.pop().cycle, 20);
  EXPECT_EQ(q.pop().cycle, 30);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SimultaneousWakesOrderByPhaseThenComponent) {
  // Same cycle: the polling loop's sweep order (cores, request buses,
  // targets, response buses), then component id as the stable tie-break.
  event_queue q;
  q.push({5, phase_target, 2});
  q.push({5, phase_core, 3});
  q.push({5, phase_core, 1});
  q.push({5, phase_response_bus, 0});
  q.push({5, phase_request_bus, 4});
  std::vector<event_key> popped;
  while (!q.empty()) popped.push_back(q.pop());
  ASSERT_EQ(popped.size(), 5u);
  EXPECT_EQ(popped[0], (event_key{5, phase_core, 1}));
  EXPECT_EQ(popped[1], (event_key{5, phase_core, 3}));
  EXPECT_EQ(popped[2], (event_key{5, phase_request_bus, 4}));
  EXPECT_EQ(popped[3], (event_key{5, phase_target, 2}));
  EXPECT_EQ(popped[4], (event_key{5, phase_response_bus, 0}));
}

TEST(EventQueue, RandomKeysAlwaysPopSorted) {
  rng r(99);
  event_queue q;
  std::vector<event_key> keys;
  for (int i = 0; i < 500; ++i) {
    event_key k{static_cast<cycle_t>(r.uniform_int(0, 50)),
                static_cast<int>(r.uniform_int(0, 3)),
                static_cast<int>(r.uniform_int(0, 7))};
    keys.push_back(k);
    q.push(k);
  }
  EXPECT_EQ(q.size(), keys.size());
  EXPECT_EQ(q.total_pushed(), 500);
  std::sort(keys.begin(), keys.end());
  for (const auto& expected : keys) EXPECT_EQ(q.pop(), expected);
}

TEST(EventQueue, PackedKeysPopInEventKeyOrderUpToTheFieldLimits) {
  // The heap orders packed 64-bit words; that must be event_key order
  // across the whole of every field, its largest values included.
  constexpr cycle_t max_cycle = event_queue::cycle_limit - 1;
  constexpr int max_component = event_queue::component_limit - 1;
  std::vector<event_key> keys = {{max_cycle, phase_response_bus, max_component},
                                 {max_cycle, phase_core, max_component},
                                 {max_cycle, phase_response_bus, 0},
                                 {0, phase_core, max_component},
                                 {0, phase_request_bus, 0},
                                 {0, phase_core, 0}};
  rng r(2024);
  for (int i = 0; i < 3000; ++i) {
    // Cycles bunched at both ends of the field (ties exercise phase and
    // component) or spread over all of it.
    cycle_t cycle = 0;
    switch (r.uniform_int(0, 2)) {
      case 0: cycle = r.uniform_int(0, 8); break;
      case 1: cycle = max_cycle - r.uniform_int(0, 8); break;
      default: cycle = r.uniform_int(0, max_cycle); break;
    }
    const int component = r.uniform_int(0, 1) == 0
                              ? static_cast<int>(r.uniform_int(0, 3))
                              : static_cast<int>(max_component -
                                                 r.uniform_int(0, 3));
    keys.push_back({cycle, static_cast<int>(r.uniform_int(0, 3)), component});
  }
  event_queue q;
  for (const auto& k : keys) {
    EXPECT_EQ(event_queue::unpack(event_queue::pack(k)), k);
    q.push(k);
  }
  std::sort(keys.begin(), keys.end());
  for (const auto& expected : keys) {
    EXPECT_EQ(q.top(), expected);
    ASSERT_EQ(q.pop(), expected);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, DuplicateKeysAreLegal) {
  event_queue q;
  q.push({7, phase_core, 0});
  q.push({7, phase_core, 0});
  EXPECT_EQ(q.pop(), q.pop());
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, AccessorsThrowOnEmpty) {
  event_queue q;
  EXPECT_THROW(q.top(), invalid_argument_error);
  EXPECT_THROW(q.pop(), invalid_argument_error);
}

// ---- Engine-level edge cases, driven through mpsoc_system.

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
  auto cfg = event_config(1);
  mpsoc_system sys({{read_op(0, 4)}}, 1, cfg);
  sys.run(0);
  EXPECT_EQ(sys.now(), 0);
  EXPECT_EQ(sys.total_transactions(), 0);
  EXPECT_EQ(sys.event_stats().events_processed, 0);
  // Re-running to the same horizon is also a no-op.
  sys.run(50);
  const auto t = sys.total_transactions();
  const auto processed = sys.event_stats().events_processed;
  sys.run(50);
  EXPECT_EQ(sys.total_transactions(), t);
  EXPECT_EQ(sys.event_stats().events_processed, processed);
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
  mpsoc_system whole(progs, 2, cfg);
  whole.run(100);
  mpsoc_system evt(progs, 2, cfg);
  for (cycle_t h = 1; h <= 100; ++h) evt.run(h);  // every split point
  EXPECT_GT(whole.total_transactions(), 0);
  EXPECT_EQ(whole.total_transactions(), evt.total_transactions());
  EXPECT_TRUE(whole.request_trace() == evt.request_trace());
  EXPECT_TRUE(whole.response_trace() == evt.response_trace());
  EXPECT_EQ(whole.packet_latency().count(), evt.packet_latency().count());
  EXPECT_DOUBLE_EQ(whole.packet_latency().sum(), evt.packet_latency().sum());
}

TEST(EventKernel, ReArmingAQueuedComponentStepsItOncePerCycle) {
  // Two cores hammering the same target produce overlapping wake causes
  // (self re-arm + enqueue wakes + completion wakes) for the shared bus:
  // the engine must drop the duplicates, not double-step the component.
  // Double-stepping would also desynchronise segmented runs, so compare
  // against a run split at every cycle.
  system_config cfg;
  cfg.request = crossbar_config::shared(1);
  cfg.response = crossbar_config::shared(2);
  cfg.core.compute_jitter = 0.0;
  const std::vector<std::vector<core_op>> progs = {{read_op(0, 2)},
                                                   {read_op(0, 3)}};
  mpsoc_system evt(progs, 1, cfg);
  evt.run(2000);
  EXPECT_GT(evt.event_stats().events_skipped, 0);
  EXPECT_GT(evt.total_transactions(), 0);

  mpsoc_system split(progs, 1, cfg);
  for (cycle_t h = 50; h <= 2000; h += 50) split.run(h);
  EXPECT_EQ(split.total_transactions(), evt.total_transactions());
  EXPECT_TRUE(split.request_trace() == evt.request_trace());
  EXPECT_DOUBLE_EQ(split.packet_latency().sum(), evt.packet_latency().sum());
}

TEST(EventKernel, IdleSpansAreActuallySkipped) {
  // 10k compute cycles between tiny transfers: the event kernel must
  // visit far fewer cycles than the horizon.
  auto cfg = event_config(1);
  mpsoc_system sys({{compute_op(10'000), read_op(0, 1)}}, 1, cfg);
  sys.run(100'000);
  EXPECT_GT(sys.total_transactions(), 5);
  EXPECT_LT(sys.event_stats().cycles_visited, 2'000);
}

TEST(EventKernel, RejectsSystemsWhoseWakesCannotBePacked) {
  // A horizon past the key's cycle field is refused before anything
  // runs; the largest one that fits runs (idle spans are skipped).
  auto cfg = event_config(1);
  mpsoc_system sys({{compute_op(event_queue::cycle_limit / 2), read_op(0, 1)}},
                   1, cfg);
  EXPECT_THROW(sys.run(event_queue::cycle_limit + 1), invalid_argument_error);
  EXPECT_EQ(sys.now(), 0);
  sys.run(event_queue::cycle_limit);
  EXPECT_EQ(sys.now(), event_queue::cycle_limit);
  EXPECT_EQ(sys.total_transactions(), 1);

  // A phase with more components than the key's component field holds
  // (here: targets) is refused as well; one fewer fits.
  for (const int targets : {event_queue::component_limit,
                            event_queue::component_limit + 1}) {
    system_config wide;
    wide.request = crossbar_config::shared(targets);
    wide.response = crossbar_config::full(1);
    wide.record_traces = false;
    mpsoc_system s({{read_op(targets - 1, 1)}}, targets, wide);
    if (targets <= event_queue::component_limit) {
      s.run(200);
      EXPECT_GT(s.total_transactions(), 0);
    } else {
      EXPECT_THROW(s.run(200), invalid_argument_error);
      EXPECT_EQ(s.now(), 0);
    }
  }
}

TEST(EventKernel, StatsAccumulateAcrossSegments) {
  auto cfg = event_config(1);
  mpsoc_system sys({{read_op(0, 4)}}, 1, cfg);
  sys.run(500);
  const auto first = sys.event_stats().events_processed;
  EXPECT_GT(first, 0);
  sys.run(1000);
  EXPECT_GT(sys.event_stats().events_processed, first);
}

}  // namespace
}  // namespace stx::sim
