// The program-driven core model, observed through sim::session on
// minimal systems: blocking reads/writes, request and reply sizes,
// compute timing, loop prologues, construction checks and barriers.
#include "sim/session.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/error.h"

namespace stx::sim {
namespace {

core_op compute_op(cycle_t cycles) {
  core_op op;
  op.op = core_op::kind::compute;
  op.cycles = cycles;
  return op;
}

core_op read_op(int target, int cells) {
  core_op op;
  op.op = core_op::kind::read;
  op.target = target;
  op.cells = cells;
  return op;
}

core_op write_op(int target, int cells) {
  core_op op;
  op.op = core_op::kind::write;
  op.target = target;
  op.cells = cells;
  return op;
}

core_op barrier_op(int target, int id, int group) {
  core_op op;
  op.op = core_op::kind::barrier;
  op.target = target;
  op.barrier_id = id;
  op.group_size = group;
  return op;
}

/// Full crossbars, default overheads (2) and service latency (4), no
/// compute jitter.
system_config no_jitter_config(int cores, int targets) {
  system_config cfg;
  cfg.request = crossbar_config::full(targets);
  cfg.response = crossbar_config::full(cores);
  cfg.core.compute_jitter = 0.0;
  return cfg;
}

TEST(Core, ReadBlocksUntilResponse) {
  session s({{read_op(2, 8)}}, 3, no_jitter_config(1, 3));
  s.run(200);
  const auto& requests = s.request_trace().events();
  const auto& replies = s.response_trace().events();
  ASSERT_GE(replies.size(), 3u);
  EXPECT_EQ(requests[0].begin, 0);
  EXPECT_EQ(requests[0].target, 2);
  EXPECT_EQ(requests[0].end - requests[0].begin, 2 + 1);  // address beat
  EXPECT_EQ(replies[0].end - replies[0].begin, 2 + 8);    // read data
  // One request in flight at a time: the program loops, and each read
  // issues the cycle its predecessor's data has fully arrived.
  for (std::size_t k = 0; k + 1 < requests.size(); ++k) {
    EXPECT_EQ(requests[k + 1].begin, replies[k].end) << "read " << k;
  }
  EXPECT_EQ(s.metrics().transactions,
            static_cast<std::int64_t>(replies.size()));
  EXPECT_EQ(s.metrics().iterations, s.metrics().transactions);
}

TEST(Core, WriteCarriesPayloadAndAwaitsAck) {
  session s({{write_op(1, 16)}}, 2, no_jitter_config(1, 2));
  s.run(60);
  const auto& requests = s.request_trace().events();
  const auto& replies = s.response_trace().events();
  ASSERT_GE(replies.size(), 1u);
  EXPECT_EQ(requests[0].target, 1);
  EXPECT_EQ(requests[0].end - requests[0].begin, 2 + 16);  // payload
  EXPECT_EQ(replies[0].end - replies[0].begin, 2 + 1);     // 1-cell ack
  EXPECT_EQ(requests[1].begin, replies[0].end);
}

TEST(Core, ComputeConsumesExactCyclesWithoutJitter) {
  session s({{compute_op(5), read_op(0, 1)}}, 1, no_jitter_config(1, 1));
  s.run(10);
  ASSERT_EQ(s.request_trace().events().size(), 1u);
  EXPECT_EQ(s.request_trace().events()[0].begin, 5);  // compute [0,5)
}

TEST(Core, ZeroComputeTakesOneCycle) {
  session s({{compute_op(0), read_op(0, 1)}}, 1, no_jitter_config(1, 1));
  s.run(5);
  ASSERT_EQ(s.request_trace().events().size(), 1u);
  EXPECT_EQ(s.request_trace().events()[0].begin, 1);  // op slot costs a cycle
}

TEST(Core, LoopStartSkipsPrologue) {
  // Prologue: long compute. Body: read. After the first iteration the
  // prologue must not run again.
  session s({{compute_op(50), read_op(0, 1)}}, 1, no_jitter_config(1, 1),
            /*loop_starts=*/{1});
  s.run(200);
  const auto& requests = s.request_trace().events();
  const auto& replies = s.response_trace().events();
  ASSERT_GE(requests.size(), 2u);
  EXPECT_EQ(requests[0].begin, 50);
  // The second read follows the response directly, not another 50-cycle
  // prologue.
  EXPECT_EQ(requests[1].begin, replies[0].end);
  EXPECT_LT(requests[1].begin, 70);
}

TEST(Core, RejectsEmptyProgramAndBadOps) {
  const auto cfg = no_jitter_config(1, 1);
  EXPECT_THROW(session({{}}, 1, cfg), invalid_argument_error);
  EXPECT_THROW(session({}, 1, cfg), invalid_argument_error);
  EXPECT_THROW(session({{barrier_op(0, 0, 0)}}, 1, cfg),
               invalid_argument_error);
  EXPECT_THROW(session({{read_op(0, 0)}}, 1, cfg), invalid_argument_error);
  EXPECT_THROW(session({{read_op(0, 1)}}, 1, cfg, /*loop_starts=*/{5}),
               invalid_argument_error);
}

TEST(Core, BarrierOpensAtGroupSize) {
  // Core 0 computes 10 cycles per iteration, core 1 200; both meet at a
  // two-core barrier on target 2, then each reads its own marker target.
  // Core 1 arrives last every time, so it passes at once and its only
  // target-2 traffic is one arrival write per iteration; core 0 spins
  // (polls target 2) until that arrival lands.
  const std::vector<std::vector<core_op>> progs = {
      {compute_op(10), barrier_op(2, 0, 2), read_op(0, 1)},
      {compute_op(200), barrier_op(2, 0, 2), read_op(1, 1)}};
  system_config cfg = no_jitter_config(2, 3);
  session s(progs, 3, cfg);
  s.run(5'000);
  std::vector<cycle_t> marker0;
  std::vector<cycle_t> arrival1;
  std::int64_t polls0 = 0;
  for (const auto& e : s.request_trace().events()) {
    if (e.target == 0) marker0.push_back(e.begin);
    if (e.target == 2 && e.initiator == 1) arrival1.push_back(e.end);
    if (e.target == 2 && e.initiator == 0) ++polls0;
  }
  ASSERT_GE(marker0.size(), 10u);
  ASSERT_GE(arrival1.size(), marker0.size());
  for (std::size_t k = 0; k < marker0.size(); ++k) {
    // Epoch k opens only with core 1's k-th arrival, and core 0 sees it
    // within one poll interval plus a poll round trip.
    EXPECT_GT(marker0[k], arrival1[k]) << "iteration " << k;
    EXPECT_LT(marker0[k], arrival1[k] + cfg.core.barrier_poll_interval + 20)
        << "iteration " << k;
  }
  EXPECT_GT(polls0, static_cast<std::int64_t>(marker0.size()));

  // A barrier of one opens on its own arrival: core 0 no longer waits.
  const std::vector<std::vector<core_op>> solo = {
      {compute_op(10), barrier_op(2, 0, 1), read_op(0, 1)},
      {compute_op(200), barrier_op(2, 1, 1), read_op(1, 1)}};
  session free_running(solo, 3, cfg);
  free_running.run(5'000);
  std::int64_t free_markers = 0;
  for (const auto& e : free_running.request_trace().events()) {
    free_markers += e.target == 0 ? 1 : 0;
  }
  EXPECT_GT(free_markers, 4 * static_cast<std::int64_t>(marker0.size()));
}

}  // namespace
}  // namespace stx::sim
