// The single-bus model, observed through sim::session on minimal systems:
// occupancy (overhead + cells), serialisation, arbitration waits, FIFO
// order within a port and saturation. The request trace records each
// packet's occupancy [grant, last cell) of its bus.
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

/// Shared buses both ways with the given overhead, no compute jitter,
/// and a service latency long enough that no reply interferes unless a
/// test wants it.
system_config shared_config(int cores, int targets, cycle_t overhead,
                            cycle_t service_latency = 1'000) {
  system_config cfg;
  cfg.request = crossbar_config::shared(targets);
  cfg.response = crossbar_config::shared(cores);
  cfg.request.transfer_overhead = overhead;
  cfg.response.transfer_overhead = overhead;
  cfg.target.service_latency = service_latency;
  cfg.core.compute_jitter = 0.0;
  return cfg;
}

TEST(Bus, SinglePacketLatencyIsOverheadPlusCells) {
  session s({{write_op(0, 4)}}, 1, shared_config(1, 1, /*overhead=*/2));
  s.run(20);
  const auto& events = s.request_trace().events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].begin, 0);  // granted at cycle 0
  EXPECT_EQ(events[0].end, 6);    // 2 overhead + 4 cells
  EXPECT_EQ(s.metrics().packets, 1);
  EXPECT_DOUBLE_EQ(s.metrics().max_latency, 6.0);
}

TEST(Bus, ZeroOverheadSingleCell) {
  session s({{write_op(0, 1)}}, 1, shared_config(1, 1, 0));
  s.run(3);
  const auto& events = s.request_trace().events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].end - events[0].begin, 1);
}

TEST(Bus, SerialisesCompetingPackets) {
  session s({{write_op(0, 3)}, {write_op(0, 3)}}, 1, shared_config(2, 1, 1));
  s.run(30);
  const auto& events = s.request_trace().events();
  ASSERT_EQ(events.size(), 2u);
  // First transfer occupies [0,4), second [4,8): no overlap, no gap.
  EXPECT_EQ(events[0].end, 4);
  EXPECT_EQ(events[1].begin, 4);
  EXPECT_EQ(events[1].end, 8);
}

TEST(Bus, BacklogDrainsInGrantOrder) {
  // Three ports back up behind one bus; the backlog drains one transfer
  // at a time, round robin from port 0, leaving the bus idle.
  session s({{write_op(0, 10)}, {write_op(0, 10)}, {write_op(0, 10)}}, 1,
            shared_config(3, 1, 0));
  s.run(40);
  const auto& events = s.request_trace().events();
  ASSERT_EQ(events.size(), 3u);
  for (int k = 0; k < 3; ++k) {
    EXPECT_EQ(events[static_cast<std::size_t>(k)].initiator, k);
    EXPECT_EQ(events[static_cast<std::size_t>(k)].begin, 10 * k);
    EXPECT_EQ(events[static_cast<std::size_t>(k)].end, 10 * (k + 1));
  }
}

TEST(Bus, LatePacketWaitsForArbitration) {
  session s({{write_op(0, 4)}, {compute_op(3), write_op(0, 2)}}, 1,
            shared_config(2, 1, 2));
  s.run(20);
  const auto& events = s.request_trace().events();
  ASSERT_EQ(events.size(), 2u);
  // First ends at 6; the second, queued at 3, is granted at 6, ends at 10.
  EXPECT_EQ(events[0].end, 6);
  EXPECT_EQ(events[1].begin, 6);
  EXPECT_EQ(events[1].end, 10);
  EXPECT_DOUBLE_EQ(s.metrics().max_latency, 7.0);  // 10 - 3
}

TEST(Bus, DeliveryOrderWithinPortIsFifo) {
  // Three cores read from one target. Its replies queue at one port of
  // the shared response bus while the first (10 cells) transfers; they
  // leave in the order they were queued.
  const auto cfg = shared_config(3, 1, 2, /*service_latency=*/0);
  session s({{read_op(0, 10)}, {read_op(0, 10)}, {read_op(0, 10)}}, 1, cfg);
  s.run(39);
  const auto& requests = s.request_trace().events();
  const auto& replies = s.response_trace().events();
  ASSERT_GE(requests.size(), 3u);
  ASSERT_EQ(replies.size(), 3u);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(replies[k].target, requests[k].initiator);
    EXPECT_EQ(replies[k].begin, k == 0 ? requests[0].end : replies[k - 1].end);
  }
  EXPECT_EQ(replies[2].end, 39);
}

TEST(Bus, RejectsPacketsItCannotCarry) {
  const auto cfg = shared_config(1, 2, 0);
  EXPECT_THROW(session({{write_op(0, 0)}}, 2, cfg), invalid_argument_error);
  EXPECT_THROW(session({{read_op(0, 0)}}, 2, cfg), invalid_argument_error);
  EXPECT_THROW(session({{write_op(5, 1)}}, 2, cfg), invalid_argument_error);
}

TEST(Bus, UtilisationIsFullUnderSaturation) {
  // Ten ports each queue one 4-cell packet at cycle 0: 10 packets x 5
  // cycles each keep the bus busy for all 50 cycles.
  std::vector<std::vector<core_op>> progs(10, {write_op(0, 4)});
  session s(progs, 1, shared_config(10, 1, 1));
  s.run(50);
  const auto& tr = s.request_trace();
  ASSERT_EQ(tr.events().size(), 10u);
  EXPECT_EQ(tr.total_busy_per_target()[0], 50);
  EXPECT_EQ(tr.events().back().end, 50);
}

}  // namespace
}  // namespace stx::sim
