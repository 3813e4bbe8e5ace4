// The memory target model, observed through sim::session on minimal
// systems: reply sizes and routing, service latency, serial service and
// critical-flag propagation. Full crossbars with zero overhead, so a
// packet's trace event spans exactly its cells.
#include "sim/session.h"

#include <gtest/gtest.h>

#include <vector>

namespace stx::sim {
namespace {

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

system_config config(int cores, int targets, cycle_t service_latency) {
  system_config cfg;
  cfg.request = crossbar_config::full(targets);
  cfg.response = crossbar_config::full(cores);
  cfg.request.transfer_overhead = 0;
  cfg.response.transfer_overhead = 0;
  cfg.target.service_latency = service_latency;
  cfg.core.compute_jitter = 0.0;
  return cfg;
}

TEST(Target, ReadProducesResponseOfRequestedSize) {
  // Core 1 reads 16 cells from target 3.
  session s({{read_op(0, 1)}, {read_op(3, 16)}}, 4, config(2, 4, 4));
  s.run(40);
  bool seen = false;
  for (const auto& e : s.response_trace().events()) {
    if (e.initiator != 3) continue;  // response trace: initiator = target
    seen = true;
    EXPECT_EQ(e.target, 1);          // routed back to the requester
    EXPECT_EQ(e.end - e.begin, 16);
  }
  EXPECT_TRUE(seen);
}

TEST(Target, WriteProducesSingleCellAck) {
  session s({{read_op(1, 1)}, {read_op(1, 1)}, {write_op(0, 16)}}, 2,
            config(3, 2, 4));
  s.run(40);
  bool seen = false;
  for (const auto& e : s.response_trace().events()) {
    if (e.initiator != 0) continue;
    seen = true;
    EXPECT_EQ(e.target, 2);
    EXPECT_EQ(e.end - e.begin, 1);
  }
  EXPECT_TRUE(seen);
}

TEST(Target, ServiceLatencyDelaysReply) {
  session s({{read_op(0, 4)}}, 1, config(1, 1, 6));
  s.run(30);
  ASSERT_GE(s.request_trace().events().size(), 1u);
  ASSERT_GE(s.response_trace().events().size(), 1u);
  // Request lands at 1; the reply leaves at arrival 1 + service 6.
  EXPECT_EQ(s.request_trace().events()[0].end, 1);
  EXPECT_EQ(s.response_trace().events()[0].begin, 7);
}

TEST(Target, RequestsAreServedSerially) {
  // Two cores read target 0 at cycle 0; the request bus lands them at 1
  // and 2. Service is serial: the second reply waits for the first
  // job's 5 cycles, not just its own arrival.
  session s({{read_op(0, 2)}, {read_op(0, 2)}}, 1, config(2, 1, 5));
  s.run(13);
  const auto& replies = s.response_trace().events();
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].target, 0);
  EXPECT_EQ(replies[0].begin, 6);   // arrival 1 + 5
  EXPECT_EQ(replies[1].target, 1);
  EXPECT_EQ(replies[1].begin, 11);  // first job done at 6, + 5
}

TEST(Target, CriticalFlagPropagatesToReply) {
  auto critical = read_op(0, 2);
  critical.critical = true;
  session s({{critical}}, 1, config(1, 1, 1));
  s.run(10);
  ASSERT_GE(s.response_trace().events().size(), 1u);
  EXPECT_TRUE(s.request_trace().events()[0].critical);
  EXPECT_TRUE(s.response_trace().events()[0].critical);
  EXPECT_GT(s.metrics().avg_critical, 0.0);
}

TEST(Target, ZeroServiceLatency) {
  session s({{read_op(0, 2)}}, 1, config(1, 1, 0));
  s.run(10);
  ASSERT_GE(s.response_trace().events().size(), 1u);
  EXPECT_EQ(s.response_trace().events()[0].begin,
            s.request_trace().events()[0].end);
}

}  // namespace
}  // namespace stx::sim
