// Crossbar configuration, and routing observed through sim::session on
// minimal systems: binding-driven bus choice, parallel vs shared buses,
// latency statistics with the critical split, per-bus utilisation.
#include "sim/session.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/error.h"

namespace stx::sim {
namespace {

TEST(CrossbarConfig, SharedFactory) {
  const auto cfg = crossbar_config::shared(5);
  EXPECT_EQ(cfg.num_buses, 1);
  ASSERT_EQ(cfg.binding.size(), 5u);
  for (int b : cfg.binding) EXPECT_EQ(b, 0);
  cfg.validate(5);
}

TEST(CrossbarConfig, FullFactory) {
  const auto cfg = crossbar_config::full(4);
  EXPECT_EQ(cfg.num_buses, 4);
  for (int e = 0; e < 4; ++e) EXPECT_EQ(cfg.binding[static_cast<std::size_t>(e)], e);
  cfg.validate(4);
}

TEST(CrossbarConfig, PartialFactoryAndValidation) {
  const auto cfg = crossbar_config::partial(2, {0, 0, 1, 1});
  cfg.validate(4);
  EXPECT_THROW(cfg.validate(3), invalid_argument_error);  // size mismatch
  auto bad = crossbar_config::partial(2, {0, 0, 5, 1});
  EXPECT_THROW(bad.validate(4), invalid_argument_error);  // unknown bus
  auto none = crossbar_config::partial(0, {});
  EXPECT_THROW(none.validate(0), invalid_argument_error);  // no buses
}

TEST(CrossbarConfig, ToStringNamesShapes) {
  EXPECT_NE(crossbar_config::shared(3).to_string().find("shared"),
            std::string::npos);
  EXPECT_NE(crossbar_config::full(3).to_string().find("full"),
            std::string::npos);
  EXPECT_NE(crossbar_config::partial(2, {0, 1, 1}).to_string().find("partial"),
            std::string::npos);
}

core_op write_op(int target, int cells) {
  core_op op;
  op.op = core_op::kind::write;
  op.target = target;
  op.cells = cells;
  return op;
}

/// `request` as the request crossbar, a full response crossbar, zero
/// overheads unless overridden, and replies held back past every horizon
/// used here so only request-side packets move.
system_config config(crossbar_config request, int cores,
                     cycle_t overhead = 0) {
  system_config cfg;
  cfg.request = std::move(request);
  cfg.request.transfer_overhead = overhead;
  cfg.response = crossbar_config::full(cores);
  cfg.target.service_latency = 1'000;
  cfg.core.compute_jitter = 0.0;
  return cfg;
}

TEST(Crossbar, RoutesByBinding) {
  // Target 0 on bus 0, targets 1 and 2 on bus 1: the two writes ride
  // different buses and so run in parallel.
  session s({{write_op(0, 1)}, {write_op(2, 1)}}, 3,
            config(crossbar_config::partial(2, {0, 1, 1}), 2));
  s.run(5);
  const auto& events = s.request_trace().events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].begin, 0);
  EXPECT_EQ(events[1].begin, 0);
  EXPECT_EQ(s.metrics().packets, 2);

  // Targets 1 and 2 share bus 1: those writes serialise.
  session shared_bus({{write_op(1, 1)}, {write_op(2, 1)}}, 3,
                     config(crossbar_config::partial(2, {0, 1, 1}), 2));
  shared_bus.run(5);
  ASSERT_EQ(shared_bus.request_trace().events().size(), 2u);
  EXPECT_EQ(shared_bus.request_trace().events()[1].begin, 1);
}

TEST(Crossbar, ParallelBusesDoNotSerialise) {
  session s({{write_op(0, 4)}, {write_op(1, 4)}}, 2,
            config(crossbar_config::full(2), 2));
  s.run(10);
  ASSERT_EQ(s.request_trace().events().size(), 2u);
  for (const auto& e : s.request_trace().events()) {
    EXPECT_EQ(e.end, 4);  // both finish together on separate buses
  }
}

TEST(Crossbar, SharedBusSerialises) {
  session s({{write_op(0, 4)}, {write_op(1, 4)}}, 2,
            config(crossbar_config::shared(2), 2));
  s.run(10);
  const auto& events = s.request_trace().events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].end, 4);
  EXPECT_EQ(events[1].end, 8);
}

TEST(Crossbar, LatencyStatsAndCriticalSplit) {
  auto critical = write_op(0, 2);
  critical.critical = true;
  session s({{write_op(0, 2)}, {critical}}, 1,
            config(crossbar_config::shared(1), 2, /*overhead=*/1));
  s.run(10);
  const auto& m = s.metrics();
  EXPECT_EQ(m.packets, 2);
  // First packet: 3 cycles; the second waits 3 then takes 3 = 6.
  EXPECT_DOUBLE_EQ(m.avg_latency, 4.5);
  EXPECT_DOUBLE_EQ(m.max_latency, 6.0);
  // Only the second packet is critical.
  EXPECT_DOUBLE_EQ(m.avg_critical, 6.0);
  EXPECT_DOUBLE_EQ(m.max_critical, 6.0);
}

TEST(Crossbar, UtilizationPerBus) {
  session s({{write_op(0, 5)}}, 2, config(crossbar_config::full(2), 1));
  s.run(10);
  const auto busy = s.request_trace().total_busy_per_target();
  ASSERT_EQ(busy.size(), 2u);
  EXPECT_EQ(busy[0], 5);  // half of the 10 cycles
  EXPECT_EQ(busy[1], 0);
  EXPECT_EQ(s.request_trace().horizon(), 10);
}

TEST(Crossbar, SessionRejectsMalformedConfigs) {
  auto cfg = config(crossbar_config::shared(2), 1);
  EXPECT_THROW(session({{write_op(9, 1)}}, 2, cfg), invalid_argument_error);
  cfg.request = crossbar_config::partial(2, {0, 5});
  EXPECT_THROW(session({{write_op(0, 1)}}, 2, cfg), invalid_argument_error);
  cfg.request = crossbar_config::shared(3);  // binding size != targets
  EXPECT_THROW(session({{write_op(0, 1)}}, 2, cfg), invalid_argument_error);
}

}  // namespace
}  // namespace stx::sim
