// Integration tests for the full MPSoC system simulator, through
// sim::session.
#include "sim/session.h"

#include <gtest/gtest.h>

#include <cstdlib>

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

system_config two_by_two_config() {
  system_config cfg;
  cfg.request = crossbar_config::full(2);
  cfg.response = crossbar_config::full(2);
  cfg.core.compute_jitter = 0.0;
  return cfg;
}

TEST(System, SingleReadRoundTrip) {
  session s({{read_op(0, 4)}, {compute_op(1000)}}, 2, two_by_two_config());
  s.run(100);
  EXPECT_GE(s.metrics().transactions, 1);
  // Round trip: request (2+1) + service 4 + response (2+4) = 13, from the
  // request's issue to the last cell of its data.
  ASSERT_FALSE(s.response_trace().empty());
  EXPECT_EQ(s.request_trace().events()[0].begin, 0);
  EXPECT_EQ(s.response_trace().events()[0].end, 13);
}

TEST(System, ConservationRequestsEqualResponses) {
  session s({{read_op(0, 4), write_op(1, 8)}, {write_op(1, 2), read_op(0, 2)}},
            2, two_by_two_config());
  s.run(2000);
  // Every delivered request produced exactly one delivered response;
  // in-flight work at the horizon accounts for at most the difference.
  const auto req =
      static_cast<std::int64_t>(s.request_trace().events().size());
  const auto resp =
      static_cast<std::int64_t>(s.response_trace().events().size());
  EXPECT_GE(req, resp);
  EXPECT_LE(req - resp, 2);  // at most one outstanding per core
  EXPECT_EQ(s.metrics().packets, req + resp);
  // Each completed transaction consumed one request and one response.
  EXPECT_LE(s.metrics().transactions, resp);
}

TEST(System, DeterministicForSameSeed) {
  auto cfg = two_by_two_config();
  cfg.seed = 42;
  cfg.core.compute_jitter = 0.2;
  const std::vector<std::vector<core_op>> progs = {
      {compute_op(10), read_op(0, 4)}, {compute_op(5), write_op(1, 6)}};
  session a(progs, 2, cfg);
  session b(progs, 2, cfg);
  a.run(5000);
  b.run(5000);
  EXPECT_TRUE(a.metrics() == b.metrics());
  EXPECT_TRUE(a.request_trace() == b.request_trace());
  EXPECT_TRUE(a.response_trace() == b.response_trace());
}

TEST(System, DifferentSeedsDiverge) {
  system_config cfg;
  cfg.request = crossbar_config::full(2);
  cfg.response = crossbar_config::full(1);
  cfg.core.compute_jitter = 0.3;
  const std::vector<std::vector<core_op>> progs = {
      {compute_op(50), read_op(0, 4)}};
  cfg.seed = 1;
  session a(progs, 2, cfg);
  cfg.seed = 2;
  session b(progs, 2, cfg);
  a.run(20000);
  b.run(20000);
  // Jittered compute spans shift the traffic; traces should differ.
  ASSERT_FALSE(a.request_trace().events().empty());
  EXPECT_FALSE(a.request_trace() == b.request_trace());
}

TEST(System, SharedBusSlowerThanFullCrossbar) {
  std::vector<std::vector<core_op>> progs;
  for (int i = 0; i < 4; ++i) {
    progs.push_back({read_op(i, 12), compute_op(5)});
  }
  system_config full_cfg;
  full_cfg.request = crossbar_config::full(4);
  full_cfg.response = crossbar_config::full(4);
  full_cfg.core.compute_jitter = 0.0;
  session full(progs, 4, full_cfg);
  full.run(20000);

  system_config shared_cfg = full_cfg;
  shared_cfg.request = crossbar_config::shared(4);
  shared_cfg.response = crossbar_config::shared(4);
  session shared(progs, 4, shared_cfg);
  shared.run(20000);

  EXPECT_GT(shared.metrics().avg_latency, full.metrics().avg_latency);
  EXPECT_GT(full.metrics().iterations, shared.metrics().iterations);
}

TEST(System, TraceEventsMatchDeliveredPackets) {
  session s({{read_op(0, 4)}, {write_op(1, 4)}}, 2, two_by_two_config());
  s.run(3000);
  EXPECT_EQ(static_cast<std::int64_t>(s.request_trace().events().size() +
                                      s.response_trace().events().size()),
            s.metrics().packets);
  EXPECT_EQ(s.request_trace().horizon(), s.now());
  EXPECT_EQ(s.response_trace().horizon(), s.now());
}

TEST(System, PerTargetTraceIntervalsAreDisjoint) {
  // A target's receive intervals come from a single bus, so merging them
  // must not lose cycles: total busy == sum of event lengths.
  session s({{read_op(0, 3), write_op(0, 5)}, {write_op(1, 7), read_op(1, 2)}},
            2, two_by_two_config());
  s.run(4000);
  const auto& tr = s.request_trace();
  for (int t = 0; t < tr.num_targets(); ++t) {
    cycle_t event_sum = 0;
    for (const auto& e : tr.events()) {
      if (e.target == t) event_sum += e.end - e.begin;
    }
    EXPECT_EQ(tr.total_busy_per_target()[static_cast<std::size_t>(t)],
              event_sum);
  }
}

TEST(System, BarrierSynchronisesCores) {
  // Core 0 computes 10, core 1 computes 200; both barrier each iteration,
  // then read a marker target of their own (0 and 1). Iteration counts —
  // marker reads — can differ by at most one despite the asymmetry.
  std::vector<std::vector<core_op>> progs = {
      {compute_op(10), barrier_op(2, 0, 2), read_op(0, 1)},
      {compute_op(200), barrier_op(2, 0, 2), read_op(1, 1)}};
  system_config cfg;
  cfg.request = crossbar_config::full(3);
  cfg.response = crossbar_config::full(2);
  cfg.core.compute_jitter = 0.0;
  session s(progs, 3, cfg);
  s.run(30000);
  std::int64_t markers[2] = {0, 0};
  for (const auto& e : s.request_trace().events()) {
    if (e.target < 2) ++markers[e.target];
  }
  EXPECT_GT(markers[0], 10);
  EXPECT_LE(std::abs(markers[0] - markers[1]), 1);
  EXPECT_LE(std::abs(s.metrics().iterations - markers[0] - markers[1]), 2);
}

TEST(System, RecordTracesOffKeepsTracesEmpty) {
  auto cfg = two_by_two_config();
  cfg.record_traces = false;
  session s({{read_op(0, 4)}, {write_op(1, 4)}}, 2, cfg);
  s.run(1000);
  EXPECT_TRUE(s.request_trace().empty());
  EXPECT_TRUE(s.response_trace().empty());
  EXPECT_EQ(s.request_trace().horizon(), 1000);
  EXPECT_GT(s.metrics().transactions, 0);
}

TEST(System, RunIsResumable) {
  system_config cfg;
  cfg.request = crossbar_config::full(1);
  cfg.response = crossbar_config::full(1);
  session s({{read_op(0, 4)}}, 1, cfg);
  s.run(100);
  const auto t1 = s.metrics().transactions;
  s.run(200);
  EXPECT_GT(s.metrics().transactions, t1);
  EXPECT_THROW(s.run(50), invalid_argument_error);  // backwards
}

TEST(System, ValidatesConstruction) {
  system_config cfg = two_by_two_config();
  EXPECT_THROW(session({}, 2, cfg), invalid_argument_error);
  EXPECT_THROW(session({{read_op(5, 1)}}, 2, cfg), invalid_argument_error);
  EXPECT_THROW(session({{read_op(0, 1)}}, 0, cfg), invalid_argument_error);
}

}  // namespace
}  // namespace stx::sim
