// Property tests: simulator invariants on randomly generated systems,
// observed through sim::session traces and metrics.
#include <gtest/gtest.h>

#include <algorithm>

#include "sim/session.h"
#include "util/random.h"

namespace stx::sim {
namespace {

/// Random small closed-loop system: 2-5 cores, 2-5 targets, random
/// programs of reads/writes/computes.
struct random_system_spec {
  std::vector<std::vector<core_op>> programs;
  int num_targets = 0;
};

random_system_spec make_random_spec(rng& r) {
  random_system_spec spec;
  const int cores = static_cast<int>(r.uniform_int(2, 5));
  spec.num_targets = static_cast<int>(r.uniform_int(2, 5));
  for (int c = 0; c < cores; ++c) {
    std::vector<core_op> prog;
    const int ops = static_cast<int>(r.uniform_int(1, 6));
    for (int o = 0; o < ops; ++o) {
      core_op op;
      const int kind = static_cast<int>(r.uniform_int(0, 2));
      if (kind == 0) {
        op.op = core_op::kind::compute;
        op.cycles = r.uniform_int(0, 60);
      } else {
        op.op = kind == 1 ? core_op::kind::read : core_op::kind::write;
        op.target = static_cast<int>(
            r.uniform_int(0, spec.num_targets - 1));
        op.cells = static_cast<int>(r.uniform_int(1, 24));
        op.critical = r.chance(0.1);
      }
      prog.push_back(op);
    }
    // Ensure at least one transfer so the system generates traffic.
    bool has_transfer = false;
    for (const auto& op : prog) {
      has_transfer |= op.op != core_op::kind::compute;
    }
    if (!has_transfer) {
      core_op op;
      op.op = core_op::kind::read;
      op.target = 0;
      op.cells = 4;
      prog.push_back(op);
    }
    spec.programs.push_back(std::move(prog));
  }
  return spec;
}

crossbar_config random_partial(rng& r, int endpoints) {
  const int buses = static_cast<int>(r.uniform_int(1, endpoints));
  std::vector<int> binding;
  for (int e = 0; e < endpoints; ++e) {
    binding.push_back(static_cast<int>(r.uniform_int(0, buses - 1)));
  }
  return crossbar_config::partial(buses, binding);
}

class SimRandom : public ::testing::TestWithParam<int> {};

TEST_P(SimRandom, InvariantsHoldOnRandomConfigurations) {
  rng r(static_cast<std::uint64_t>(GetParam()) * 48271 + 13);
  const auto spec = make_random_spec(r);
  system_config cfg;
  cfg.request = random_partial(r, spec.num_targets);
  cfg.response =
      random_partial(r, static_cast<int>(spec.programs.size()));
  cfg.seed = static_cast<std::uint64_t>(GetParam());
  session sys(spec.programs, spec.num_targets, cfg);
  const cycle_t horizon = 4000;
  sys.run(horizon);
  const auto& requests = sys.request_trace();
  const auto& responses = sys.response_trace();
  const auto transactions = sys.metrics().transactions;

  // 1. Requests delivered >= responses delivered >= completed txns.
  const auto req = static_cast<std::int64_t>(requests.events().size());
  const auto resp = static_cast<std::int64_t>(responses.events().size());
  EXPECT_GE(req, resp) << "seed " << GetParam();
  EXPECT_GE(resp, transactions) << "seed " << GetParam();
  EXPECT_EQ(req + resp, sys.metrics().packets) << "seed " << GetParam();
  // At most one outstanding transaction per core.
  EXPECT_LE(req - transactions,
            static_cast<std::int64_t>(spec.programs.size()) * 2)
      << "seed " << GetParam();

  // 2. Every packet occupies its bus for at least overhead + 1 cell, and
  // its latency (queueing included) is at least that occupancy.
  for (const auto* tr : {&requests, &responses}) {
    for (const auto& e : tr->events()) {
      EXPECT_GE(e.end - e.begin, cfg.request.transfer_overhead + 1)
          << "seed " << GetParam();
    }
  }
  if (sys.metrics().packets > 0) {
    EXPECT_GE(sys.metrics().avg_latency,
              static_cast<double>(cfg.request.transfer_overhead + 1))
        << "seed " << GetParam();
  }

  // 3. Bus busy cycles never exceed elapsed time: a bus's transfers are
  // disjoint, so their occupancies sum to at most the horizon.
  std::vector<cycle_t> bus_busy(
      static_cast<std::size_t>(cfg.request.num_buses), 0);
  for (const auto& e : requests.events()) {
    bus_busy[static_cast<std::size_t>(
        cfg.request.binding[static_cast<std::size_t>(e.target)])] +=
        e.end - e.begin;
  }
  for (const cycle_t busy : bus_busy) {
    EXPECT_LE(busy, horizon) << "seed " << GetParam();
  }

  // 4. Trace events lie within the horizon and reference valid ids.
  for (const auto& e : requests.events()) {
    EXPECT_GE(e.begin, 0);
    EXPECT_LT(e.begin, e.end);
    EXPECT_LE(e.end, sys.now());
    EXPECT_GE(e.target, 0);
    EXPECT_LT(e.target, spec.num_targets);
  }

  // 5. Per-target busy time never exceeds the horizon (a target receives
  // from exactly one bus).
  for (const cycle_t busy : requests.total_busy_per_target()) {
    EXPECT_LE(busy, horizon) << "seed " << GetParam();
  }
}

TEST_P(SimRandom, FullCrossbarLatencyLowerBoundsPartial) {
  rng r(static_cast<std::uint64_t>(GetParam()) * 69621 + 101);
  const auto spec = make_random_spec(r);

  system_config full_cfg;
  full_cfg.request = crossbar_config::full(spec.num_targets);
  full_cfg.response =
      crossbar_config::full(static_cast<int>(spec.programs.size()));
  full_cfg.seed = 7;
  session full(spec.programs, spec.num_targets, full_cfg);
  full.run(4000);

  system_config shared_cfg = full_cfg;
  shared_cfg.request = crossbar_config::shared(spec.num_targets);
  shared_cfg.response =
      crossbar_config::shared(static_cast<int>(spec.programs.size()));
  session shared(spec.programs, spec.num_targets, shared_cfg);
  shared.run(4000);

  if (full.metrics().packets > 100 && shared.metrics().packets > 100) {
    // The shared bus can never beat the full crossbar on mean latency
    // (same workload, strictly fewer resources). Tiny tolerance for
    // closed-loop scheduling noise.
    EXPECT_GE(shared.metrics().avg_latency,
              full.metrics().avg_latency * 0.98)
        << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimRandom, ::testing::Range(0, 30));

}  // namespace
}  // namespace stx::sim
