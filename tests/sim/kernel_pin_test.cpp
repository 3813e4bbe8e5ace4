// Pins what the simulation kernel produces, so a change to its calendar
// or drain cannot move a trace, a metric or a work counter unnoticed. Each
// run is folded into one FNV-1a digest over both traces' events, every
// run_metrics field (doubles by bit pattern) and the engine_stats
// counters; the expected digests were computed before the calendar was
// last rewritten and must never be regenerated to make a change pass.
//
// Besides every built-in app under every arbitration policy, three shapes
// stress the calendar: a mixed cohort spanning several 64-component
// words, compute ops and barrier polls 64+ cycles long (wakes that go
// through the overflow heap and get superseded and re-armed), and runs
// split into segments.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "sim/batch.h"
#include "workloads/mpsoc_apps.h"

namespace stx::sim {
namespace {

class fnv1a {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add(int v) { add(static_cast<std::int64_t>(v)); }
  void add(bool v) { add(static_cast<std::uint64_t>(v)); }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Digest of everything instance `b` of `k` exposes at its horizon.
std::uint64_t digest(const batch& k, int b) {
  fnv1a h;
  for (const auto* t : {&k.request_trace(b), &k.response_trace(b)}) {
    h.add(t->num_targets());
    h.add(t->num_initiators());
    h.add(t->horizon());
    h.add(static_cast<std::uint64_t>(t->events().size()));
    for (const auto& e : t->events()) {
      h.add(e.target);
      h.add(e.initiator);
      h.add(e.begin);
      h.add(e.end);
      h.add(e.critical);
    }
  }
  const auto& m = k.metrics(b);
  h.add(m.avg_latency);
  h.add(m.max_latency);
  h.add(m.p99_latency);
  h.add(m.avg_critical);
  h.add(m.max_critical);
  h.add(m.packets);
  h.add(m.transactions);
  h.add(m.iterations);
  h.add(m.total_buses);
  const auto& s = k.instance_stats(b);
  h.add(s.events_processed);
  h.add(s.events_skipped);
  h.add(s.cycles_visited);
  return h.value();
}

std::string hex(std::uint64_t v) {
  static constexpr char digits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (auto i = out.size(); i-- > 0; v >>= 4) out[i] = digits[v & 0xf];
  return out;
}

system_config full_config(const workloads::app_spec& app, arbitration policy,
                          std::uint64_t seed) {
  system_config cfg;
  cfg.request = crossbar_config::full(app.num_targets);
  cfg.response = crossbar_config::full(app.num_initiators);
  cfg.request.policy = policy;
  cfg.response.policy = policy;
  cfg.seed = seed;
  return cfg;
}

constexpr arbitration policies[] = {arbitration::fixed_priority,
                                    arbitration::round_robin,
                                    arbitration::least_recently_granted};

TEST(KernelPin, EveryAppUnderEveryPolicy) {
  // [app in app_names() order][policy in `policies` order].
  const std::vector<std::vector<std::string>> expected = {
      {"7c51a14d6e598705", "4c6b16ae1d9cebf5",
       "36071ceb86b64544"},  // mat1
      {"4d23ae3d6f31b98a", "863ef36be77f228b",
       "585e2d623c54eb4d"},  // mat2
      {"3e1ba63ec9d0fa51", "54c7f8ba397e6a50",
       "23af3c7e4d8daa56"},  // mat2-critical
      {"6f2a11ea6330ae61", "cf7bc1647b639fac",
       "65cf525ede4a0541"},  // fft
      {"c8561f705fed06eb", "af1e4ebb098c4254",
       "8802893874f3de46"},  // qsort
      {"9352ce3801b23201", "9352ce3801b23201",
       "9352ce3801b23201"},  // des
      {"366698c4dc75524e", "2901e979798b0b09",
       "2901e979798b0b09"},  // synthetic
  };
  const auto& names = workloads::app_names();
  ASSERT_EQ(names.size(), expected.size());
  for (std::size_t a = 0; a < names.size(); ++a) {
    const auto app = *workloads::make_app_by_name(names[a]);
    for (std::size_t p = 0; p < std::size(policies); ++p) {
      auto k = workloads::make_batch(app);
      k.add_instance(full_config(app, policies[p], 5));
      k.run(30'000);
      EXPECT_EQ(hex(digest(k, 0)), expected[a][p])
          << names[a] << " under " << to_string(policies[p]);
    }
  }
}

TEST(KernelPin, MixedCohortSpanningSeveralWords) {
  // Four FFT instances of different shapes: 58 + 44 + 38 + 58 = 198 flat
  // components, so the calendar's per-cycle sets span four 64-bit words
  // and instances straddle the word boundaries.
  const auto app = *workloads::make_app_by_name("fft");
  auto full_rr = full_config(app, arbitration::round_robin, 21);
  auto shared_fixed = full_config(app, arbitration::fixed_priority, 22);
  shared_fixed.request = crossbar_config::shared(app.num_targets);
  shared_fixed.request.policy = arbitration::fixed_priority;
  shared_fixed.record_traces = false;
  auto partial_lrg =
      full_config(app, arbitration::least_recently_granted, 23);
  {
    std::vector<int> req(static_cast<std::size_t>(app.num_targets));
    std::vector<int> resp(static_cast<std::size_t>(app.num_initiators));
    for (std::size_t t = 0; t < req.size(); ++t) {
      req[t] = static_cast<int>(t % 5);
    }
    for (std::size_t i = 0; i < resp.size(); ++i) {
      resp[i] = static_cast<int>(i % 4);
    }
    partial_lrg.request = crossbar_config::partial(5, req);
    partial_lrg.response = crossbar_config::partial(4, resp);
    partial_lrg.request.policy = arbitration::least_recently_granted;
    partial_lrg.response.policy = arbitration::least_recently_granted;
  }
  auto full_overhead = full_config(app, arbitration::round_robin, 24);
  full_overhead.request.transfer_overhead = 5;
  full_overhead.response.transfer_overhead = 0;
  full_overhead.keep_latency_samples = false;

  const std::vector<system_config> cohort = {full_rr, shared_fixed,
                                             partial_lrg, full_overhead};
  auto mixed = workloads::make_batch(app);
  for (const auto& cfg : cohort) mixed.add_instance(cfg);
  mixed.run(25'000);

  const std::vector<std::string> expected = {
      "b0801d4b3456cff4", "782dec6f1ff5e43f", "a545f1f89f9765a9",
      "12946129d431d158"};
  for (int b = 0; b < mixed.size(); ++b) {
    EXPECT_EQ(hex(digest(mixed, b)), expected[static_cast<std::size_t>(b)])
        << "instance " << b;
    auto solo = workloads::make_batch(app);
    solo.add_instance(cohort[static_cast<std::size_t>(b)]);
    solo.run(25'000);
    EXPECT_EQ(digest(solo, 0), digest(mixed, b)) << "instance " << b;
  }
}

/// Six cores whose compute ops and barrier polls run 64 to ~1000 cycles,
/// so their wakes are scheduled past the calendar ring into the overflow
/// heap, and whose barrier arrivals re-wake every core early, superseding
/// those far wakes before they are re-armed.
workloads::app_spec long_compute_app() {
  workloads::app_spec app;
  app.name = "long-compute";
  app.num_initiators = 6;
  app.num_targets = 5;  // four memories + one semaphore
  for (int i = 0; i < app.num_initiators; ++i) {
    std::vector<core_op> prog;
    const auto compute = [&](cycle_t cycles) {
      core_op op;
      op.op = core_op::kind::compute;
      op.cycles = cycles;
      prog.push_back(op);
    };
    const auto transfer = [&](core_op::kind kind, int target, int cells) {
      core_op op;
      op.op = kind;
      op.target = target;
      op.cells = cells;
      op.critical = i == 0;
      prog.push_back(op);
    };
    const auto barrier = [&](int id) {
      core_op op;
      op.op = core_op::kind::barrier;
      op.target = 4;
      op.barrier_id = id;
      op.group_size = app.num_initiators;
      prog.push_back(op);
    };
    compute(64 + 37 * i);
    transfer(core_op::kind::read, i % 4, 4);
    compute(300 + 50 * i);
    transfer(core_op::kind::write, (i + 1) % 4, 2);
    barrier(0);
    compute(i % 2 == 0 ? 1000 : 70);
    transfer(core_op::kind::read, 3, 8);
    compute(63);
    barrier(1);
    app.programs.push_back(std::move(prog));
  }
  app.loop_starts.assign(static_cast<std::size_t>(app.num_initiators), 0);
  app.loop_starts[1] = 1;  // core 1's first compute is a one-off prologue
  return app;
}

system_config long_compute_config(std::uint64_t seed) {
  system_config cfg;
  cfg.request = crossbar_config::partial(2, {0, 0, 1, 1, 1});
  cfg.response = crossbar_config::shared(6);
  cfg.core.barrier_poll_interval = 100;
  cfg.seed = seed;
  return cfg;
}

TEST(KernelPin, LongComputeOpsThroughTheOverflowHeap) {
  const auto app = long_compute_app();
  auto k = workloads::make_batch(app);
  k.add_instance(long_compute_config(31));
  k.add_instance(long_compute_config(32));
  k.run(40'000);
  // The shape must actually supersede wakes, or it pins nothing.
  EXPECT_GT(k.instance_stats(0).events_skipped, 0);
  EXPECT_EQ(hex(digest(k, 0)), "b550bd6c74b64ad8");
  EXPECT_EQ(hex(digest(k, 1)), "59b68a07a90d1d4d");
}

TEST(KernelPin, SegmentedRuns) {
  // Segment ends drop pending wakes and the next segment re-seeds every
  // component, so a segmented run does more kernel work than one long
  // run (its engine_stats differ) while its traces and metrics match.
  const std::vector<cycle_t> horizons = {1'000, 1'001, 1'064, 5'000, 20'000};
  {
    const auto app = *workloads::make_app_by_name("mat2");
    auto k = workloads::make_batch(app);
    k.add_instance(full_config(app, arbitration::round_robin, 41));
    for (const auto h : horizons) k.run(h);
    EXPECT_EQ(hex(digest(k, 0)), "4f47573952369e1e");
  }
  {
    const auto app = long_compute_app();
    auto k = workloads::make_batch(app);
    k.add_instance(long_compute_config(42));
    for (const auto h : horizons) k.run(h);
    EXPECT_EQ(hex(digest(k, 0)), "efbfe3f7030db9d4");
  }
}

}  // namespace
}  // namespace stx::sim
