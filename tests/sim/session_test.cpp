// sim::session: the unified build-run-harvest API, a batch of one.
#include "sim/session.h"

#include <gtest/gtest.h>

#include "workloads/mpsoc_apps.h"

namespace stx::sim {
namespace {

core_op read_op(int target, int cells) {
  core_op op;
  op.op = core_op::kind::read;
  op.target = target;
  op.cells = cells;
  return op;
}

TEST(Session, EqualsItsInstanceInAnyBatch) {
  // A session is a batch of one, and batch instances are independent:
  // the same config simulated among other instances reports the same
  // traces, metrics and kernel counters.
  const auto app = *workloads::make_app_by_name("qsort");
  system_config cfg;
  cfg.seed = 5;
  auto s = workloads::make_full_crossbar_session(app, cfg);
  s.run(20'000);

  auto kernel = workloads::make_batch(app);
  system_config other = cfg;
  other.seed = 6;
  other.request = crossbar_config::shared(app.num_targets);
  other.response = crossbar_config::shared(app.num_initiators);
  kernel.add_instance(other);
  const int b = kernel.add_instance(workloads::make_system_config(
      app, crossbar_config::full(app.num_targets),
      crossbar_config::full(app.num_initiators), cfg));
  kernel.run(20'000);

  EXPECT_TRUE(kernel.metrics(b) == s.metrics());
  EXPECT_TRUE(kernel.request_trace(b) == s.request_trace());
  EXPECT_TRUE(kernel.response_trace(b) == s.response_trace());
  EXPECT_EQ(kernel.instance_stats(b).events_processed,
            s.stats().events_processed);
  EXPECT_EQ(s.metrics().total_buses, app.total_cores());
  EXPECT_EQ(s.metrics().packets,
            static_cast<std::int64_t>(s.request_trace().events().size() +
                                      s.response_trace().events().size()));
}

TEST(Session, MetricsAreCachedUntilTheNextRun) {
  system_config cfg;
  cfg.request = crossbar_config::full(1);
  cfg.response = crossbar_config::full(1);
  session s({{read_op(0, 4)}}, 1, cfg);
  s.run(500);
  const auto* first = &s.metrics();
  // Repeated queries return the identical cached object (no re-scan).
  EXPECT_EQ(first, &s.metrics());
  const auto snapshot = *first;
  s.run(1000);
  // Invalidation: a longer run re-harvests and sees more work.
  EXPECT_GT(s.metrics().transactions, snapshot.transactions);
  EXPECT_EQ(s.now(), 1000);
}

TEST(Session, RunsOnTheEventKernel) {
  const auto app = *workloads::make_app_by_name("mat2");
  auto evt = workloads::make_full_crossbar_session(app, {});
  evt.run(10'000);
  EXPECT_GT(evt.stats().events_processed, 0);
  EXPECT_GT(evt.metrics().transactions, 0);
}

TEST(Session, CriticalMetricsFlowThrough) {
  const auto app = *workloads::make_app_by_name("mat2-critical");
  auto session = workloads::make_full_crossbar_session(app, {});
  session.run(20'000);
  const auto& m = session.metrics();
  EXPECT_GT(m.packets, 0);
  EXPECT_GT(m.avg_critical, 0.0);
  EXPECT_GE(m.max_critical, m.avg_critical);
}

}  // namespace
}  // namespace stx::sim
