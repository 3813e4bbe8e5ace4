// sim::batch basics: construction rules, per-instance trace recording,
// resumability and instance independence.
#include "sim/batch.h"

#include <gtest/gtest.h>

#include "util/error.h"
#include "workloads/mpsoc_apps.h"

namespace stx::sim {
namespace {

system_config full_config(const workloads::app_spec& app,
                          std::uint64_t seed) {
  system_config cfg;
  cfg.request = crossbar_config::full(app.num_targets);
  cfg.response = crossbar_config::full(app.num_initiators);
  cfg.record_traces = false;
  cfg.seed = seed;
  return cfg;
}

TEST(Batch, RecordsTracesPerInstance) {
  // Only the instance that asks for traces records them; every
  // instance's traces are extended to the horizon.
  const auto app = *workloads::make_app_by_name("qsort");
  auto batch = workloads::make_batch(app);
  auto recording = full_config(app, 1);
  recording.record_traces = true;
  batch.add_instance(full_config(app, 1));
  batch.add_instance(recording);
  batch.run(8'000);

  EXPECT_TRUE(batch.request_trace(0).empty());
  EXPECT_TRUE(batch.response_trace(0).empty());
  EXPECT_EQ(batch.request_trace(0).horizon(), 8'000);
  EXPECT_EQ(batch.request_trace(0).num_targets(), app.num_targets);
  EXPECT_EQ(batch.response_trace(0).num_targets(), app.num_initiators);

  const auto& req = batch.request_trace(1);
  const auto& resp = batch.response_trace(1);
  EXPECT_EQ(req.horizon(), 8'000);
  EXPECT_EQ(static_cast<std::int64_t>(req.events().size() +
                                      resp.events().size()),
            batch.metrics(1).packets);
  // Recording only appends to the traces: the metrics are unchanged.
  EXPECT_TRUE(batch.metrics(0) == batch.metrics(1));
}

TEST(Batch, ValidatesCrossbarShapes) {
  const auto app = *workloads::make_app_by_name("qsort");
  auto batch = workloads::make_batch(app);
  auto cfg = full_config(app, 1);
  cfg.request.binding.push_back(0);  // one endpoint too many
  EXPECT_THROW(batch.add_instance(cfg), invalid_argument_error);
}

TEST(Batch, RefusesInstancesAfterTheFirstRun) {
  const auto app = *workloads::make_app_by_name("qsort");
  auto batch = workloads::make_batch(app);
  batch.add_instance(full_config(app, 1));
  batch.run(1'000);
  EXPECT_THROW(batch.add_instance(full_config(app, 2)),
               invalid_argument_error);
}

TEST(Batch, SegmentedRunsMatchOneLongRun) {
  const auto app = *workloads::make_app_by_name("mat1");
  auto cfg = full_config(app, 7);
  cfg.record_traces = true;
  auto one = workloads::make_batch(app);
  one.add_instance(cfg);
  one.run(20'000);

  auto segmented = workloads::make_batch(app);
  segmented.add_instance(cfg);
  segmented.run(4'000);
  segmented.run(9'000);
  segmented.run(20'000);

  EXPECT_TRUE(one.metrics(0) == segmented.metrics(0));
  EXPECT_TRUE(one.request_trace(0) == segmented.request_trace(0));
  EXPECT_TRUE(one.response_trace(0) == segmented.response_trace(0));
  EXPECT_EQ(segmented.now(), 20'000);
}

TEST(Batch, MixedInstancesDoNotInterfere) {
  // One batch holding different seeds and shapes must reproduce the
  // exact metrics, traces and kernel counters of each instance simulated
  // alone.
  const auto app = *workloads::make_app_by_name("qsort");
  auto cfg_a = full_config(app, 11);
  cfg_a.record_traces = true;
  auto cfg_b = full_config(app, 12);
  cfg_b.request = crossbar_config::shared(app.num_targets);
  auto cfg_c = full_config(app, 13);
  cfg_c.request.policy = arbitration::least_recently_granted;
  cfg_c.response.policy = arbitration::fixed_priority;
  cfg_c.record_traces = true;

  auto mixed = workloads::make_batch(app);
  mixed.add_instance(cfg_a);
  mixed.add_instance(cfg_b);
  mixed.add_instance(cfg_c);
  mixed.run(12'000);

  int b = 0;
  for (const auto& cfg : {cfg_a, cfg_b, cfg_c}) {
    auto solo = workloads::make_batch(app);
    solo.add_instance(cfg);
    solo.run(12'000);
    EXPECT_TRUE(mixed.metrics(b) == solo.metrics(0)) << "instance " << b;
    EXPECT_TRUE(mixed.request_trace(b) == solo.request_trace(0))
        << "instance " << b;
    EXPECT_TRUE(mixed.response_trace(b) == solo.response_trace(0))
        << "instance " << b;
    const auto& ms = mixed.instance_stats(b);
    const auto& ss = solo.instance_stats(0);
    EXPECT_EQ(ms.events_processed, ss.events_processed) << "instance " << b;
    EXPECT_EQ(ms.events_skipped, ss.events_skipped) << "instance " << b;
    EXPECT_EQ(ms.cycles_visited, ss.cycles_visited) << "instance " << b;
    ++b;
  }
}

TEST(Batch, InstanceIndexOutOfRangeThrows) {
  const auto app = *workloads::make_app_by_name("qsort");
  auto batch = workloads::make_batch(app);
  batch.add_instance(full_config(app, 1));
  batch.run(100);
  EXPECT_THROW(batch.metrics(1), invalid_argument_error);
  EXPECT_THROW(batch.request_trace(-1), invalid_argument_error);
  EXPECT_THROW(batch.instance_stats(1), invalid_argument_error);
}

}  // namespace
}  // namespace stx::sim
