// Trace-cache hit behaviour: phase 1 simulates exactly once per
// (app, settings) key, under serial and concurrent access, and the one
// cached entry also carries that run's full-crossbar reference.
#include "explore/trace_cache.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "explore/codec.h"
#include "workloads/synthetic.h"

namespace stx::explore {
namespace {

workloads::app_spec small_app() {
  workloads::synthetic_params params;
  params.num_cores = 8;
  return workloads::make_synthetic(params);
}

xbar::flow_options fast_options() {
  xbar::flow_options opts;
  opts.horizon = 8'000;
  return opts;
}

TEST(TraceCache, SecondRequestHitsAndSharesTheEntry) {
  trace_cache cache;
  const auto app = small_app();
  const auto opts = fast_options();
  const auto a = cache.traces(app, opts);
  const auto b = cache.traces(app, opts);
  EXPECT_EQ(a.get(), b.get());  // literally the same trace object
  EXPECT_GT(a->full.avg_latency, 0.0);  // the reference rides along
  const auto stats = cache.stats();
  EXPECT_EQ(stats.trace_misses, 1);
  EXPECT_EQ(stats.trace_hits, 1);
}

TEST(TraceCache, KeyCoversEverythingPhase1DependsOn) {
  trace_cache cache;
  const auto app = small_app();
  auto opts = fast_options();
  (void)cache.traces(app, opts);

  // Synthesis knobs do NOT key the cache: same trace serves every point.
  auto synth_only = opts;
  synth_only.synth.params.window_size = 999;
  synth_only.synth.params.overlap_threshold = 0.05;
  (void)cache.traces(app, synth_only);
  EXPECT_EQ(cache.stats().trace_misses, 1);

  // Simulator settings DO key it.
  auto other_seed = opts;
  other_seed.seed = 2;
  (void)cache.traces(app, other_seed);
  auto other_policy = opts;
  other_policy.policy = sim::arbitration::fixed_priority;
  (void)cache.traces(app, other_policy);
  auto other_horizon = opts;
  other_horizon.horizon = 4'000;
  (void)cache.traces(app, other_horizon);
  EXPECT_EQ(cache.stats().trace_misses, 4);
}

TEST(TraceCache, ConcurrentRequestersSimulateExactlyOnce) {
  trace_cache cache;
  const auto app = small_app();
  const auto opts = fast_options();
  std::vector<std::shared_ptr<const xbar::collected_traces>> got(8);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < got.size(); ++i) {
    threads.emplace_back(
        [&, i] { got[i] = cache.traces(app, opts); });
  }
  for (auto& t : threads) t.join();
  const auto stats = cache.stats();
  EXPECT_EQ(stats.trace_misses, 1);
  EXPECT_EQ(stats.trace_hits, static_cast<std::int64_t>(got.size()) - 1);
  for (const auto& p : got) {
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p.get(), got[0].get());
  }
}

TEST(TraceCache, SimulatedEntryCarriesTheFullReference) {
  const auto store = std::make_shared<memory_store>();
  trace_cache cache(store);
  const auto app = small_app();
  const auto opts = fast_options();
  (void)cache.traces(app, opts);
  const auto reference = xbar::validate_full_crossbars(app, opts);
  // Written through in the one trace-key entry, like the traces...
  const auto blob = store->get(trace_key(app.name, opts));
  ASSERT_TRUE(blob.has_value());
  EXPECT_EQ(decode_traces(*blob).full, reference);
  EXPECT_EQ(store->stats().puts, 1);
  // ...and served from memory without a second simulation.
  EXPECT_EQ(cache.traces(app, opts)->full, reference);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.trace_misses, 1);
  EXPECT_EQ(stats.trace_hits, 1);
  EXPECT_EQ(stats.trace_store_hits, 0);
}

TEST(TraceCache, StoreLoadedEntryCarriesTheFullReference) {
  const auto store = std::make_shared<memory_store>();
  const auto app = small_app();
  const auto opts = fast_options();
  (void)trace_cache(store).traces(app, opts);
  // A second cache loads the entry from the store: nothing simulated,
  // and the reference comes back with the traces.
  trace_cache warm(store);
  EXPECT_EQ(warm.traces(app, opts)->full,
            xbar::validate_full_crossbars(app, opts));
  const auto stats = warm.stats();
  EXPECT_EQ(stats.trace_store_hits, 1);
  EXPECT_EQ(stats.trace_misses, 0);
}

}  // namespace
}  // namespace stx::explore
