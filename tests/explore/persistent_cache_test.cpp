// The persistent content-addressed store under the trace cache and the
// staged design flow: entries survive into fresh store/cache instances
// (the in-process stand-in for a second process), corrupted objects are
// misses that get rewritten — never crashes — and a warm whole-report
// hit is bit-identical to the cold computation without running the
// simulator or the solver.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "explore/cache_key.h"
#include "explore/codec.h"
#include "explore/disk_store.h"
#include "explore/sweep.h"
#include "explore/trace_cache.h"
#include "obs/obs.h"
#include "serve/service.h"
#include "util/failpoint.h"
#include "workloads/synthetic.h"

namespace stx::explore {
namespace {

namespace fs = std::filesystem;

/// A fresh per-test directory under the system temp root.
fs::path test_dir(const std::string& name) {
  const auto dir = fs::temp_directory_path() / ("stx-pcache-" + name);
  fs::remove_all(dir);
  return dir;
}

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

TEST(DiskStore, EntriesSurviveReopen) {
  const auto dir = test_dir("reopen");
  const auto key = trace_key("mat2", fast_options());
  {
    disk_store store(dir.string());
    EXPECT_EQ(store.get(key), std::nullopt);
    store.put(key, "persisted bytes");
    EXPECT_EQ(store.get(key).value(), "persisted bytes");
  }
  // A brand-new instance on the same directory — how a second process
  // sees the store — serves the entry.
  disk_store reopened(dir.string());
  EXPECT_TRUE(reopened.contains(key));
  EXPECT_EQ(reopened.get(key).value(), "persisted bytes");
  const auto stats = reopened.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 0);
  fs::remove_all(dir);
}

TEST(DiskStore, TruncatedObjectIsAMissAndIsRewritten) {
  const auto dir = test_dir("truncated");
  disk_store store(dir.string());
  const auto key = trace_key("mat2", fast_options());
  store.put(key, "a payload long enough to truncate meaningfully");
  const auto obj = dir / "objects" / (hash_hex(key) + ".stx");
  ASSERT_TRUE(fs::exists(obj));

  fs::resize_file(obj, fs::file_size(obj) / 2);
  EXPECT_EQ(store.get(key), std::nullopt);
  EXPECT_FALSE(store.contains(key));
  EXPECT_EQ(store.stats().corrupt, 1);

  // The recompute-and-put cycle heals the entry in place.
  store.put(key, "recomputed payload");
  EXPECT_EQ(store.get(key).value(), "recomputed payload");
  EXPECT_EQ(store.stats().corrupt, 1);  // no new corruption seen
  fs::remove_all(dir);
}

TEST(DiskStore, GarbageAndWrongKeyObjectsAreMisses) {
  const auto dir = test_dir("garbage");
  disk_store store(dir.string());
  const auto key = trace_key("fft", fast_options());
  const auto obj = dir / "objects" / (hash_hex(key) + ".stx");

  {
    std::ofstream out(obj, std::ios::binary);
    out << "not an stxstore envelope at all\n\x01\x02\x03";
  }
  EXPECT_EQ(store.get(key), std::nullopt);
  EXPECT_EQ(store.stats().corrupt, 1);

  // A well-formed envelope for a DIFFERENT key at this path (a hash
  // collision in effigy) must not be served as this key's value.
  store.put(key, "right");
  auto envelope = [&] {
    std::ifstream in(obj, std::ios::binary);
    std::string s((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
    return s;
  }();
  const auto other_line = encode(trace_key("other-app", fast_options()));
  const auto key_line = encode(key);
  envelope.replace(envelope.find(key_line), key_line.size(), other_line);
  {
    std::ofstream out(obj, std::ios::binary | std::ios::trunc);
    out << envelope;
  }
  EXPECT_EQ(store.get(key), std::nullopt);
  EXPECT_EQ(store.stats().corrupt, 2);
  fs::remove_all(dir);
}

TEST(DiskStore, OpenSweepsOrphanedStagingFiles) {
  const auto dir = test_dir("sweep");
  // Seed the store and plant tmp/ leftovers before reopening:
  //  * dead-writer: a staging file naming a pid that cannot exist,
  //  * ancient: a foreign-named file with an hour-old mtime,
  //  * live-writer: a fresh file naming THIS process (an in-flight put).
  const auto key = trace_key("mat2", fast_options());
  { disk_store store(dir.string()); store.put(key, "kept object"); }
  const auto tmp = dir / "tmp";
  const auto dead = tmp / "aaaa.999999999.0";  // > pid_max everywhere
  const auto ancient = tmp / "leftover-from-another-tool";
  const auto live =
      tmp / ("bbbb." + std::to_string(::getpid()) + ".7");
  for (const auto& p : {dead, ancient, live}) {
    std::ofstream(p, std::ios::binary) << "partial envelope";
  }
  fs::last_write_time(ancient,
                      fs::file_time_type::clock::now() - std::chrono::hours(2));

  disk_store reopened(dir.string());
  EXPECT_EQ(reopened.stats().tmp_swept, 2);
  EXPECT_FALSE(fs::exists(dead));     // writer pid provably dead
  EXPECT_FALSE(fs::exists(ancient));  // unparsable name, age-gated
  EXPECT_TRUE(fs::exists(live));      // never yank a live writer's file
  // The sweep touches only tmp/ — published objects are untouched.
  EXPECT_EQ(reopened.get(key).value(), "kept object");

  // A third open finds only the live-writer file, which stays again.
  disk_store again(dir.string());
  EXPECT_EQ(again.stats().tmp_swept, 0);
  EXPECT_TRUE(fs::exists(live));
  fs::remove_all(dir);
}

/// Sets a file's access time (and mtime) to `when` seconds before now —
/// the eviction clock under test.
void age_access_time(const fs::path& p, int hours_ago) {
  struct timespec times[2];
  const auto now = std::chrono::system_clock::now();
  const auto then = std::chrono::system_clock::to_time_t(
      now - std::chrono::hours(hours_ago));
  times[0].tv_sec = then;
  times[0].tv_nsec = 0;
  times[1] = times[0];
  ASSERT_EQ(::utimensat(AT_FDCWD, p.c_str(), times, 0), 0);
}

TEST(DiskStore, SizeCapEvictsOldestAccessedOnOpen) {
  const auto dir = test_dir("evict");
  const auto opts = fast_options();
  const cache_key keys[4] = {trace_key("app-a", opts), trace_key("app-b", opts),
                             trace_key("app-c", opts),
                             trace_key("app-d", opts)};
  {
    disk_store store(dir.string());
    for (const auto& k : keys) store.put(k, std::string(100, 'x'));
  }
  // Ages: app-a is the coldest entry, app-d the most recently read.
  std::uint64_t total = 0, oldest_two = 0;
  for (int i = 0; i < 4; ++i) {
    const auto obj = dir / "objects" / (hash_hex(keys[i]) + ".stx");
    ASSERT_TRUE(fs::exists(obj));
    age_access_time(obj, 8 - i);
    total += fs::file_size(obj);
    if (i < 2) oldest_two += fs::file_size(obj);
  }

  // A cap the two newest entries exactly fit: the open must drop the two
  // coldest and nothing else.
  disk_store capped(dir.string(), total - oldest_two);
  EXPECT_EQ(capped.stats().evicted, 2);
  EXPECT_FALSE(capped.contains(keys[0]));
  EXPECT_FALSE(capped.contains(keys[1]));
  EXPECT_EQ(capped.get(keys[2]).value(), std::string(100, 'x'));
  EXPECT_EQ(capped.get(keys[3]).value(), std::string(100, 'x'));

  // Zero cap = unlimited: reopening evicts nothing further.
  disk_store unlimited(dir.string());
  EXPECT_EQ(unlimited.stats().evicted, 0);
  EXPECT_TRUE(unlimited.contains(keys[2]));

  // A cap above the remaining total is a no-op too.
  disk_store roomy(dir.string(), total);
  EXPECT_EQ(roomy.stats().evicted, 0);
  fs::remove_all(dir);
}

TEST(DiskStore, EvictedEntriesAreRecomputableMisses) {
  // Eviction only ever drops cache entries: a consumer seeing the
  // evicted key misses, recomputes, and the store heals.
  const auto dir = test_dir("evict-heal");
  const auto key = trace_key("mat2", fast_options());
  {
    disk_store store(dir.string());
    store.put(key, "original");
  }
  age_access_time(dir / "objects" / (hash_hex(key) + ".stx"), 4);
  disk_store capped(dir.string(), /*max_bytes=*/1);
  EXPECT_EQ(capped.stats().evicted, 1);
  EXPECT_EQ(capped.get(key), std::nullopt);
  capped.put(key, "recomputed");
  EXPECT_EQ(capped.get(key).value(), "recomputed");
  fs::remove_all(dir);
}

TEST(PersistentCache, SecondCacheInstanceServesWithoutSimulating) {
  const auto dir = test_dir("reuse");
  const auto app = small_app();
  const auto opts = fast_options();
  xbar::collected_traces cold;
  {
    trace_cache cache(std::make_shared<disk_store>(dir.string()));
    cold = *cache.traces(app, opts);
    const auto stats = cache.stats();
    EXPECT_EQ(stats.trace_misses, 1);
    EXPECT_EQ(stats.trace_store_hits, 0);
  }
  // A fresh cache over a fresh store on the same directory loads the
  // phase-1 entry from disk — `misses` (simulations actually run) stays
  // 0 — and it carries the full-crossbar reference with the traces.
  trace_cache cache(std::make_shared<disk_store>(dir.string()));
  const auto traces = cache.traces(app, opts);
  ASSERT_NE(traces, nullptr);
  EXPECT_EQ(traces->request, cold.request);
  EXPECT_EQ(traces->response, cold.response);
  EXPECT_EQ(traces->full, xbar::validate_full_crossbars(app, opts));
  EXPECT_GT(traces->full.avg_latency, 0.0);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.trace_misses, 0);
  EXPECT_EQ(stats.trace_store_hits, 1);
  fs::remove_all(dir);
}

TEST(PersistentCache, CorruptTraceObjectFallsBackToSimulation) {
  const auto dir = test_dir("heal");
  const auto app = small_app();
  const auto opts = fast_options();
  const auto key = trace_key(app.name, opts);
  {
    trace_cache cache(std::make_shared<disk_store>(dir.string()));
    (void)cache.traces(app, opts);
  }
  const auto obj = dir / "objects" / (hash_hex(key) + ".stx");
  ASSERT_TRUE(fs::exists(obj));
  fs::resize_file(obj, 5);

  // The corrupt entry reads as a miss: the cache re-simulates and the
  // write-through heals the object for the next consumer.
  auto store = std::make_shared<disk_store>(dir.string());
  {
    trace_cache cache(store);
    ASSERT_NE(cache.traces(app, opts), nullptr);
    EXPECT_EQ(cache.stats().trace_misses, 1);
    EXPECT_EQ(cache.stats().trace_store_hits, 0);
  }
  EXPECT_EQ(store->stats().corrupt, 1);
  trace_cache healed(std::make_shared<disk_store>(dir.string()));
  (void)healed.traces(app, opts);
  EXPECT_EQ(healed.stats().trace_store_hits, 1);
  fs::remove_all(dir);
}

// The acceptance criterion of the design service: a warm-cache request
// returns a bit-identical flow_report WITHOUT re-running simulation or
// the solver — asserted on the sim.* / milp.* obs counters staying flat
// across the hit. The cold request leaves exactly two store objects.
TEST(PersistentCache, WarmReportIsBitIdenticalWithSimAndSolverCountersFlat) {
  const auto dir = test_dir("warm-report");
  const auto app = small_app();
  auto opts = fast_options();
  // The generic-MILP solver, so the solver cost shows up in milp.*
  // counters on the cold pass (the specialized solver would too, under
  // xbar.synth.*, but the MILP path covers both families).
  opts.synth.solver = xbar::solver_kind::generic_milp;

  obs::reset();
  obs::enable();
  xbar::flow_report cold;
  {
    auto store = std::make_shared<disk_store>(dir.string());
    trace_cache cache(store);
    auto result = serve::cached_design(app, app.name, opts,
                                       /*validate=*/true, cache, store.get());
    EXPECT_FALSE(result.from_store);
    cold = std::move(result.report);
    EXPECT_EQ(store->stats().puts, 2);
  }
  const auto before = obs::snapshot();
  // Phase 1, which is also the full-crossbar reference, and the designed
  // configuration.
  EXPECT_EQ(before.counter("sim.runs"), 2);
  ASSERT_GT(before.counter("milp.solves"), 0);
  // One object per computed result: the phase-1 entry (traces plus the
  // reference) and the report.
  std::vector<std::string> objects;
  for (const auto& e : fs::directory_iterator(dir / "objects")) {
    objects.push_back(e.path().filename().string());
  }
  std::vector<std::string> expected = {
      hash_hex(trace_key(app.name, opts)) + ".stx",
      hash_hex(report_key(app.name, opts)) + ".stx"};
  std::sort(objects.begin(), objects.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(objects, expected);

  {
    auto store = std::make_shared<disk_store>(dir.string());
    trace_cache cache(store);
    auto result = serve::cached_design(app, app.name, opts,
                                       /*validate=*/true, cache, store.get());
    EXPECT_TRUE(result.from_store);
    EXPECT_EQ(result.report, cold);  // field-exact, doubles included
    // Bit-identical on the wire too: the stored document re-encodes to
    // the same bytes the cold report encodes to.
    EXPECT_EQ(encode_report(result.report), encode_report(cold));
  }
  const auto after = obs::snapshot();
  EXPECT_EQ(after.counter("sim.runs"), before.counter("sim.runs"));
  EXPECT_EQ(after.counter("sim.events_processed"),
            before.counter("sim.events_processed"));
  EXPECT_EQ(after.counter("milp.solves"), before.counter("milp.solves"));
  EXPECT_EQ(after.counter("milp.nodes"), before.counter("milp.nodes"));
  EXPECT_EQ(after.counter("xbar.synth.runs"),
            before.counter("xbar.synth.runs"));
  EXPECT_EQ(after.counter("serve.report.store_hits"),
            before.counter("serve.report.store_hits") + 1);
  obs::reset();
  fs::remove_all(dir);
}

// A re-run of a store-backed validating sweep must serve every phase-4
// designed-configuration result from the stage=metrics store entries —
// no cohort re-simulation at all, pinned on the sim.* obs counters —
// and produce bit-identical results.
TEST(PersistentCache, SweepRerunServesDesignedMetricsFromStore) {
  const auto dir = test_dir("sweep-metrics");
  sweep_spec spec;
  spec.apps = {small_app()};
  spec.grid.window_sizes = {200, 400, 1000};
  spec.horizon = 8'000;
  spec.validate = true;

  obs::reset();
  obs::enable();
  sweep_report cold;
  {
    trace_cache cache(std::make_shared<disk_store>(dir.string()));
    cold = run_sweep(spec, cache);
  }
  EXPECT_EQ(cold.designed_store_hits, 0);
  EXPECT_EQ(cold.phase1_simulations, 1);
  const auto before = obs::snapshot();
  ASSERT_GT(before.counter("sim.runs"), 0);

  sweep_report warm;
  {
    trace_cache cache(std::make_shared<disk_store>(dir.string()));
    warm = run_sweep(spec, cache);
  }
  // Every point's designed metrics came off disk; nothing simulated.
  EXPECT_EQ(warm.designed_store_hits, 3);
  EXPECT_EQ(warm.phase1_simulations, 0);
  const auto after = obs::snapshot();
  EXPECT_EQ(after.counter("sim.runs"), before.counter("sim.runs"));
  EXPECT_EQ(after.counter("sim.events_processed"),
            before.counter("sim.events_processed"));
  EXPECT_EQ(after.counter("explore.designed.store_hits"), 3);
  // Warm results (designed metrics included) are bit-identical to cold.
  EXPECT_EQ(warm.results, cold.results);
  EXPECT_EQ(warm.pareto, cold.pareto);
  obs::reset();
  fs::remove_all(dir);
}

// Points that share one simulated design still get their own
// stage=metrics entry, under their own key, and a warm rerun serves all
// of them bit-identically.
TEST(PersistentCache, SharedDesignsStillPutOneMetricsEntryPerPoint) {
  const auto dir = test_dir("sweep-metrics-shared");
  sweep_spec spec;
  spec.apps = {small_app()};
  // Thresholds past 0.5 add no conflict Eq. 4 does not already exclude,
  // so these points collide on few designs.
  spec.grid.overlap_thresholds = {0.5, 0.6, 0.7, 0.8};
  spec.grid.max_targets_per_bus = {0, 4};
  spec.horizon = 8'000;
  spec.validate = true;
  const auto points = sweep_points(spec);

  obs::reset();
  obs::enable();
  auto store = std::make_shared<disk_store>(dir.string());
  sweep_report cold;
  {
    trace_cache cache(store);
    cold = run_sweep(spec, cache);
  }
  const auto sim_runs = obs::snapshot().counter("sim.runs");
  obs::disable();
  obs::reset();
  // Sharing happened: one phase-1 run plus fewer designs than points.
  ASSERT_LT(sim_runs, 1 + static_cast<std::int64_t>(points.size()));
  // Phase 1 wrote its one entry; phase 4 one per point.
  EXPECT_EQ(store->stats().puts,
            1 + static_cast<std::int64_t>(points.size()));
  for (std::size_t p = 0; p < points.size(); ++p) {
    const auto blob = store->get(
        metrics_key(spec.apps[0].name, options_for(spec, points[p])));
    ASSERT_TRUE(blob.has_value()) << points[p].to_string();
    EXPECT_EQ(*blob, encode_metrics(cold.results[p].report.designed))
        << points[p].to_string();
  }

  sweep_report warm;
  {
    trace_cache cache(std::make_shared<disk_store>(dir.string()));
    warm = run_sweep(spec, cache);
  }
  EXPECT_EQ(warm.designed_store_hits,
            static_cast<std::int64_t>(points.size()));
  EXPECT_EQ(warm.phase1_simulations, 0);
  // Warm results (designed metrics included) are bit-identical to cold.
  EXPECT_EQ(warm.results, cold.results);
  EXPECT_EQ(warm.pareto, cold.pareto);
  fs::remove_all(dir);
}

// The metrics key carries every synthesis knob: a sweep at different
// knobs on the same store directory must never alias into warm hits.
TEST(PersistentCache, DesignedMetricsKeyedBySynthesisKnobs) {
  const auto dir = test_dir("sweep-metrics-keys");
  sweep_spec spec;
  spec.apps = {small_app()};
  spec.grid.window_sizes = {200, 400};
  spec.horizon = 8'000;
  spec.validate = true;
  {
    trace_cache cache(std::make_shared<disk_store>(dir.string()));
    (void)run_sweep(spec, cache);
  }
  // Same app + simulator settings, different maxtb: different designs,
  // so phase 4 must re-run (store misses), while phase 1 still hits.
  spec.grid.max_targets_per_bus = {2};
  trace_cache cache(std::make_shared<disk_store>(dir.string()));
  const auto report = run_sweep(spec, cache);
  EXPECT_EQ(report.designed_store_hits, 0);
  EXPECT_EQ(report.phase1_simulations, 0);
  fs::remove_all(dir);
}

// A failed stage=metrics write-through only loses persistence: the sweep
// still returns every point, bit-identical to a sweep with no store, and
// counts each dropped put.
TEST(PersistentCache, FailedMetricsWriteThroughDoesNotFailTheSweep) {
  const auto dir = test_dir("sweep-metrics-put-fails");
  sweep_spec spec;
  spec.apps = {small_app()};
  spec.grid.window_sizes = {200, 400};
  spec.horizon = 4'000;
  spec.validate = true;

  trace_cache plain;
  const auto expected = run_sweep(spec, plain);

  obs::reset();
  obs::enable();
  failpoint::arm("store.put.before_rename", "error");
  sweep_report report;
  {
    trace_cache cache(std::make_shared<disk_store>(dir.string()));
    EXPECT_NO_THROW(report = run_sweep(spec, cache));
  }
  failpoint::disarm_all();
  const auto dropped =
      obs::snapshot().counter("explore.cache.put_dropped");
  obs::disable();
  obs::reset();
  EXPECT_EQ(report.results, expected.results);
  EXPECT_EQ(report.pareto, expected.pareto);
  // Phase 1's one entry plus one metrics entry per point.
  EXPECT_EQ(dropped, 1 + 2);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace stx::explore
