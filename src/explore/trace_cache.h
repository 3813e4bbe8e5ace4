// Thread-safe phase-1 cache: every sweep point of one application at the
// same simulator settings consumes the identical full-crossbar run, so
// the expensive collection simulation runs exactly once per key no matter
// how many points or worker threads request it. Its entry is the whole
// phase-1 result — the traces and the run's full-crossbar reference
// metrics (xbar::collected_traces::full) — so a cold key costs one
// simulation and one store object.
//
// Optionally backed by a kv_store (constructor choice): with a
// persistent explore::disk_store behind it, results survive the process
// and a second run — or another binary pointed at the same cache
// directory — serves them without re-simulating.
#pragma once

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "explore/cache_key.h"
#include "explore/kv_store.h"
#include "xbar/flow.h"

namespace stx::explore {

/// Memoises xbar::collect_traces per stxkey/v1 trace key (app name,
/// horizon, seed, policy, transfer_overhead — everything the phase-1
/// simulation depends on; the synthesis knobs deliberately do not enter
/// the key). Applications are identified by name: two different specs
/// sharing a name would alias, so sweep specs must keep app names unique.
///
/// Concurrency: the first requester of a key inserts a future and
/// resolves it outside the lock; concurrent requesters for the same key
/// block on that future. Both guarantee exactly-once evaluation per
/// process; the backing store additionally guarantees at most one
/// simulation per key across processes that share a cache directory
/// (modulo racing cold starts, which write identical bytes).
class trace_cache {
 public:
  struct cache_stats {
    std::int64_t trace_hits = 0;
    std::int64_t trace_misses = 0;  ///< phase-1 collection simulations run
    /// Loads served from the backing store instead of simulating (0
    /// without a backing store). A load is exactly one of: hit (served
    /// from memory), store hit, or miss (simulated).
    std::int64_t trace_store_hits = 0;
  };

  /// In-process only (no backing store) — contents die with the cache.
  trace_cache() = default;

  /// Backed by `backing`: loads consult it before simulating, and every
  /// simulated result is written through. Pass an explore::disk_store
  /// for persistence, or share one store between caches and a
  /// serve::service.
  explicit trace_cache(std::shared_ptr<kv_store> backing)
      : backing_(std::move(backing)) {}

  /// The phase-1 result for (app, opts); simulated on first request.
  std::shared_ptr<const xbar::collected_traces> traces(
      const workloads::app_spec& app, const xbar::flow_options& opts) {
    return traces(app, opts, app.name);
  }

  /// Same, under an explicit cache identity instead of app.name — for
  /// generated applications whose display name is not content-unique
  /// (the serve/fuzz paths pass the canonical stxfuzz/v1 token).
  std::shared_ptr<const xbar::collected_traces> traces(
      const workloads::app_spec& app, const xbar::flow_options& opts,
      const std::string& app_id);

  cache_stats stats() const;

  /// Hit/miss totals aggregated per application name. Exactly-once
  /// insertion makes these deterministic regardless of worker count.
  std::map<std::string, cache_stats> stats_by_app() const;

  /// The backing store, or nullptr when in-process only.
  kv_store* backing() const { return backing_.get(); }

 private:
  using entry = std::shared_ptr<const xbar::collected_traces>;

  std::shared_ptr<kv_store> backing_;
  mutable std::mutex mu_;
  /// encode(trace_key) -> the future every requester of the key shares.
  std::map<std::string, std::shared_future<entry>> entries_;
  cache_stats stats_;
  std::map<std::string, cache_stats> stats_by_app_;
};

}  // namespace stx::explore
