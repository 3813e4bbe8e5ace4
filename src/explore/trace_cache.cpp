#include "explore/trace_cache.h"

#include "explore/codec.h"
#include "obs/obs.h"

namespace stx::explore {

std::shared_ptr<const xbar::collected_traces> trace_cache::traces(
    const workloads::app_spec& app, const xbar::flow_options& opts,
    const std::string& app_id) {
  const auto key = trace_key(app_id, opts);
  const auto map_key = encode(key);
  std::promise<entry> promise;
  std::shared_future<entry> future;
  bool loader = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(map_key);
    if (it != entries_.end()) {
      ++stats_.trace_hits;
      ++stats_by_app_[app_id].trace_hits;
      obs::add_counter("explore.cache.trace_hits", 1);
      future = it->second;
    } else {
      loader = true;
      future = promise.get_future().share();
      entries_.emplace(map_key, future);
    }
  }
  // A hit waits outside the lock: the loader needs it to finish.
  if (!loader) return future.get();
  // Resolve outside the lock so other keys proceed concurrently; same-key
  // requesters block on the future until the value lands. Misses (=
  // simulations run) and store hits are counted here, once the source is
  // known, so stats stay truthful with a backing store.
  try {
    entry value;
    if (backing_) {
      if (auto blob = backing_->get(key)) {
        try {
          value = std::make_shared<const xbar::collected_traces>(
              decode_traces(*blob));
        } catch (const std::exception&) {
          // Undecodable blob: miss; the write-through below replaces it.
        }
      }
    }
    const bool from_store = value != nullptr;
    if (!from_store) {
      value = std::make_shared<const xbar::collected_traces>(
          xbar::collect_traces(app, opts));
      if (backing_) {
        try {
          backing_->put(key, encode_traces(*value));
        } catch (const std::exception&) {
          // A failed write-through (disk full, fsync failure) only
          // loses persistence — the computed value is still good, so
          // serve it rather than failing the whole request.
          obs::add_counter("explore.cache.put_dropped", 1);
        }
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto& per_app = stats_by_app_[app_id];
      ++(from_store ? stats_.trace_store_hits : stats_.trace_misses);
      ++(from_store ? per_app.trace_store_hits : per_app.trace_misses);
    }
    obs::add_counter(from_store ? "explore.cache.trace_store_hits"
                                : "explore.cache.trace_misses",
                     1);
    promise.set_value(std::move(value));
  } catch (...) {
    // Drop the entry first so the failure is not cached: current
    // waiters get the exception, the next requester retries the load.
    {
      std::lock_guard<std::mutex> lock(mu_);
      entries_.erase(map_key);
    }
    promise.set_exception(std::current_exception());
  }
  return future.get();
}

trace_cache::cache_stats trace_cache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::map<std::string, trace_cache::cache_stats> trace_cache::stats_by_app()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_by_app_;
}

}  // namespace stx::explore
