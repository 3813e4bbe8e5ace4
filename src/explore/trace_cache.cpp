#include "explore/trace_cache.h"

#include "explore/codec.h"
#include "obs/obs.h"

namespace stx::explore {

namespace {

/// How the loader obtained a value; selects the stats bucket.
enum class load_source { store, simulated };

}  // namespace

template <typename T, typename Simulate, typename Enc, typename Dec>
std::shared_ptr<const T> trace_cache::get(store_t<T>& store,
                                          const cache_key& key,
                                          const std::string& app_name,
                                          bool is_trace, Simulate&& simulate,
                                          Enc&& enc, Dec&& dec) {
  const auto map_key = encode(key);
  std::promise<std::shared_ptr<const T>> promise;
  std::shared_future<std::shared_ptr<const T>> future;
  bool loader = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = store.find(map_key);
    if (it != store.end()) {
      auto& per_app = stats_by_app_[app_name];
      ++(is_trace ? stats_.trace_hits : stats_.full_hits);
      ++(is_trace ? per_app.trace_hits : per_app.full_hits);
      obs::add_counter(
          is_trace ? "explore.cache.trace_hits" : "explore.cache.full_hits",
          1);
      future = it->second;
    } else {
      loader = true;
      future = promise.get_future().share();
      store.emplace(map_key, future);
    }
  }
  if (loader) {
    // Resolve outside the lock so other keys proceed concurrently; same-
    // key requesters block on the future until the value lands. Misses
    // (= simulations run) and store hits are counted here, once the
    // source is known, so stats stay truthful with a backing store.
    try {
      std::shared_ptr<const T> value;
      auto source = load_source::simulated;
      if (backing_) {
        if (auto blob = backing_->get(key)) {
          try {
            value = std::make_shared<const T>(dec(*blob));
            source = load_source::store;
          } catch (const std::exception&) {
            // Undecodable blob: miss; the write-through below replaces it.
            value = nullptr;
          }
        }
      }
      if (!value) {
        value = std::make_shared<const T>(simulate());
        if (backing_) {
          try {
            backing_->put(key, enc(*value));
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
        auto& per_app = stats_by_app_[app_name];
        if (source == load_source::store) {
          ++(is_trace ? stats_.trace_store_hits : stats_.full_store_hits);
          ++(is_trace ? per_app.trace_store_hits : per_app.full_store_hits);
        } else {
          ++(is_trace ? stats_.trace_misses : stats_.full_misses);
          ++(is_trace ? per_app.trace_misses : per_app.full_misses);
        }
      }
      obs::add_counter(source == load_source::store
                           ? (is_trace ? "explore.cache.trace_store_hits"
                                       : "explore.cache.full_store_hits")
                           : (is_trace ? "explore.cache.trace_misses"
                                       : "explore.cache.full_misses"),
                       1);
      promise.set_value(std::move(value));
    } catch (...) {
      // Drop the entry first so the failure is not cached: current
      // waiters get the exception, the next requester retries the load.
      {
        std::lock_guard<std::mutex> lock(mu_);
        store.erase(map_key);
      }
      promise.set_exception(std::current_exception());
    }
  }
  return future.get();
}

std::shared_ptr<const xbar::collected_traces> trace_cache::traces(
    const workloads::app_spec& app, const xbar::flow_options& opts,
    const std::string& app_id) {
  return get(
      traces_, trace_key(app_id, opts), app_id, /*is_trace=*/true,
      [&] {
        // The phase-1 run is also the full-crossbar reference: seed the
        // full entry so a later full_metrics call does not simulate it.
        xbar::validation_metrics full;
        auto traces = xbar::collect_traces(app, opts, &full);
        seed_full(full_key(app_id, opts), full);
        return traces;
      },
      [](const xbar::collected_traces& t) { return encode_traces(t); },
      [](const std::string& blob) { return decode_traces(blob); });
}

void trace_cache::seed_full(const cache_key& key,
                            const xbar::validation_metrics& metrics) {
  std::promise<std::shared_ptr<const xbar::validation_metrics>> promise;
  promise.set_value(std::make_shared<const xbar::validation_metrics>(metrics));
  {
    std::lock_guard<std::mutex> lock(mu_);
    // An entry already there (loaded, or a full_metrics loader in
    // flight) holds the same value and owns its write-through.
    if (!full_.emplace(encode(key), promise.get_future().share()).second) {
      return;
    }
  }
  if (!backing_) return;
  try {
    backing_->put(key, encode_metrics(metrics));
  } catch (const std::exception&) {
    obs::add_counter("explore.cache.put_dropped", 1);
  }
}

std::shared_ptr<const xbar::validation_metrics> trace_cache::full_metrics(
    const workloads::app_spec& app, const xbar::flow_options& opts,
    const std::string& app_id) {
  return get(
      full_, full_key(app_id, opts), app_id, /*is_trace=*/false,
      [&] { return xbar::validate_full_crossbars(app, opts); },
      [](const xbar::validation_metrics& m) { return encode_metrics(m); },
      [](const std::string& blob) { return decode_metrics(blob); });
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
