#include "serve/service.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "explore/codec.h"
#include "explore/disk_store.h"
#include "obs/obs.h"
#include "testkit/scenario.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "workloads/mpsoc_apps.h"

namespace stx::serve {

cached_design_result cached_design(const workloads::app_spec& app,
                                   const std::string& app_id,
                                   const xbar::flow_options& opts,
                                   bool validate,
                                   explore::trace_cache& cache,
                                   explore::kv_store* store) {
  const auto key = explore::report_key(app_id, opts, validate);
  if (store != nullptr) {
    if (auto blob = store->get(key)) {
      try {
        cached_design_result result;
        result.report = explore::decode_report(*blob);
        result.from_store = true;
        obs::add_counter("serve.report.store_hits", 1);
        return result;
      } catch (const std::exception&) {
        // Undecodable report object: recompute and overwrite below.
      }
    }
  }
  obs::add_counter("serve.report.misses", 1);
  const auto traces = cache.traces(app, opts, app_id);
  cached_design_result result;
  result.report = xbar::synthesize_design(app, *traces, opts);
  if (validate) xbar::validate_design(app, opts, traces->full, result.report);
  if (store != nullptr) {
    try {
      store->put(key, explore::encode_report(result.report));
    } catch (const std::exception&) {
      // A failed write-through only loses the warm hit for next time;
      // the computed report is still the answer.
      obs::add_counter("serve.report.put_dropped", 1);
    }
  }
  return result;
}

namespace {

/// Resolves the request's application identity: (spec, canonical cache
/// identity). Built-in apps are identified by name; generated apps by
/// their canonical stxfuzz/v1 token, so distinct scenarios never alias.
std::pair<workloads::app_spec, std::string> resolve_app(
    const design_request& req) {
  if (!req.scenario.empty()) {
    const auto s = testkit::decode(req.scenario);
    return {s.make_app(), req.scenario};
  }
  auto app = workloads::make_app_by_name(req.app);
  STX_REQUIRE(app.has_value(), "unknown app '" + req.app + "' (" +
                                   workloads::app_name_list() + ")");
  return {*std::move(app), req.app};
}

}  // namespace

service::service(const options& opts) : opts_(opts) {
  STX_REQUIRE(opts_.workers >= 1, "service: workers must be >= 1");
  STX_REQUIRE(opts_.queue_depth >= 1, "service: queue_depth must be >= 1");
  if (opts_.cache_dir.empty()) {
    store_ = std::make_shared<explore::memory_store>();
  } else {
    store_ = std::make_shared<explore::disk_store>(opts_.cache_dir,
                                                   opts_.cache_max_bytes);
  }
  cache_ = std::make_unique<explore::trace_cache>(store_);
  workers_.reserve(static_cast<std::size_t>(opts_.workers));
  for (int i = 0; i < opts_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

service::~service() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::shared_future<design_response> service::submit(
    const design_request& req) {
  obs::add_counter("serve.requests", 1);
  const auto ready_error = [&](const std::string& what,
                               std::int64_t retry_after_ms = 0) {
    design_response resp;
    resp.id = req.id;
    resp.ok = false;
    resp.error = what;
    resp.retry_after_ms = retry_after_ms;
    std::promise<design_response> p;
    p.set_value(std::move(resp));
    return p.get_future().share();
  };

  // The canonical report key (plus the artifact selection, which alters
  // the response) is the dedup identity: two spellings of one request
  // coalesce, two requests differing in any option do not. The deadline
  // is deliberately NOT part of the identity — it shapes when a request
  // may be answered, not what the answer is.
  std::string dedup_key;
  try {
    STX_FAILPOINT("serve.admission");
    const auto [app, app_id] = resolve_app(req);
    (void)app;
    dedup_key = explore::encode(
        explore::report_key(app_id, req.opts, req.validate));
    for (const auto& a : req.artifacts) dedup_key += "|" + a;
  } catch (const std::exception& e) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.submitted;
    ++stats_.errors;
    obs::add_counter("serve.errors", 1);
    return ready_error(e.what());
  }

  job j;
  j.req = req;
  j.dedup_key = dedup_key;
  j.admitted = std::chrono::steady_clock::now();
  std::shared_future<design_response> future;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.submitted;
    const auto it = in_flight_.find(dedup_key);
    if (it != in_flight_.end()) {
      ++stats_.coalesced;
      obs::add_counter("serve.coalesced", 1);
      return it->second;
    }
    if (queue_.size() >= static_cast<std::size_t>(opts_.queue_depth)) {
      ++stats_.rejected;
      obs::add_counter("serve.rejected", 1);
      // Back-off hint: proportional to how much work each worker has
      // queued ahead (deterministic in the configuration, so the client
      // jitter is the only randomness in the retry schedule).
      const auto hint = std::clamp<std::int64_t>(
          50 * (opts_.queue_depth / opts_.workers + 1), 50, 5000);
      return ready_error("admission queue full (" +
                             std::to_string(opts_.queue_depth) + " pending)",
                         hint);
    }
    future = j.promise.get_future().share();
    in_flight_.emplace(dedup_key, future);
    queue_.push_back(std::move(j));
    obs::gauge_max("serve.queue_depth_max",
                   static_cast<std::int64_t>(queue_.size()));
    obs::gauge_max("serve.in_flight_max",
                   static_cast<std::int64_t>(in_flight_.size()));
  }
  cv_.notify_one();
  return future;
}

design_response service::handle(const design_request& req) {
  obs::span sp("serve.request",
               {{"app", req.scenario.empty() ? req.app : "scenario"}});
  const auto t0 = std::chrono::steady_clock::now();
  design_response resp;
  resp.id = req.id;
  try {
    STX_FAILPOINT("serve.worker.execute");
    const auto [app, app_id] = resolve_app(req);
    resp.app_id = app_id;
    auto result =
        cached_design(app, app_id, req.opts, req.validate, *cache_,
                      store_.get());
    resp.source = result.from_store ? "store" : "computed";
    if (!req.artifacts.empty()) {
      gen::generate_options gopts;
      gopts.backends = req.artifacts;
      resp.artifacts = xbar::generate_artifacts(result.report, gopts);
    }
    resp.report = std::move(result.report);
    resp.ok = true;
  } catch (const std::exception& e) {
    resp.ok = false;
    resp.error = e.what();
  }
  resp.elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  return resp;
}

void service::worker_loop() {
  while (true) {
    job j;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      j = std::move(queue_.front());
      queue_.erase(queue_.begin());
    }
    // Deadline enforcement happens worker-side, at dequeue: a request
    // that already waited past its deadline is answered with an error
    // instead of burning a worker on a result nobody is waiting for.
    if (j.req.deadline_ms > 0) {
      const auto waited_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - j.admitted)
              .count();
      if (waited_ms > j.req.deadline_ms) {
        design_response resp;
        resp.id = j.req.id;
        resp.ok = false;
        resp.error = "deadline exceeded (" + std::to_string(waited_ms) +
                     "ms queued > " + std::to_string(j.req.deadline_ms) +
                     "ms deadline)";
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.completed;
          ++stats_.errors;
          ++stats_.deadline_exceeded;
          in_flight_.erase(j.dedup_key);
        }
        obs::add_counter("serve.errors", 1);
        obs::add_counter("serve.deadline_exceeded", 1);
        j.promise.set_value(std::move(resp));
        continue;
      }
    }
    auto resp = handle(j.req);
    const bool ok = resp.ok;
    const bool from_store = resp.source == "store";
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.completed;
      if (!ok) ++stats_.errors;
      if (from_store) ++stats_.store_hits;
      in_flight_.erase(j.dedup_key);
    }
    if (!ok) obs::add_counter("serve.errors", 1);
    j.promise.set_value(std::move(resp));
  }
}

service::stats_t service::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

service::live_t service::live() const {
  std::lock_guard<std::mutex> lock(mu_);
  live_t l;
  l.queue_depth = static_cast<std::int64_t>(queue_.size());
  l.in_flight = static_cast<std::int64_t>(in_flight_.size());
  return l;
}

}  // namespace stx::serve
