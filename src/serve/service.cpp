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
}

design_response service::run(const design_request& req) {
  obs::add_counter("serve.requests", 1);
  const auto error = [&](const std::string& what,
                         std::int64_t retry_after_ms = 0) {
    design_response resp;
    resp.id = req.id;
    resp.ok = false;
    resp.error = what;
    resp.retry_after_ms = retry_after_ms;
    return resp;
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
    return error(e.what());
  }

  const auto admitted = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> lock(mu_);
  ++stats_.submitted;
  if (const auto it = in_flight_.find(dedup_key); it != in_flight_.end()) {
    ++stats_.coalesced;
    obs::add_counter("serve.coalesced", 1);
    auto& leader = it->second;
    if (!leader.shared.valid()) {
      leader.shared = leader.answer.get_future().share();
    }
    const auto shared = leader.shared;
    lock.unlock();
    return shared.get();
  }
  const auto waiting = static_cast<std::int64_t>(next_ticket_ - next_start_);
  if (waiting >= opts_.queue_depth) {
    ++stats_.rejected;
    obs::add_counter("serve.rejected", 1);
    // Back-off hint: proportional to how much work each slot has waiting
    // behind it (deterministic in the configuration, so the client
    // jitter is the only randomness in the retry schedule).
    const auto hint = std::clamp<std::int64_t>(
        50 * (opts_.queue_depth / opts_.workers + 1), 50, 5000);
    return error("admission queue full (" +
                     std::to_string(opts_.queue_depth) + " pending)",
                 hint);
  }
  const bool waits = waiting > 0 || running_ >= opts_.workers;
  obs::gauge_max("serve.queue_depth_max", waiting + (waits ? 1 : 0));
  obs::gauge_max("serve.in_flight_max",
                 static_cast<std::int64_t>(in_flight_.size()) + 1);
  in_flight_.try_emplace(dedup_key);

  // Waiters start in ticket (arrival) order, each once a slot is free.
  const auto ticket = next_ticket_++;
  turn_.wait(lock, [&] {
    return ticket == next_start_ && running_ < opts_.workers;
  });
  ++next_start_;
  // A request that already waited past its deadline is answered with an
  // error instead of taking a slot for a result nobody is waiting for.
  const auto waited_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - admitted)
          .count();
  const bool expired = req.deadline_ms > 0 && waited_ms > req.deadline_ms;
  if (!expired) ++running_;
  lock.unlock();
  turn_.notify_all();  // the next ticket may start too, if a slot is free

  design_response resp;
  try {  // however it ends, the request frees its slot and answers twins
    resp = expired ? error("deadline exceeded (" +
                           std::to_string(waited_ms) + "ms queued > " +
                           std::to_string(req.deadline_ms) +
                           "ms deadline)")
                   : handle(req);
  } catch (const std::exception& e) {
    resp = error(e.what());
  }

  lock.lock();
  if (!expired) --running_;
  ++stats_.completed;
  if (!resp.ok) ++stats_.errors;
  if (expired) ++stats_.deadline_exceeded;
  if (resp.source == "store") ++stats_.store_hits;
  auto node = in_flight_.extract(dedup_key);
  lock.unlock();
  turn_.notify_all();
  if (auto& flight = node.mapped(); flight.shared.valid()) {
    flight.answer.set_value(std::move(resp));  // twins joined: all copy
    resp = flight.shared.get();
  }
  if (!resp.ok) obs::add_counter("serve.errors", 1);
  if (expired) obs::add_counter("serve.deadline_exceeded", 1);
  return resp;
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

service::stats_t service::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

service::live_t service::live() const {
  std::lock_guard<std::mutex> lock(mu_);
  live_t l;
  l.queue_depth = static_cast<std::int64_t>(next_ticket_ - next_start_);
  l.in_flight = static_cast<std::int64_t>(in_flight_.size());
  return l;
}

}  // namespace stx::serve
