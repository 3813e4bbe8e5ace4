// The design service engine: a sharded worker pool executing design
// requests against the staged flow, with a bounded admission queue,
// in-flight dedup of identical requests, and the content-addressed
// result store (explore::kv_store) underneath. Transport-free — the
// socket server (serve/server.h), tests and benches all drive this same
// class; xbargen's --cache-dir path shares cached_design().
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <mutex>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "explore/trace_cache.h"
#include "serve/protocol.h"
#include "workloads/app.h"

namespace stx::serve {

/// One staged, store-backed design-flow invocation — the unit of work a
/// service worker executes, shared verbatim by the CLI --cache-dir
/// paths so a design computed by xbargen is a warm hit for the daemon
/// and vice versa.
///
/// Stages, each individually cached:
///   report    — `store` consulted under the stage=report key first; a
///               hit decodes the stored flow_report and returns without
///               touching the simulator or the solver.
///   collect   — the phase-1 result through `cache` (trace key): the
///               traces and the full-crossbar reference metrics.
///   synthesize— xbar::synthesize_design (cheap relative to phases 1/4;
///               cached only as part of the report).
///   validate  — xbar::validate_design with the phase-1 reference, so
///               only the designed configuration is simulated.
/// The computed report is written through to `store` before returning.
struct cached_design_result {
  xbar::flow_report report;
  bool from_store = false;  ///< whole report served without simulation
};
cached_design_result cached_design(const workloads::app_spec& app,
                                   const std::string& app_id,
                                   const xbar::flow_options& opts,
                                   bool validate,
                                   explore::trace_cache& cache,
                                   explore::kv_store* store);

class service {
 public:
  struct options {
    /// Worker threads executing design requests.
    int workers = 2;
    /// Admission bound: requests queued beyond the workers. A submit
    /// past this limit is rejected immediately ("admission queue full")
    /// instead of accumulating unbounded latency.
    int queue_depth = 64;
    /// Persistent store directory; empty = in-process store only.
    std::string cache_dir;
    /// Store size cap (0 = unlimited), held at open and on every put:
    /// oldest-accessed objects are evicted until the directory fits.
    std::uint64_t cache_max_bytes = 0;
  };

  struct stats_t {
    std::int64_t submitted = 0;
    std::int64_t completed = 0;
    std::int64_t errors = 0;     ///< completed with ok=false
    std::int64_t coalesced = 0;  ///< deduped onto an in-flight twin
    std::int64_t rejected = 0;   ///< bounced by the admission bound
    std::int64_t store_hits = 0; ///< whole-report store hits
    std::int64_t deadline_exceeded = 0;  ///< expired while queued
  };

  /// Instantaneous saturation view (for the metrics op's live gauges):
  /// requests queued behind the workers, and requests admitted but not
  /// yet completed (queued + executing).
  struct live_t {
    std::int64_t queue_depth = 0;
    std::int64_t in_flight = 0;
  };

  explicit service(const options& opts);
  ~service();  ///< drains the queue, joins the workers

  service(const service&) = delete;
  service& operator=(const service&) = delete;

  /// Submits one design request. Identical in-flight requests (same
  /// canonical report key and artifact list) share one execution and one
  /// future. A request past the admission bound resolves immediately
  /// with an error response carrying a retry_after_ms backoff hint; a
  /// malformed application identity likewise (without the hint).
  /// Never throws and never blocks on flow work.
  std::shared_future<design_response> submit(const design_request& req);

  /// Executes one request synchronously on the caller (the worker body).
  design_response handle(const design_request& req);

  stats_t stats() const;
  live_t live() const;
  explore::kv_store& store() { return *store_; }
  explore::trace_cache& cache() { return *cache_; }

 private:
  struct job {
    design_request req;
    std::string dedup_key;
    std::promise<design_response> promise;
    /// Admission time; the worker enforces req.deadline_ms against it.
    std::chrono::steady_clock::time_point admitted;
  };

  void worker_loop();

  options opts_;
  std::shared_ptr<explore::kv_store> store_;
  std::unique_ptr<explore::trace_cache> cache_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::vector<job> queue_;
  /// Canonical dedup key -> the future every identical submit shares.
  std::map<std::string, std::shared_future<design_response>> in_flight_;
  stats_t stats_;
  std::vector<std::thread> workers_;
};

}  // namespace stx::serve
