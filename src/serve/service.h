// The design service engine: runs design requests against the staged
// flow on the caller's thread, behind an admission gate (at most
// `workers` designs run at once, at most `queue_depth` wait, and waiters
// start in arrival order), with in-flight dedup of identical requests
// and the content-addressed result store (explore::kv_store) underneath.
// Transport-free and thread-free — the socket server (serve/server.h)
// calls run() on each connection's thread, tests and benches drive the
// same class; xbargen's --cache-dir path shares cached_design(). Requests
// and the CLIs' knob flags are read by one reader (read_flow_options)
// over one default (xbar::flow_options{}), so a request and a command
// line that name the same knobs share one cache key.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "explore/trace_cache.h"
#include "serve/protocol.h"
#include "workloads/app.h"

namespace stx::serve {

/// One staged, store-backed design-flow invocation — the unit of work a
/// service request executes, shared verbatim by the CLI --cache-dir
/// paths so a design computed by xbargen is a warm hit for the daemon's
/// request that names the same knobs (none, for an xbargen run with no
/// knob flag), and vice versa.
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
    /// Designs executing at once; further requests wait for a slot.
    int workers = 2;
    /// Admission bound: requests waiting for a slot. A request past this
    /// limit is rejected immediately ("admission queue full") instead of
    /// accumulating unbounded latency.
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
    std::int64_t deadline_exceeded = 0;  ///< expired while waiting
  };

  /// Instantaneous saturation view (for the metrics op's live gauges):
  /// requests waiting for a slot, and requests admitted but not yet
  /// completed (waiting + executing; coalesced twins not counted).
  struct live_t {
    std::int64_t queue_depth = 0;
    std::int64_t in_flight = 0;
  };

  explicit service(const options& opts);

  service(const service&) = delete;
  service& operator=(const service&) = delete;

  /// Runs one design request on the caller's thread and returns its
  /// response. A malformed application identity is answered at once; an
  /// identical request already in flight (same canonical report key and
  /// artifact list) is joined, and its leader's response returned, without
  /// taking a slot or a waiting place; a request past the admission bound
  /// is answered at once with a retry_after_ms backoff hint. Otherwise
  /// the request waits for its turn, is answered with an error if it
  /// waited past its deadline_ms, and runs handle(). Never throws on a
  /// flow error (that is an error response).
  design_response run(const design_request& req);

  /// Executes one request on the caller, without admission or dedup.
  design_response handle(const design_request& req);

  stats_t stats() const;
  live_t live() const;
  explore::kv_store& store() { return *store_; }
  explore::trace_cache& cache() { return *cache_; }

 private:
  /// A leader's execution, waiting or running. Its twins wait on
  /// `shared`, which the first twin makes, so a leader nobody joined
  /// never copies its response.
  struct flight {
    std::promise<design_response> answer;
    std::shared_future<design_response> shared;
  };

  options opts_;
  std::shared_ptr<explore::kv_store> store_;
  std::unique_ptr<explore::trace_cache> cache_;

  mutable std::mutex mu_;
  /// Notified when a slot frees or a turn passes.
  std::condition_variable turn_;
  /// Canonical dedup key -> its leader's flight.
  std::map<std::string, flight> in_flight_;
  int running_ = 0;                ///< designs executing (<= workers)
  std::uint64_t next_ticket_ = 0;  ///< handed to the next admitted leader
  std::uint64_t next_start_ = 0;   ///< the ticket whose turn is next
  stats_t stats_;
};

}  // namespace stx::serve
