// The one canonical cache-key encoding (`stxkey/v1`) shared by every
// result cache in the system: the in-process explore::trace_cache, the
// persistent content-addressed store (explore::disk_store), the design
// service's report cache and in-flight request dedup, and the on-disk
// object layout.
//
// A key names one stage result of the design flow for one application
// under fully pinned options. Two invocations produce the same key if
// and only if the flow is guaranteed to produce a bit-identical result —
// so every input the stage depends on is part of the key, including the
// solver budgets (a starved budget changes outcomes) and a schema
// version covering the code's result format.
//
// Wire form: one line, space-separated `k=v` fields in fixed order,
//   stxkey/v1 v=4 stage=report app=mat2 horizon=120000 seed=1 ...
// Values are percent-escaped so application identities may be arbitrary
// strings (e.g. a full `stxfuzz/v1 ...` scenario token — the
// content-addressed identity of a generated application); doubles use
// %.17g. The line is only ever compared, never parsed back (disk_store
// checks a stored object's key line against the requested one).
#pragma once

#include <cstdint>
#include <string>

#include "xbar/flow.h"

namespace stx::explore {

/// Bump when the flow's result schema or semantics change in a way that
/// invalidates previously stored results (new flow_report fields, solver
/// behaviour changes, trace format changes). Old entries then simply
/// miss: the store is content-addressed, never migrated.
/// 2: the overlap threshold became overlap / window length > threshold,
/// which changes reports whose threshold times window size is fractional
/// or overflows int64.
/// 3: the stage=trace blob carries the phase-1 run's full-crossbar
/// metrics (stxtraces/v2), and the separate stage=full entry is gone.
/// 4: the specialised binding search prunes by a look-ahead bound, which
/// lowers every report's binding_nodes and lets a node-budget-cut
/// binding reach a better incumbent.
inline constexpr int kCacheSchemaVersion = 4;

/// Which stage result the key names.
enum class cache_stage {
  trace,    ///< phase-1 collected_traces, full-crossbar reference
            ///< included (synthesis knobs excluded)
  report,   ///< complete flow_report (every knob included)
  metrics,  ///< phase-4 designed-configuration validation_metrics (the
            ///< design is a function of every knob, so same deps as
            ///< report minus the validated marker)
};

const char* to_string(cache_stage s);

/// The canonical key. Construct through trace_key/report_key/metrics_key so
/// the field-selection rules (which options enter which stage) live in
/// exactly one place.
struct cache_key {
  int version = kCacheSchemaVersion;
  cache_stage stage = cache_stage::report;
  /// Application identity: the built-in app name, or any caller-chosen
  /// content identity (the design service uses the canonical stxfuzz/v1
  /// token for generated apps so distinct scenarios can never alias).
  std::string app;

  // ---- Phase-1 simulation inputs (every stage).
  traffic::cycle_t horizon = 0;
  std::uint64_t seed = 0;
  int policy = 0;  ///< static_cast<int>(sim::arbitration)
  traffic::cycle_t transfer_overhead = 0;

  // ---- Synthesis + solver inputs (stage::report only; defaulted and
  // omitted from the wire form otherwise).
  traffic::cycle_t window_size = 0;
  double overlap_threshold = 0.0;
  int max_targets_per_bus = 0;
  traffic::cycle_t burst_window = 0;
  bool use_overlap_conflicts = false;
  bool separate_critical = false;
  traffic::cycle_t request_window = 0;
  traffic::cycle_t response_window = 0;
  int solver = 0;  ///< static_cast<int>(xbar::solver_kind)
  bool optimize_binding = false;
  std::int64_t max_nodes = 0;
  double time_limit_sec = 0.0;
  /// Solver cut separation and portfolio racing DO enter the key (a
  /// starved budget interacts with both); worker thread count does NOT —
  /// solver results are bit-identical across thread counts by contract.
  bool cuts = false;
  bool portfolio = false;
  /// Whether phase 4 ran (a validated and a synthesis-only report are
  /// different artifacts).
  bool validated = false;

  bool operator==(const cache_key&) const = default;
};

/// Phase-1 trace key for (app identity, opts): everything the collection
/// simulation depends on, nothing the synthesis knobs change.
cache_key trace_key(const std::string& app_id, const xbar::flow_options& opts);

/// Complete flow-report key: every option the report depends on.
cache_key report_key(const std::string& app_id, const xbar::flow_options& opts,
                     bool validated = true);

/// Phase-4 designed-configuration metrics key: the designed crossbar is
/// a deterministic function of the traces and every synthesis knob, so
/// this carries the full report-key field set (validated excluded — it
/// names a report variant, not a metrics input).
cache_key metrics_key(const std::string& app_id,
                      const xbar::flow_options& opts);

/// The one-line canonical wire form (see file comment).
std::string encode(const cache_key& key);

/// 64-bit FNV-1a over encode(key): the content address used for the
/// on-disk object layout and for compact log lines. Stable across
/// processes and platforms.
std::uint64_t hash64(const cache_key& key);

/// hash64 rendered as 16 lowercase hex digits (the on-disk object name).
std::string hash_hex(const cache_key& key);

}  // namespace stx::explore
