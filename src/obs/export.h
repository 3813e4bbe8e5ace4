// JSON exporters for the obs subsystem: Chrome-trace-event / Perfetto
// traces and `stx-metrics/v1` registry snapshots.
//
// Trace format: the Chrome trace-event JSON object form
// ({"traceEvents": [...]}) with complete ("ph":"X") events only —
// load it at https://ui.perfetto.dev or chrome://tracing. Timestamps are
// microseconds since the obs clock origin; nesting is inferred by the
// viewer from containment on each thread track, exactly how obs::span
// nests.
//
// Metrics format (`stx-metrics/v1`):
//   {
//     "schema": "stx-metrics/v1",
//     "counters": { name: int, ... },   // deterministic, name-sorted
//     "gauges":   { name: int, ... },   // deterministic, name-sorted
//     "wall_nondeterministic": {        // timing: diffs must ignore it
//       name: {count, total_ms, min_ms, max_ms, mean_ms}, ...
//     }
//   }
// The counters/gauges sections are bit-identical across runs and thread
// counts for the same work; every wall-clock field lives under the
// explicitly non-deterministic key.
#pragma once

#include <string>
#include <vector>

#include "gen/json.h"
#include "obs/obs.h"

namespace stx::obs {

/// The Chrome-trace-event document of `events`.
gen::json::value trace_document(const std::vector<trace_event>& events);
/// The document of the current global trace buffer.
gen::json::value trace_document();

/// The `stx-metrics/v1` document of `snap`.
gen::json::value metrics_document(const metrics_snapshot& snap);
/// The document of the current registry contents.
gen::json::value metrics_document();

/// gen::json::dump of trace_document(events).
std::string render_trace_json(const std::vector<trace_event>& events);
/// Renders the current global trace buffer.
std::string render_trace_json();

/// gen::json::dump of metrics_document(snap).
std::string render_metrics_json(const metrics_snapshot& snap);
/// Renders the current registry contents.
std::string render_metrics_json();

/// Writes the current trace buffer / registry snapshot to `path`.
/// Throws stx::invalid_argument_error when the file cannot be written.
void write_trace_json(const std::string& path);
void write_metrics_json(const std::string& path);

}  // namespace stx::obs
