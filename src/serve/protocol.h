// Wire protocol of the xbar-serve design service: line-delimited JSON
// over a local stream socket. One request per line in, one response per
// line out, in order.
//
// Request (op "design"):
//   {"op":"design","id":"r1","app":"mat2","horizon":120000,
//    "window":400,"threshold":0.3,"validate":true,
//    "artifacts":["sv","dot"]}
// or, for a generated application, the canonical stxfuzz/v1 scenario
// token instead of a built-in name:
//   {"op":"design","scenario":"stxfuzz/v1 seed=42 ini=4 tgt=6 ...","..."}
// Exactly one of "app" / "scenario" must be present. Scenario requests
// default every flow option from the scenario itself; explicitly present
// fields override on top (same rule as app requests over the flow
// defaults).
//
// Other ops: "ping" (liveness), "metrics" (stx-metrics/v1 snapshot of
// the server's obs registry), "trace" (Chrome-trace-event batch of the
// server's span buffer), "shutdown" (acknowledge, then stop serving).
//
// Response (op "design", success):
//   {"id":"r1","ok":true,"app":"mat2","source":"computed|store",
//    "elapsed_ms":...,"report":{...stx-crossbar-design/v1...},
//    "artifacts":[{"backend":"sv","filename":"...","content":"..."}]}
// Failure (any op): {"id":"r1","ok":false,"error":"..."}.
// The embedded report is the stx-crossbar-design/v1 document itself (not
// a re-parse of its text) and round-trips bit-exactly (%.17g doubles), so
// a warm-cache response is byte-identical to the cold one. Request lines
// nesting arrays/objects deeper than gen::json::max_depth are rejected.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "gen/artifact.h"
#include "xbar/flow.h"

namespace stx::serve {

enum class request_op { design, ping, metrics, trace, shutdown };

const char* to_string(request_op op);

/// One parsed design request: the application identity plus fully
/// resolved flow options (defaults already applied).
struct design_request {
  std::string id;             ///< echoed back; may be empty
  std::string app;            ///< built-in application name, or empty
  std::string scenario;       ///< stxfuzz/v1 token, or empty
  xbar::flow_options opts;
  bool validate = true;       ///< run phase 4 (full reference + designed)
  std::vector<std::string> artifacts;  ///< gen backend names to render
  /// Per-request deadline in milliseconds since admission (0 = none). A
  /// request still queued when its deadline passes is answered with a
  /// "deadline exceeded" error instead of being executed late.
  std::int64_t deadline_ms = 0;
};

struct request {
  request_op op = request_op::ping;
  std::string id;
  design_request design;  ///< populated when op == design
};

/// Parses one request line. Malformed JSON, an unknown op, unknown
/// fields, out-of-range values (including flow knobs
/// xbar::flow_options::validate rejects), or an app/scenario conflict
/// throw stx::invalid_argument_error with a message fit for the error
/// response, before the request reaches admission.
request parse_request(const std::string& line);

struct design_response {
  std::string id;
  bool ok = false;
  std::string error;       ///< set when !ok
  /// On a load-shedding rejection ("admission queue full"), how long the
  /// client should back off before retrying; 0 = no hint. The
  /// request_lines retry helper honors it.
  std::int64_t retry_after_ms = 0;
  std::string app_id;      ///< canonical cache identity of the application
  /// Where the report came from: "computed" (flow ran) or "store"
  /// (served from the content-addressed store without simulation).
  std::string source;
  double elapsed_ms = 0.0;  ///< wall time in the service (nondeterministic)
  std::optional<xbar::flow_report> report;
  std::vector<gen::artifact> artifacts;
};

/// One response line (no trailing newline). The report is embedded as
/// the stx-crossbar-design/v1 document.
std::string serialize(const design_response& resp);

/// Parses a serialize() line back (client side). The embedded report is
/// reconstructed through gen::design_from_document, so
/// parse_response(serialize(r)).report == r.report holds exactly.
design_response parse_response(const std::string& line);

/// Non-design response lines, kept trivial: {"id":...,"ok":true,
/// "op":"pong"} and friends, with an embedded document for
/// metrics/trace.
std::string serialize_simple(const std::string& id, request_op op,
                             const std::string& embedded_json = "");

/// Instantaneous saturation gauges the "metrics" op reports next to the
/// cumulative stx-metrics/v1 snapshot, under a top-level "live" object —
/// operators watch these to see saturation building before the admission
/// queue starts shedding.
struct live_gauges {
  std::int64_t admission_queue_depth = 0;  ///< requests queued, not running
  std::int64_t in_flight = 0;      ///< admitted and not yet completed
  std::int64_t connections = 0;    ///< open client connections
  std::int64_t idle_connections = 0;  ///< connections waiting in read
};

/// The metrics-op response line: {"id",...,"ok":true,"op":"metrics",
/// "metrics":{...stx-metrics/v1...},"live":{...}}.
std::string serialize_metrics(const std::string& id,
                              const std::string& metrics_json,
                              const live_gauges& live);

/// One-line error response for any op.
std::string serialize_error(const std::string& id, const std::string& error);

}  // namespace stx::serve
