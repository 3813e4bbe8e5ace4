// The "json" backend's document model: the stx-crossbar-design/v1
// design config (what gen::emit_json dumps), plus the matching parser so
// a dumped design round-trips losslessly.
//
// The document holds the application shape and names, both directions'
// designs (params, binding, conflict summary, solver telemetry),
// validation metrics, cost summary, and the phase-1 link-traffic
// matrices. Doubles are written with 17 significant digits, so
// parse_design(emit_json(report)) == report holds exactly.
#pragma once

#include "gen/json.h"
#include "xbar/flow.h"

namespace stx::gen {

/// The stx-crossbar-design/v1 document of `report`: what emit_json writes
/// and what the serve protocol embeds in a response line.
json::value design_document(const xbar::flow_report& report);

/// Reads a design document back into a flow_report (the inverse of
/// design_document). Throws stx::invalid_argument_error on a malformed
/// document or an unknown schema tag.
xbar::flow_report design_from_document(const json::value& doc);

/// design_from_document(json::parse(text)): parses a document produced by
/// emit_json back into a flow_report.
xbar::flow_report parse_design(const std::string& text);

/// Appends the validation-metrics members (avg_latency ... total_buses) to
/// `out`, in document order: the "designed"/"full" objects of a design
/// document, and the store's stage=metrics blob after its schema tag.
void append_metrics(json::object& out, const xbar::validation_metrics& m);

/// Reads the members append_metrics writes from the object `v` (other
/// members are ignored).
xbar::validation_metrics metrics_from_json(const json::value& v);

}  // namespace stx::gen
