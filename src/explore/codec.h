// Blob codecs for the persistent store: the byte representations of each
// cacheable stage result. Every encode/decode pair round-trips exactly
// (operator== on the decoded value), which is what makes warm-cache
// results bit-identical to fresh computation:
//   traces  — "stxtraces/v2", the phase-1 run's full-crossbar metrics
//             as one compact JSON object (gen::append_metrics), then
//             two stxtrace v1 texts (traffic::trace::append_text /
//             parse_text, read in place)
//   metrics — "stx-validation-metrics/v1" JSON: the schema tag, then the
//             design document's metrics members (gen::append_metrics)
//   reports — the gen "stx-crossbar-design/v1" document (emit/parse)
// Decoders throw stx::invalid_argument_error on malformed input; store
// consumers catch and treat that as a cache miss.
#pragma once

#include <string>

#include "xbar/flow.h"

namespace stx::explore {

std::string encode_traces(const xbar::collected_traces& traces);
xbar::collected_traces decode_traces(const std::string& blob);

std::string encode_metrics(const xbar::validation_metrics& m);
xbar::validation_metrics decode_metrics(const std::string& blob);

std::string encode_report(const xbar::flow_report& report);
xbar::flow_report decode_report(const std::string& blob);

}  // namespace stx::explore
