#include "explore/codec.h"

#include "gen/json.h"
#include "gen/json_backend.h"
#include "util/error.h"

namespace stx::explore {

std::string encode_traces(const xbar::collected_traces& traces) {
  // The compact metrics object holds no whitespace: it reads back as one
  // token.
  gen::json::object full;
  gen::append_metrics(full, traces.full);
  std::string out = "stxtraces/v2 ";
  out += gen::json::dump_compact(gen::json::value(std::move(full)));
  out += '\n';
  traces.request.append_text(out);
  traces.response.append_text(out);
  return out;
}

xbar::collected_traces decode_traces(const std::string& blob) {
  std::size_t pos = 0;
  const auto magic = traffic::next_token(blob, pos);
  STX_REQUIRE(magic == "stxtraces/v2", "not an stxtraces/v2 blob");
  xbar::collected_traces traces;
  traces.full =
      gen::metrics_from_json(gen::json::parse(traffic::next_token(blob, pos)));
  traces.request = traffic::trace::parse_text(blob, pos);
  traces.response = traffic::trace::parse_text(blob, pos);
  return traces;
}

std::string encode_metrics(const xbar::validation_metrics& m) {
  gen::json::object doc;
  doc.emplace_back("schema", "stx-validation-metrics/v1");
  gen::append_metrics(doc, m);
  return gen::json::dump(gen::json::value(std::move(doc)));
}

xbar::validation_metrics decode_metrics(const std::string& blob) {
  const auto doc = gen::json::parse(blob);
  STX_REQUIRE(doc.contains("schema") && doc.at("schema").as_string() ==
                                            "stx-validation-metrics/v1",
              "not an stx-validation-metrics/v1 blob");
  return gen::metrics_from_json(doc);
}

std::string encode_report(const xbar::flow_report& report) {
  return gen::json_backend().emit(report, report.app_name);
}

xbar::flow_report decode_report(const std::string& blob) {
  return gen::parse_design(blob);
}

}  // namespace stx::explore
