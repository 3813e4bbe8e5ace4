#include "serve/protocol.h"

#include <limits>
#include <set>

#include "gen/json.h"
#include "gen/json_backend.h"
#include "sim/config.h"
#include "testkit/scenario.h"
#include "util/error.h"

namespace stx::serve {

namespace json = gen::json;

const char* to_string(request_op op) {
  switch (op) {
    case request_op::design: return "design";
    case request_op::ping: return "ping";
    case request_op::metrics: return "metrics";
    case request_op::trace: return "trace";
    case request_op::shutdown: return "shutdown";
  }
  return "?";
}

namespace {

request_op parse_op(const std::string& s) {
  if (s == "design") return request_op::design;
  if (s == "ping") return request_op::ping;
  if (s == "metrics") return request_op::metrics;
  if (s == "trace") return request_op::trace;
  if (s == "shutdown") return request_op::shutdown;
  throw invalid_argument_error("unknown op '" + s + "'");
}

sim::arbitration parse_policy(const std::string& s) {
  if (s == "fixed_priority") return sim::arbitration::fixed_priority;
  if (s == "round_robin") return sim::arbitration::round_robin;
  if (s == "least_recently_granted") {
    return sim::arbitration::least_recently_granted;
  }
  throw invalid_argument_error("unknown policy '" + s + "'");
}

xbar::solver_kind parse_solver(const std::string& s) {
  if (s == "specialized") return xbar::solver_kind::specialized;
  if (s == "milp" || s == "generic_milp") {
    return xbar::solver_kind::generic_milp;
  }
  throw invalid_argument_error("unknown solver '" + s + "'");
}

/// An integer field stored in an `int`: out-of-range values are rejected,
/// never narrowed.
int as_int32(const json::value& v, const std::string& field) {
  const auto x = v.as_int();
  STX_REQUIRE(x >= std::numeric_limits<int>::min() &&
                  x <= std::numeric_limits<int>::max(),
              field + " is out of range");
  return static_cast<int>(x);
}

/// The design-request option fields, applied over whatever defaults the
/// application identity established (flow defaults for built-in apps,
/// the scenario's own options for stxfuzz requests).
void apply_option_fields(const json::value& doc, design_request& req) {
  auto& opts = req.opts;
  if (doc.contains("horizon")) opts.horizon = doc.at("horizon").as_int();
  if (doc.contains("seed")) {
    opts.seed = static_cast<std::uint64_t>(doc.at("seed").as_int());
  }
  if (doc.contains("policy")) {
    opts.policy = parse_policy(doc.at("policy").as_string());
  }
  if (doc.contains("transfer_overhead")) {
    opts.transfer_overhead = doc.at("transfer_overhead").as_int();
  }
  auto& params = opts.synth.params;
  if (doc.contains("window")) params.window_size = doc.at("window").as_int();
  if (doc.contains("threshold")) {
    params.overlap_threshold = doc.at("threshold").as_double();
  }
  if (doc.contains("maxtb")) {
    params.max_targets_per_bus = as_int32(doc.at("maxtb"), "maxtb");
  }
  if (doc.contains("burst_window")) {
    params.burst_window = doc.at("burst_window").as_int();
  }
  if (doc.contains("conflicts")) {
    params.use_overlap_conflicts = doc.at("conflicts").as_bool();
  }
  if (doc.contains("critical")) {
    params.separate_critical = doc.at("critical").as_bool();
  }
  if (doc.contains("request_window")) {
    opts.request_window_override = doc.at("request_window").as_int();
  }
  if (doc.contains("response_window")) {
    opts.response_window_override = doc.at("response_window").as_int();
  }
  if (doc.contains("solver")) {
    opts.synth.solver = parse_solver(doc.at("solver").as_string());
  }
  if (doc.contains("optimize_binding")) {
    opts.synth.optimize_binding = doc.at("optimize_binding").as_bool();
  }
  if (doc.contains("solver_node_limit")) {
    const auto nodes = doc.at("solver_node_limit").as_int();
    STX_REQUIRE(nodes >= 1, "solver_node_limit must be >= 1");
    opts.synth.limits.max_nodes = nodes;
  }
  if (doc.contains("solver_time_ms")) {
    const auto ms = doc.at("solver_time_ms").as_int();
    STX_REQUIRE(ms >= 0, "solver_time_ms must be >= 0");
    opts.synth.limits.time_limit_sec = static_cast<double>(ms) / 1000.0;
  }
  if (doc.contains("solver_threads")) {
    const int threads = as_int32(doc.at("solver_threads"), "solver_threads");
    STX_REQUIRE(threads >= 1, "solver_threads must be >= 1");
    opts.synth.limits.threads = threads;
  }
  if (doc.contains("solver_cuts")) {
    opts.synth.limits.cuts = doc.at("solver_cuts").as_bool();
  }
  if (doc.contains("solver_portfolio")) {
    opts.synth.limits.portfolio = doc.at("solver_portfolio").as_bool();
  }
  if (doc.contains("validate")) {
    req.validate = doc.at("validate").as_bool();
  }
  if (doc.contains("deadline_ms")) {
    const auto ms = doc.at("deadline_ms").as_int();
    STX_REQUIRE(ms >= 1, "deadline_ms must be >= 1");
    req.deadline_ms = ms;
  }
  if (doc.contains("artifacts")) {
    for (const auto& a : doc.at("artifacts").as_array()) {
      req.artifacts.push_back(a.as_string());
    }
  }
}

const std::set<std::string>& known_fields() {
  static const std::set<std::string> fields = {
      "op",           "id",
      "app",          "scenario",
      "horizon",      "seed",
      "policy",       "transfer_overhead",
      "window",       "threshold",
      "maxtb",        "burst_window",
      "conflicts",    "critical",
      "request_window", "response_window",
      "solver",       "optimize_binding",
      "solver_node_limit", "solver_time_ms",
      "solver_threads", "solver_cuts",
      "solver_portfolio", "validate",
      "artifacts",     "deadline_ms",
  };
  return fields;
}

}  // namespace

request parse_request(const std::string& line) {
  const auto doc = json::parse(line);
  STX_REQUIRE(doc.is_object(), "request must be a JSON object");
  for (const auto& [key, v] : doc.as_object()) {
    (void)v;
    STX_REQUIRE(known_fields().count(key) != 0,
                "unknown request field '" + key + "'");
  }
  request req;
  STX_REQUIRE(doc.contains("op"), "request missing 'op'");
  req.op = parse_op(doc.at("op").as_string());
  if (doc.contains("id")) req.id = doc.at("id").as_string();
  if (req.op != request_op::design) return req;

  auto& d = req.design;
  d.id = req.id;
  const bool has_app = doc.contains("app");
  const bool has_scenario = doc.contains("scenario");
  STX_REQUIRE(has_app != has_scenario,
              "design request needs exactly one of 'app' / 'scenario'");
  if (has_app) {
    d.app = doc.at("app").as_string();
    STX_REQUIRE(!d.app.empty(), "'app' must not be empty");
  } else {
    // Canonicalise the token (decode validates, encode normalises) so
    // every spelling of one scenario shares one cache identity.
    d.scenario = testkit::encode(testkit::decode(doc.at("scenario").as_string()));
    const auto s = testkit::decode(d.scenario);
    d.opts = s.make_flow_options();
  }
  apply_option_fields(doc, d);
  d.opts.validate();
  return req;
}

std::string serialize(const design_response& resp) {
  json::object o;
  if (!resp.id.empty()) o.emplace_back("id", resp.id);
  o.emplace_back("ok", resp.ok);
  if (!resp.ok) {
    o.emplace_back("error", resp.error);
    if (resp.retry_after_ms > 0) {
      o.emplace_back("retry_after_ms", resp.retry_after_ms);
    }
    return json::dump_compact(json::value(std::move(o)));
  }
  o.emplace_back("app", resp.app_id);
  o.emplace_back("source", resp.source);
  o.emplace_back("elapsed_ms", resp.elapsed_ms);
  if (resp.report.has_value()) {
    o.emplace_back("report", gen::design_document(*resp.report));
  }
  if (!resp.artifacts.empty()) {
    json::array arts;
    arts.reserve(resp.artifacts.size());
    for (const auto& a : resp.artifacts) {
      json::object art;
      art.emplace_back("backend", a.backend);
      art.emplace_back("filename", a.filename);
      art.emplace_back("content", a.content);
      arts.emplace_back(std::move(art));
    }
    o.emplace_back("artifacts", std::move(arts));
  }
  return json::dump_compact(json::value(std::move(o)));
}

design_response parse_response(const std::string& line) {
  const auto doc = json::parse(line);
  design_response resp;
  if (doc.contains("id")) resp.id = doc.at("id").as_string();
  resp.ok = doc.at("ok").as_bool();
  if (!resp.ok) {
    resp.error = doc.at("error").as_string();
    if (doc.contains("retry_after_ms")) {
      resp.retry_after_ms = doc.at("retry_after_ms").as_int();
    }
    return resp;
  }
  resp.app_id = doc.at("app").as_string();
  resp.source = doc.at("source").as_string();
  resp.elapsed_ms = doc.at("elapsed_ms").as_double();
  if (doc.contains("report")) {
    resp.report = gen::design_from_document(doc.at("report"));
  }
  if (doc.contains("artifacts")) {
    for (const auto& a : doc.at("artifacts").as_array()) {
      gen::artifact art;
      art.backend = a.at("backend").as_string();
      art.filename = a.at("filename").as_string();
      art.content = a.at("content").as_string();
      resp.artifacts.push_back(std::move(art));
    }
  }
  return resp;
}

std::string serialize_simple(const std::string& id, request_op op,
                             const std::string& embedded_json) {
  json::object o;
  if (!id.empty()) o.emplace_back("id", id);
  o.emplace_back("ok", true);
  o.emplace_back("op", to_string(op));
  if (!embedded_json.empty()) {
    const char* key = op == request_op::metrics ? "metrics" : "trace";
    o.emplace_back(key, json::parse(embedded_json));
  }
  return json::dump_compact(json::value(std::move(o)));
}

std::string serialize_metrics(const std::string& id,
                              const std::string& metrics_json,
                              const live_gauges& live) {
  json::object o;
  if (!id.empty()) o.emplace_back("id", id);
  o.emplace_back("ok", true);
  o.emplace_back("op", to_string(request_op::metrics));
  o.emplace_back("metrics", json::parse(metrics_json));
  o.emplace_back("live",
                 json::object{
                     {"admission_queue_depth", live.admission_queue_depth},
                     {"in_flight", live.in_flight},
                     {"connections", live.connections},
                     {"idle_connections", live.idle_connections},
                 });
  return json::dump_compact(json::value(std::move(o)));
}

std::string serialize_error(const std::string& id, const std::string& error) {
  json::object o;
  if (!id.empty()) o.emplace_back("id", id);
  o.emplace_back("ok", false);
  o.emplace_back("error", error);
  return json::dump_compact(json::value(std::move(o)));
}

}  // namespace stx::serve
