#include "serve/protocol.h"

#include <algorithm>
#include <limits>
#include <set>

#include "explore/grid.h"
#include "gen/backends.h"
#include "gen/json.h"
#include "gen/json_backend.h"
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

/// A field's flag spelling without the leading dashes: "solver_node_limit"
/// is the flag solver-node-limit.
std::string dashed(std::string_view field) {
  std::string out(field);
  std::replace(out.begin(), out.end(), '_', '-');
  return out;
}

/// Where read_flow_options reads the fields from: a request's JSON
/// object, or a CLI's flags. The getters read a present field.
class field_source {
 public:
  explicit field_source(const json::value& request) : request_(&request) {}
  explicit field_source(const flag_set& flags) : flags_(&flags) {}

  /// The field as this source spells it, for error messages.
  std::string name(std::string_view field) const {
    return flags_ != nullptr ? "--" + dashed(field) : std::string(field);
  }
  bool has(std::string_view field) const {
    return flags_ != nullptr ? flags_->has(dashed(field))
                             : request_->contains(field);
  }
  std::int64_t as_int(std::string_view field) const {
    return flags_ != nullptr ? flags_->get_int(dashed(field), 0)
                             : request_->at(field).as_int();
  }
  double as_double(std::string_view field) const {
    return flags_ != nullptr ? flags_->get_double(dashed(field), 0.0)
                             : request_->at(field).as_double();
  }
  bool as_bool(std::string_view field) const {
    return flags_ != nullptr ? flags_->get_bool(dashed(field), false)
                             : request_->at(field).as_bool();
  }
  std::string as_string(std::string_view field) const {
    return flags_ != nullptr ? flags_->get_string(dashed(field), "")
                             : request_->at(field).as_string();
  }

 private:
  const json::value* request_ = nullptr;
  const flag_set* flags_ = nullptr;
};

void read(const field_source& src, std::string_view field,
          std::int64_t& out) {
  if (src.has(field)) out = src.as_int(field);
}

void read(const field_source& src, std::string_view field, double& out) {
  if (src.has(field)) out = src.as_double(field);
}

void read(const field_source& src, std::string_view field, bool& out) {
  if (src.has(field)) out = src.as_bool(field);
}

/// A present integer field, refused below `min` or above `max`.
std::int64_t bounded(
    const field_source& src, std::string_view field, std::int64_t min,
    std::int64_t max = std::numeric_limits<std::int64_t>::max()) {
  const auto v = src.as_int(field);
  if (v >= min && v <= max) return v;
  std::string range = " must be >= " + std::to_string(min);
  if (max < std::numeric_limits<std::int64_t>::max()) {
    range = " must be from " + std::to_string(min) + " to " +
            std::to_string(max);
  }
  throw invalid_argument_error(src.name(field) + range);
}

/// A present field stored in an `int`, from `min` up: a value that does
/// not fit is refused, never narrowed (2^32 + 1 would read as 1).
int as_int32(const field_source& src, std::string_view field, int min) {
  return static_cast<int>(
      bounded(src, field, min, std::numeric_limits<int>::max()));
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

/// The reader behind both read_flow_options overloads.
xbar::flow_options read_fields(const field_source& src,
                               xbar::flow_options opts) {
  auto& synth = opts.synth;
  auto& params = synth.params;
  auto& limits = synth.limits;
  read(src, "horizon", opts.horizon);
  if (src.has("seed")) {
    opts.seed = static_cast<std::uint64_t>(src.as_int("seed"));
  }
  if (src.has("policy")) {
    opts.policy = explore::parse_policy(src.as_string("policy"));
  }
  read(src, "transfer_overhead", opts.transfer_overhead);
  read(src, "window", params.window_size);
  read(src, "threshold", params.overlap_threshold);
  if (src.has("maxtb")) {
    params.max_targets_per_bus =
        as_int32(src, "maxtb", std::numeric_limits<int>::min());
  }
  read(src, "burst_window", params.burst_window);
  read(src, "conflicts", params.use_overlap_conflicts);
  read(src, "critical", params.separate_critical);
  read(src, "request_window", opts.request_window_override);
  read(src, "response_window", opts.response_window_override);
  if (src.has("solver")) {
    synth.solver = explore::parse_solver(src.as_string("solver"));
  }
  read(src, "optimize_binding", synth.optimize_binding);
  if (src.has("solver_node_limit")) {
    limits.max_nodes = bounded(src, "solver_node_limit", 1);
  }
  if (src.has("solver_time_ms")) {
    limits.time_limit_sec =
        static_cast<double>(bounded(src, "solver_time_ms", 0)) / 1000.0;
  }
  if (src.has("solver_threads")) {
    limits.threads = as_int32(src, "solver_threads", 1);
  }
  read(src, "solver_cuts", limits.cuts);
  read(src, "solver_portfolio", limits.portfolio);
  return opts;
}

}  // namespace

xbar::flow_options read_flow_options(const json::value& request,
                                     xbar::flow_options opts) {
  return read_fields(field_source(request), std::move(opts));
}

xbar::flow_options read_flow_options(const flag_set& flags,
                                     xbar::flow_options opts) {
  return read_fields(field_source(flags), std::move(opts));
}

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
  d.opts = read_flow_options(doc, d.opts);
  if (doc.contains("validate")) d.validate = doc.at("validate").as_bool();
  if (doc.contains("deadline_ms")) {
    const auto ms = doc.at("deadline_ms").as_int();
    STX_REQUIRE(ms >= 1, "deadline_ms must be >= 1");
    d.deadline_ms = ms;
  }
  if (doc.contains("artifacts")) {
    for (const auto& a : doc.at("artifacts").as_array()) {
      d.artifacts.push_back(a.as_string());
      gen::check_backend_name(d.artifacts.back());
    }
  }
  d.opts.validate();
  return req;
}

std::string serialize(const design_response& resp, const std::string& id) {
  json::object o;
  if (!id.empty()) o.emplace_back("id", id);
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

std::string serialize(const design_response& resp) {
  return serialize(resp, resp.id);
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
                             json::value embedded) {
  json::object o;
  if (!id.empty()) o.emplace_back("id", id);
  o.emplace_back("ok", true);
  o.emplace_back("op", to_string(op));
  if (!embedded.is_null()) o.emplace_back(to_string(op), std::move(embedded));
  return json::dump_compact(json::value(std::move(o)));
}

std::string serialize_metrics(const std::string& id, json::value metrics,
                              const live_gauges& live) {
  json::object o;
  if (!id.empty()) o.emplace_back("id", id);
  o.emplace_back("ok", true);
  o.emplace_back("op", to_string(request_op::metrics));
  o.emplace_back("metrics", std::move(metrics));
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
