#include "gen/json_backend.h"

#include "gen/json.h"
#include "util/error.h"

namespace stx::gen {

namespace {

constexpr const char* kSchema = "stx-crossbar-design/v1";

using cycle_t = traffic::cycle_t;

json::value cycles_matrix(const std::vector<std::vector<cycle_t>>& m) {
  json::array rows;
  rows.reserve(m.size());
  for (const auto& row : m) {
    json::array r;
    r.reserve(row.size());
    for (cycle_t v : row) r.emplace_back(static_cast<std::int64_t>(v));
    rows.emplace_back(std::move(r));
  }
  return json::value(std::move(rows));
}

std::vector<std::vector<cycle_t>> parse_cycles_matrix(const json::value& v) {
  std::vector<std::vector<cycle_t>> out;
  for (const auto& row : v.as_array()) {
    std::vector<cycle_t> r;
    for (const auto& e : row.as_array()) {
      r.push_back(static_cast<cycle_t>(e.as_int()));
    }
    out.push_back(std::move(r));
  }
  return out;
}

// The documents below are built member by member with emplace_back: a
// braced json::object{...} copies every nested value out of its
// initializer_list.

json::value design_to_json(const xbar::crossbar_design& d) {
  json::array binding;
  binding.reserve(d.binding.size());
  for (int b : d.binding) binding.emplace_back(b);
  json::object params;
  params.emplace_back("window_size",
                      static_cast<std::int64_t>(d.params.window_size));
  params.emplace_back("overlap_threshold", d.params.overlap_threshold);
  params.emplace_back("max_targets_per_bus", d.params.max_targets_per_bus);
  params.emplace_back("use_overlap_conflicts",
                      d.params.use_overlap_conflicts);
  params.emplace_back("separate_critical", d.params.separate_critical);
  json::object telemetry;
  telemetry.emplace_back("feasibility_nodes", d.feasibility_nodes);
  telemetry.emplace_back("binding_nodes", d.binding_nodes);
  telemetry.emplace_back("probes", d.probes);

  json::object o;
  o.emplace_back("num_targets", d.num_targets);
  o.emplace_back("num_buses", d.num_buses);
  o.emplace_back("binding", std::move(binding));
  o.emplace_back("max_overlap", static_cast<std::int64_t>(d.max_overlap));
  o.emplace_back("binding_optimal", d.binding_optimal);
  o.emplace_back("num_conflicts", d.num_conflicts);
  o.emplace_back("params", std::move(params));
  o.emplace_back("telemetry", std::move(telemetry));
  return json::value(std::move(o));
}

xbar::crossbar_design design_from_json(const json::value& v) {
  xbar::crossbar_design d;
  d.num_targets = static_cast<int>(v.at("num_targets").as_int());
  d.num_buses = static_cast<int>(v.at("num_buses").as_int());
  for (const auto& b : v.at("binding").as_array()) {
    d.binding.push_back(static_cast<int>(b.as_int()));
  }
  d.max_overlap = static_cast<cycle_t>(v.at("max_overlap").as_int());
  d.binding_optimal = v.at("binding_optimal").as_bool();
  d.num_conflicts = static_cast<int>(v.at("num_conflicts").as_int());
  const auto& p = v.at("params");
  d.params.window_size = static_cast<cycle_t>(p.at("window_size").as_int());
  d.params.overlap_threshold = p.at("overlap_threshold").as_double();
  d.params.max_targets_per_bus =
      static_cast<int>(p.at("max_targets_per_bus").as_int());
  d.params.use_overlap_conflicts = p.at("use_overlap_conflicts").as_bool();
  d.params.separate_critical = p.at("separate_critical").as_bool();
  const auto& t = v.at("telemetry");
  d.feasibility_nodes = t.at("feasibility_nodes").as_int();
  d.binding_nodes = t.at("binding_nodes").as_int();
  d.probes = static_cast<int>(t.at("probes").as_int());
  return d;
}

json::value metrics_to_json(const xbar::validation_metrics& m) {
  json::object o;
  append_metrics(o, m);
  return json::value(std::move(o));
}

}  // namespace

void append_metrics(json::object& out, const xbar::validation_metrics& m) {
  out.emplace_back("avg_latency", m.avg_latency);
  out.emplace_back("max_latency", m.max_latency);
  out.emplace_back("p99_latency", m.p99_latency);
  out.emplace_back("avg_critical", m.avg_critical);
  out.emplace_back("max_critical", m.max_critical);
  out.emplace_back("packets", m.packets);
  out.emplace_back("transactions", m.transactions);
  out.emplace_back("iterations", m.iterations);
  out.emplace_back("total_buses", m.total_buses);
}

xbar::validation_metrics metrics_from_json(const json::value& v) {
  xbar::validation_metrics m;
  m.avg_latency = v.at("avg_latency").as_double();
  m.max_latency = v.at("max_latency").as_double();
  m.p99_latency = v.at("p99_latency").as_double();
  m.avg_critical = v.at("avg_critical").as_double();
  m.max_critical = v.at("max_critical").as_double();
  m.packets = v.at("packets").as_int();
  m.transactions = v.at("transactions").as_int();
  m.iterations = v.at("iterations").as_int();
  m.total_buses = static_cast<int>(v.at("total_buses").as_int());
  return m;
}

json::value design_document(const xbar::flow_report& r) {
  json::array target_names;
  target_names.reserve(r.target_names.size());
  for (const auto& n : r.target_names) target_names.emplace_back(n);
  json::object application;
  application.emplace_back("name", r.app_name);
  application.emplace_back("num_initiators", r.num_initiators);
  application.emplace_back("num_targets", r.num_targets);
  application.emplace_back("target_names", std::move(target_names));
  json::object metrics;
  metrics.emplace_back("designed", metrics_to_json(r.designed));
  metrics.emplace_back("full", metrics_to_json(r.full));
  json::object cost;
  cost.emplace_back("full_buses", r.full_buses);
  cost.emplace_back("designed_buses", r.designed_buses);
  cost.emplace_back("savings", r.savings());
  json::object traffic;
  traffic.emplace_back("request", cycles_matrix(r.request_traffic));
  traffic.emplace_back("response", cycles_matrix(r.response_traffic));

  json::object doc;
  doc.emplace_back("schema", kSchema);
  doc.emplace_back("application", std::move(application));
  doc.emplace_back("request", design_to_json(r.request_design));
  doc.emplace_back("response", design_to_json(r.response_design));
  doc.emplace_back("metrics", std::move(metrics));
  doc.emplace_back("cost", std::move(cost));
  doc.emplace_back("traffic", std::move(traffic));
  return json::value(std::move(doc));
}

xbar::flow_report design_from_document(const json::value& doc) {
  STX_REQUIRE(doc.contains("schema") &&
                  doc.at("schema").as_string() == kSchema,
              std::string("not a ") + kSchema + " document");

  xbar::flow_report r;
  const auto& app = doc.at("application");
  r.app_name = app.at("name").as_string();
  r.num_initiators = static_cast<int>(app.at("num_initiators").as_int());
  r.num_targets = static_cast<int>(app.at("num_targets").as_int());
  for (const auto& n : app.at("target_names").as_array()) {
    r.target_names.push_back(n.as_string());
  }
  r.request_design = design_from_json(doc.at("request"));
  r.response_design = design_from_json(doc.at("response"));
  r.designed = metrics_from_json(doc.at("metrics").at("designed"));
  r.full = metrics_from_json(doc.at("metrics").at("full"));
  r.full_buses = static_cast<int>(doc.at("cost").at("full_buses").as_int());
  r.designed_buses =
      static_cast<int>(doc.at("cost").at("designed_buses").as_int());
  r.request_traffic = parse_cycles_matrix(doc.at("traffic").at("request"));
  r.response_traffic = parse_cycles_matrix(doc.at("traffic").at("response"));
  return r;
}

std::string json_backend::emit(const xbar::flow_report& r,
                               const std::string& /*basename*/) const {
  return json::dump(design_document(r));
}

xbar::flow_report parse_design(const std::string& text) {
  return design_from_document(json::parse(text));
}

}  // namespace stx::gen
