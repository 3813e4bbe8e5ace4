#include "gen/backends.h"

#include <algorithm>
#include <sstream>

#include "util/error.h"

namespace stx::gen {

namespace {

using cycle_t = traffic::cycle_t;

std::string escape_label(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

/// Pen width 1..5 proportional to weight / max_weight.
double pen_width(cycle_t weight, cycle_t max_weight) {
  if (max_weight <= 0 || weight <= 0) return 1.0;
  return 1.0 + 4.0 * static_cast<double>(weight) /
                   static_cast<double>(max_weight);
}

/// Per-sender load onto each bus: sum of the sender's traffic to every
/// receiver bound to that bus. Falls back to zeros when the report has no
/// traffic matrices.
std::vector<std::vector<cycle_t>> bus_loads(
    const std::vector<std::vector<cycle_t>>& links,
    const std::vector<int>& binding, int num_src, int num_buses) {
  std::vector<std::vector<cycle_t>> out(
      static_cast<std::size_t>(num_src),
      std::vector<cycle_t>(static_cast<std::size_t>(num_buses), 0));
  for (std::size_t s = 0; s < links.size() && s < out.size(); ++s) {
    for (std::size_t t = 0; t < links[s].size() && t < binding.size(); ++t) {
      out[s][static_cast<std::size_t>(binding[t])] += links[s][t];
    }
  }
  return out;
}

cycle_t max_entry(const std::vector<std::vector<cycle_t>>& m) {
  cycle_t best = 0;
  for (const auto& row : m) {
    for (cycle_t v : row) best = std::max(best, v);
  }
  return best;
}

}  // namespace

std::string emit_dot(const xbar::flow_report& r, const std::string& basename) {
  STX_REQUIRE(r.num_initiators > 0 && r.num_targets > 0,
              "DOT generation needs initiator and target counts in the "
              "flow report");
  const std::string& base = basename;
  const auto& req = r.request_design;
  const auto& resp = r.response_design;
  check_design(req, r.num_targets, "request");
  check_design(resp, r.num_initiators, "response");

  const auto target_names = padded_target_names(r);

  // Sender -> bus loads for edge weights.
  const auto req_loads =
      bus_loads(r.request_traffic, req.binding, r.num_initiators,
                req.num_buses);
  const auto resp_loads =
      bus_loads(r.response_traffic, resp.binding, r.num_targets,
                resp.num_buses);
  const auto req_totals = receiver_totals(r.request_traffic, r.num_targets);
  const auto resp_totals =
      receiver_totals(r.response_traffic, r.num_initiators);
  const cycle_t max_w =
      std::max({max_entry(req_loads), max_entry(resp_loads), cycle_t{1}});

  std::ostringstream out;
  out << "// " << r.app_name << " — designed STbus crossbar topology.\n"
      << "// Generated by stxbar; render with `dot -Tsvg`.\n"
      << "digraph " << base << "_xbar {\n"
      << "  rankdir=LR;\n"
      << "  node [fontname=\"Helvetica\", fontsize=10];\n"
      << "  edge [fontname=\"Helvetica\", fontsize=8];\n"
      << "\n  subgraph cluster_initiators {\n"
      << "    label=\"initiators\"; style=dashed;\n";
  for (int i = 0; i < r.num_initiators; ++i) {
    out << "    ini" << i << " [label=\"core" << i << "\", shape=oval];\n";
  }
  out << "  }\n"
      << "\n  subgraph cluster_req_buses {\n"
      << "    label=\"request buses (" << req.num_buses << ")\";\n";
  for (int k = 0; k < req.num_buses; ++k) {
    out << "    req_bus" << k << " [label=\"req bus " << k
        << "\", shape=box, style=filled, fillcolor=lightblue];\n";
  }
  out << "  }\n"
      << "\n  subgraph cluster_targets {\n"
      << "    label=\"targets\"; style=dashed;\n";
  for (int t = 0; t < r.num_targets; ++t) {
    out << "    tgt" << t << " [label=\""
        << escape_label(target_names[static_cast<std::size_t>(t)])
        << "\", shape=oval];\n";
  }
  out << "  }\n"
      << "\n  subgraph cluster_resp_buses {\n"
      << "    label=\"response buses (" << resp.num_buses << ")\";\n";
  for (int k = 0; k < resp.num_buses; ++k) {
    out << "    resp_bus" << k << " [label=\"resp bus " << k
        << "\", shape=box, style=filled, fillcolor=lightsalmon];\n";
  }
  out << "  }\n\n";

  // Initiator -> request bus edges (weight: cycles the initiator pushes
  // through that bus).
  out << "  // initiator -> request-bus links\n";
  for (int i = 0; i < r.num_initiators; ++i) {
    for (int k = 0; k < req.num_buses; ++k) {
      const cycle_t w = req_loads[static_cast<std::size_t>(i)]
                                 [static_cast<std::size_t>(k)];
      if (w <= 0 && !r.request_traffic.empty()) continue;
      out << "  ini" << i << " -> req_bus" << k;
      if (w > 0) {
        out << " [label=\"" << w << "\", penwidth="
            << pen_width(w, max_w) << "]";
      }
      out << ";\n";
    }
  }

  // Request bus -> target binding edges.
  out << "\n  // request-bus -> target bindings\n";
  for (int t = 0; t < r.num_targets; ++t) {
    const int k = req.binding[static_cast<std::size_t>(t)];
    out << "  req_bus" << k << " -> tgt" << t;
    const cycle_t w = req_totals[static_cast<std::size_t>(t)];
    if (w > 0) {
      out << " [label=\"" << w << "\", penwidth=" << pen_width(w, max_w)
          << "]";
    }
    out << ";\n";
  }

  // Target -> response bus edges.
  out << "\n  // target -> response-bus links\n";
  for (int t = 0; t < r.num_targets; ++t) {
    for (int k = 0; k < resp.num_buses; ++k) {
      const cycle_t w = resp_loads[static_cast<std::size_t>(t)]
                                  [static_cast<std::size_t>(k)];
      if (w <= 0 && !r.response_traffic.empty()) continue;
      out << "  tgt" << t << " -> resp_bus" << k;
      if (w > 0) {
        out << " [label=\"" << w << "\", penwidth="
            << pen_width(w, max_w) << "]";
      }
      out << ";\n";
    }
  }

  // Response bus -> initiator binding edges.
  out << "\n  // response-bus -> initiator bindings\n";
  for (int i = 0; i < r.num_initiators; ++i) {
    const int k = resp.binding[static_cast<std::size_t>(i)];
    out << "  resp_bus" << k << " -> ini" << i;
    const cycle_t w = resp_totals[static_cast<std::size_t>(i)];
    if (w > 0) {
      out << " [label=\"" << w << "\", penwidth=" << pen_width(w, max_w)
          << "]";
    }
    out << ";\n";
  }

  out << "}\n";
  return out.str();
}

}  // namespace stx::gen
