#include "explore/report.h"

#include <algorithm>
#include <cstdio>

// GCC 12's -O2 dataflow falsely flags std::variant move internals as
// maybe-uninitialized when vectors of json::value reallocate (GCC
// PR105562); the diagnostic points inside libstdc++ headers, so it can
// only be silenced at the consuming TU.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include "gen/json.h"
#include "util/table.h"

namespace stx::explore {

namespace {

const char* solver_name(xbar::solver_kind s) {
  return s == xbar::solver_kind::specialized ? "specialized" : "milp";
}

double latency_vs_full(const xbar::flow_report& r) {
  if (r.full.avg_latency <= 0.0) return 0.0;
  return r.designed.avg_latency / r.full.avg_latency;
}

std::vector<bool> pareto_mask(const sweep_report& report) {
  std::vector<bool> mask(report.results.size(), false);
  for (const auto i : report.pareto) mask[i] = true;
  return mask;
}

}  // namespace

std::vector<std::size_t> pareto_front(
    const std::vector<std::pair<int, double>>& points) {
  std::vector<std::size_t> front;
  for (std::size_t i = 0; i < points.size(); ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < points.size() && !dominated; ++j) {
      if (i == j) continue;
      const bool no_worse = points[j].first <= points[i].first &&
                            points[j].second <= points[i].second;
      const bool better = points[j].first < points[i].first ||
                          points[j].second < points[i].second;
      dominated = no_worse && better;
    }
    if (!dominated) front.push_back(i);
  }
  return front;
}

std::vector<std::size_t> pareto_front(
    const std::vector<sweep_result>& results) {
  // Group indices per application, run the pairwise front per group, and
  // merge; results of different apps never dominate each other.
  std::vector<std::string> apps;
  for (const auto& r : results) {
    if (std::find(apps.begin(), apps.end(), r.app_name) == apps.end()) {
      apps.push_back(r.app_name);
    }
  }
  std::vector<std::size_t> front;
  for (const auto& app : apps) {
    std::vector<std::size_t> indices;
    std::vector<std::pair<int, double>> points;
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (results[i].app_name != app) continue;
      indices.push_back(i);
      points.emplace_back(results[i].total_buses(),
                          results[i].avg_latency());
    }
    for (const auto local : pareto_front(points)) {
      front.push_back(indices[local]);
    }
  }
  std::sort(front.begin(), front.end());
  return front;
}

std::string render_json(const sweep_report& report) {
  namespace json = gen::json;
  const auto mask = pareto_mask(report);
  json::array results;
  results.reserve(report.results.size());
  for (std::size_t i = 0; i < report.results.size(); ++i) {
    const auto& r = report.results[i];
    const auto& p = r.point;
    results.push_back(json::object{
        {"app", r.app_name},
        {"point",
         json::object{
             {"window_size", static_cast<std::int64_t>(p.window_size)},
             {"overlap_threshold", p.overlap_threshold},
             {"max_targets_per_bus", p.max_targets_per_bus},
             {"burst_window", static_cast<std::int64_t>(p.burst_window)},
             {"policy", sim::to_string(p.policy)},
             {"solver", solver_name(p.solver)},
             {"request_window", static_cast<std::int64_t>(p.request_window)},
             {"response_window",
              static_cast<std::int64_t>(p.response_window)},
         }},
        {"request_buses", r.report.request_design.num_buses},
        {"response_buses", r.report.response_design.num_buses},
        {"total_buses", r.total_buses()},
        {"full_buses", r.report.full_buses},
        {"savings", r.report.savings()},
        {"request_conflicts", r.report.request_design.num_conflicts},
        {"response_conflicts", r.report.response_design.num_conflicts},
        {"validated", r.validated},
        {"avg_latency", r.avg_latency()},
        {"p99_latency", r.report.designed.p99_latency},
        {"max_latency", r.report.designed.max_latency},
        {"latency_vs_full", latency_vs_full(r.report)},
        {"pareto", static_cast<bool>(mask[i])},
    });
  }
  json::array pareto;
  for (const auto i : report.pareto) {
    pareto.push_back(static_cast<std::int64_t>(i));
  }
  json::array cache;
  cache.reserve(report.cache.size());
  for (const auto& c : report.cache) {
    cache.push_back(json::object{
        {"app", c.app_name},
        {"horizon", static_cast<std::int64_t>(report.horizon)},
        {"seed", static_cast<std::int64_t>(report.seed)},
        {"trace_hits", c.trace_hits},
        {"trace_misses", c.trace_misses},
        {"trace_hit_ratio", c.trace_hit_ratio()},
    });
  }
  json::object doc{
      {"format", "stxbar-sweep-v2"},
      {"horizon", static_cast<std::int64_t>(report.horizon)},
      {"seed", static_cast<std::int64_t>(report.seed)},
      {"points", static_cast<std::int64_t>(report.results.size())},
      {"phase1_simulations", report.phase1_simulations},
      {"cache", std::move(cache)},
      {"results", std::move(results)},
      {"pareto", std::move(pareto)},
  };
  return json::dump(doc);
}

namespace {

/// The shared tabular view of a report (CSV and Markdown render it).
table result_table(const sweep_report& report) {
  const auto mask = pareto_mask(report);
  table t({"app", "window", "threshold", "maxtb", "burstwin", "policy",
           "solver", "reqwin", "respwin", "req_buses", "resp_buses",
           "total_buses", "full_buses", "savings", "avg_latency",
           "p99_latency", "max_latency", "pareto"});
  for (std::size_t i = 0; i < report.results.size(); ++i) {
    const auto& r = report.results[i];
    const auto& p = r.point;
    t.cell(r.app_name)
        .cell(static_cast<std::int64_t>(p.window_size))
        .cell(p.overlap_threshold, 2)
        .cell(p.max_targets_per_bus)
        .cell(static_cast<std::int64_t>(p.burst_window))
        .cell(sim::to_string(p.policy))
        .cell(solver_name(p.solver))
        .cell(static_cast<std::int64_t>(p.request_window))
        .cell(static_cast<std::int64_t>(p.response_window))
        .cell(r.report.request_design.num_buses)
        .cell(r.report.response_design.num_buses)
        .cell(r.total_buses())
        .cell(r.report.full_buses)
        .cell(r.report.savings(), 2)
        .cell(r.avg_latency(), 2)
        .cell(r.report.designed.p99_latency, 2)
        .cell(r.report.designed.max_latency, 0)
        .cell(mask[i] ? "yes" : "no")
        .end_row();
  }
  return t;
}

}  // namespace

std::string render_csv(const sweep_report& report) {
  return result_table(report).render_csv();
}

std::string render_markdown(const sweep_report& report) {
  const auto mask = pareto_mask(report);
  std::string out = "# Design-space sweep\n\n";
  out += "- points: " + std::to_string(report.results.size()) + "\n";
  out += "- horizon: " + std::to_string(report.horizon) + " cycles, seed " +
         std::to_string(report.seed) + "\n";
  out += "- phase-1 simulations: " +
         std::to_string(report.phase1_simulations) +
         " (trace cache shares one per app/settings key)\n\n";
  if (!report.cache.empty()) {
    out += "## Trace cache\n\n";
    out +=
        "| app | horizon | seed | trace hits | trace misses | hit ratio "
        "|\n|---|---|---|---|---|---|\n";
    char cbuf[64];
    for (const auto& c : report.cache) {
      std::snprintf(cbuf, sizeof(cbuf), "%.2f", c.trace_hit_ratio());
      out += "| " + c.app_name + " | " + std::to_string(report.horizon) +
             " | " + std::to_string(report.seed) + " | " +
             std::to_string(c.trace_hits) + " | " +
             std::to_string(c.trace_misses) + " | " + cbuf + " |\n";
    }
    out += "\n";
  }
  out += "## Points\n\n";
  out +=
      "| app | point | buses (req+resp) | savings | avg latency | pareto "
      "|\n|---|---|---|---|---|---|\n";
  char buf[64];
  for (std::size_t i = 0; i < report.results.size(); ++i) {
    const auto& r = report.results[i];
    out += "| " + r.app_name + " | `" + r.point.to_string() + "` | " +
           std::to_string(r.report.request_design.num_buses) + "+" +
           std::to_string(r.report.response_design.num_buses) + " = " +
           std::to_string(r.total_buses()) + " | ";
    std::snprintf(buf, sizeof(buf), "%.2fx", r.report.savings());
    out += buf;
    out += " | ";
    std::snprintf(buf, sizeof(buf), "%.2f", r.avg_latency());
    out += buf;
    out += " | ";
    out += mask[i] ? "**yes**" : "no";
    out += " |\n";
  }
  out += "\n## Pareto front (total buses vs avg latency, per app)\n\n";
  if (report.pareto.empty()) {
    out += "(empty)\n";
  } else {
    for (const auto i : report.pareto) {
      const auto& r = report.results[i];
      std::snprintf(buf, sizeof(buf), "%.2f", r.avg_latency());
      out += "- " + r.app_name + ": " + std::to_string(r.total_buses()) +
             " buses, avg latency " + buf + " — `" + r.point.to_string() +
             "`\n";
    }
  }
  return out;
}

std::vector<gen::artifact> render_artifacts(const sweep_report& report,
                                            const std::string& basename) {
  const auto stem = gen::sanitize_basename(basename);
  return {
      {"sweep-json", stem + ".json", render_json(report)},
      {"sweep-csv", stem + ".csv", render_csv(report)},
      {"sweep-md", stem + ".md", render_markdown(report)},
  };
}

}  // namespace stx::explore
