// Sweep results: per-point metrics, the Pareto front over
// (total_buses, avg_latency), and deterministic JSON / CSV / Markdown
// renderings reusing the gen:: artifact machinery.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "explore/grid.h"
#include "gen/artifact.h"
#include "xbar/flow.h"

namespace stx::explore {

/// One evaluated point: the parameter assignment plus the flow report it
/// produced. When the sweep ran with validation off, the report carries
/// the designs and bus counts but zero latency metrics.
struct sweep_result {
  std::string app_name;
  sweep_point point;
  xbar::flow_report report;
  bool validated = true;

  int total_buses() const { return report.designed_buses; }
  double avg_latency() const { return report.designed.avg_latency; }

  bool operator==(const sweep_result&) const = default;
};

/// Per-application trace-cache activity during one sweep. Deterministic
/// across worker thread counts: the cache's exactly-once insertion makes
/// misses = #distinct keys and hits = requests − misses, independent of
/// scheduling.
struct app_cache_stats {
  std::string app_name;
  std::int64_t trace_hits = 0;
  std::int64_t trace_misses = 0;

  double trace_hit_ratio() const {
    const auto total = trace_hits + trace_misses;
    return total > 0 ? static_cast<double>(trace_hits) /
                           static_cast<double>(total)
                     : 0.0;
  }

  bool operator==(const app_cache_stats&) const = default;
};

/// Everything one sweep produced, in deterministic order: application-
/// major (spec order), then grid-expansion order. Identical regardless of
/// the worker thread count.
struct sweep_report {
  std::vector<sweep_result> results;
  /// Indices into `results` on the per-application Pareto front over
  /// (total_buses, avg_latency), ascending.
  std::vector<std::size_t> pareto;
  traffic::cycle_t horizon = 0;
  std::uint64_t seed = 0;
  /// Phase-1 collection simulations actually run (trace-cache misses);
  /// one per (app, horizon, seed, policy, overhead) key, independent of
  /// the point and thread counts. Each is also its points' full-crossbar
  /// reference.
  std::int64_t phase1_simulations = 0;
  /// Phase-4 designed-configuration validations served from the
  /// persistent store instead of re-simulating (always 0 without a
  /// backing store or with validation off).
  std::int64_t designed_store_hits = 0;
  /// Trace-cache hit/miss activity per application, in spec order.
  std::vector<app_cache_stats> cache;

  bool operator==(const sweep_report&) const = default;
};

/// Non-dominated indices over (buses, latency), both minimised: index i
/// survives unless some j has buses <= and latency <= with at least one
/// strict. Equal pairs do not dominate each other, so exact duplicates
/// all stay on the front. Returned ascending.
std::vector<std::size_t> pareto_front(
    const std::vector<std::pair<int, double>>& points);

/// Per-application front over (total_buses(), avg_latency()): results of
/// different applications never dominate each other. Returned ascending.
std::vector<std::size_t> pareto_front(const std::vector<sweep_result>& results);

/// Deterministic renderings (fed from the report only, so they are
/// byte-identical across thread counts).
std::string render_json(const sweep_report& report);
std::string render_csv(const sweep_report& report);
std::string render_markdown(const sweep_report& report);

/// All three renderings as gen:: artifacts (<basename>.json/.csv/.md),
/// ready for gen::write_artifacts.
std::vector<gen::artifact> render_artifacts(const sweep_report& report,
                                            const std::string& basename);

}  // namespace stx::explore
