// Sweep grids: the parameter axes of a design-space exploration and
// their expansion into concrete evaluation points. The paper's Sec. 7
// experiments (Figs. 4-6) are exactly such sweeps — window size, overlap
// threshold, maxtb — run per application to pick the best crossbar.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sim/config.h"
#include "traffic/trace.h"
#include "xbar/synthesis.h"

namespace stx::explore {

using cycle_t = traffic::cycle_t;

/// One concrete parameter assignment of the design methodology: every
/// knob the flow exposes per evaluation. Defaults match the xbargen CLI
/// defaults, so an axis left off a grid sweeps nothing and keeps the
/// standard value.
struct sweep_point {
  cycle_t window_size = 400;          ///< analysis window WS (cycles)
  double overlap_threshold = 0.30;    ///< Eq. 2 threshold (fraction of WS)
  int max_targets_per_bus = 4;        ///< Eq. 8 maxtb; 0 = off
  cycle_t burst_window = 0;           ///< busy cycles per burst-adaptive
                                      ///< variable window; 0 = uniform
  sim::arbitration policy = sim::arbitration::round_robin;
  xbar::solver_kind solver = xbar::solver_kind::specialized;
  cycle_t request_window = 0;         ///< per-direction WS override; 0 = WS
  cycle_t response_window = 0;        ///< per-direction WS override; 0 = WS

  bool operator==(const sweep_point&) const = default;

  /// Compact one-line spelling, e.g. "win=400 thr=0.30 maxtb=4 policy=rr".
  std::string to_string() const;
};

/// One value list per methodology knob. An empty axis contributes the
/// sweep_point default; expand_grid crosses the non-empty axes.
struct sweep_grid {
  std::vector<cycle_t> window_sizes;
  std::vector<double> overlap_thresholds;
  std::vector<int> max_targets_per_bus;
  std::vector<cycle_t> burst_windows;
  std::vector<sim::arbitration> policies;
  std::vector<xbar::solver_kind> solvers;
  std::vector<cycle_t> request_windows;
  std::vector<cycle_t> response_windows;

  bool operator==(const sweep_grid&) const = default;

  /// True when every axis is empty (expand_grid would yield the single
  /// all-defaults point; CLIs treat this as a usage error instead).
  bool empty() const;

  /// Cross-product cardinality before deduplication (empty axes count 1).
  std::size_t num_points() const;
};

/// Expands the cross product of the non-empty axes, window-size-major /
/// response-window-minor, preserving each axis's value order. Duplicate
/// points (e.g. a value listed twice on an axis) are dropped, keeping the
/// first occurrence, so the result is a set in deterministic order.
std::vector<sweep_point> expand_grid(const sweep_grid& grid);

/// The axis keys understood by parse_grid_axis, in expansion order:
/// win, thr, maxtb, burstwin, policy, solver, reqwin, respwin.
const std::vector<std::string>& grid_keys();

/// Parses one CLI axis spec "key=v1,v2,..." into `grid` (appending to the
/// named axis). Throws stx::invalid_argument_error on an unknown key
/// (listing the valid ones), an empty value list, or a malformed value —
/// a sweep must never silently run zero points.
void parse_grid_axis(const std::string& spec, sweep_grid& grid);

/// parse_grid_axis over every spec in order.
sweep_grid parse_grid(const std::vector<std::string>& specs);

}  // namespace stx::explore
