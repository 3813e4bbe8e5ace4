// Crossbar design problem: parameters and the pre-processed input
// (paper Sections 4-5: data collection + pre-processing phases).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "traffic/windows.h"

namespace stx::xbar {

using cycle_t = traffic::cycle_t;

/// Tunable parameters of the design methodology (the design-space knobs
/// of Sec. 7: window size, overlap threshold, max targets per bus).
struct design_params {
  /// Window size WS in cycles for the traffic analysis. The paper's rule
  /// of thumb: 1-4x the typical burst size (aggressive..conservative).
  cycle_t window_size = 2000;

  /// Pre-processing overlap threshold (Eq. 2) as a fraction of a
  /// window's length: targets i and j are forced onto different buses
  /// when overlap_m(i, j) / length(m) > overlap_threshold in ANY window
  /// m, compared in double precision. The test is strict, so overlap of
  /// exactly the threshold does not conflict. Values of 0.5 and above add
  /// nothing Eq. 4 does not already exclude (Sec. 7.4: two streams
  /// overlapping more than half a window cannot share a bus anyway
  /// because of the bandwidth constraint); a huge threshold adds no
  /// conflict at all.
  double overlap_threshold = 0.30;

  /// maxtb (Eq. 8): cap on targets bound to one bus, bounding the
  /// worst-case serialisation latency. <= 0 disables the cap.
  int max_targets_per_bus = 4;

  /// Burst-adaptive variable analysis windows (the paper's Sec. 8 future
  /// work). 0 keeps the paper's uniform windows: ceil(horizon / WS)
  /// windows of exactly WS cycles, the last one extending past the
  /// horizon. When > 0, the windows are equal-work instead
  /// (traffic::window_partition::burst_adaptive): each ends at the first
  /// cycle where the window holds at least `burst_window` aggregate busy
  /// cycles of all targets, its length clamped to
  /// [max(1, WS/4), max(1, 4*WS)], and the last one ends at the horizon —
  /// fine resolution inside bursts, coarse in quiet phases. Each window's
  /// bus capacity is its own length, and the overlap threshold is
  /// relative to it.
  cycle_t burst_window = 0;

  /// Enables the overlap-threshold conflict pre-processing. Disabled by
  /// the average-traffic baseline ("previous approaches").
  bool use_overlap_conflicts = true;

  /// Forces targets with overlapping critical (real-time) streams onto
  /// separate buses so their guarantees hold (Sec. 7.3).
  bool separate_critical = true;

  bool operator==(const design_params&) const = default;
};

/// The pre-processed synthesis input: everything the MILPs consume.
/// Built once from a window analysis; immutable afterwards.
class synthesis_input {
 public:
  /// Runs the pre-processing phase on `wa` with `params`: copies
  /// comm[i][m], takes each window's length as its bus capacity, builds
  /// the overlap matrix OM (Eq. 1) and the conflict matrix (Eq. 2): a
  /// pair conflicts when params.use_overlap_conflicts and its
  /// max_overlap_fraction exceeds params.overlap_threshold, or when
  /// params.separate_critical and its critical streams overlap.
  synthesis_input(const traffic::window_analysis& wa,
                  const design_params& params);

  /// Estimate-driven construction (the paper notes the methodology "also
  /// applies to cases where application traces are not available and only
  /// rough estimates of the traffic flows ... is known"): supply
  /// comm[i][m], the overlap matrix and the conflict matrix directly.
  /// `om` must be symmetric with zero diagonal; `conflict` likewise.
  /// Every window's capacity is `window_size`.
  synthesis_input(std::vector<std::vector<cycle_t>> comm,
                  std::vector<std::vector<cycle_t>> om,
                  std::vector<std::vector<bool>> conflict,
                  cycle_t window_size, const design_params& params);

  int num_targets() const { return num_targets_; }
  int num_windows() const { return num_windows_; }
  /// The longest window (every window's length under a uniform
  /// partition).
  cycle_t window_size() const { return window_size_; }
  /// Bus capacity of window m in cycles (Eq. 4 right-hand side).
  cycle_t capacity(int m) const {
    return capacity_[static_cast<std::size_t>(m)];
  }
  const design_params& params() const { return params_; }

  /// comm[i][m] (Definition 2).
  cycle_t comm(int i, int m) const {
    return comm_[static_cast<std::size_t>(i)][static_cast<std::size_t>(m)];
  }
  /// om[i][j] (Eq. 1; diagonal 0, symmetric).
  cycle_t om(int i, int j) const {
    return om_[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
  }
  /// c[i][j] (Eq. 2).
  bool conflict(int i, int j) const {
    return conflict_[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
  }
  /// The whole conflict matrix, c[i][j] at [i][j].
  const std::vector<std::vector<bool>>& conflicts() const { return conflict_; }

  int num_conflicts() const;

  /// Checks a complete binding against Eq. 3-9: every target bound to a
  /// valid bus, per-window bandwidth respected on every bus, no conflict
  /// pair shares a bus, maxtb respected.
  bool binding_feasible(const std::vector<int>& binding,
                        int num_buses) const;

  /// Eq. 11 objective: max over buses of the summed pairwise overlap
  /// between targets sharing that bus (unordered pairs).
  cycle_t max_bus_overlap(const std::vector<int>& binding,
                          int num_buses) const;

  std::string to_string() const;

 private:
  int num_targets_ = 0;
  int num_windows_ = 0;
  cycle_t window_size_ = 0;
  design_params params_;
  std::vector<cycle_t> capacity_;  ///< per-window bus capacity
  std::vector<std::vector<cycle_t>> comm_;
  std::vector<std::vector<cycle_t>> om_;
  std::vector<std::vector<bool>> conflict_;
};

}  // namespace stx::xbar
