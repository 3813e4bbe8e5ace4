// Window-based traffic analysis (paper Sections 4-5).
//
// A window partition divides the simulation period into consecutive
// windows: equal ones of the paper's window size WS, or burst-adaptive
// ones (the paper's Sec. 8 future work: "analyze the effect of using
// variable simulation window sizes"). Over a partition the analysis
// records the busy cycles of every target per window (comm[i][m],
// Definition 2) and, per target pair, the overlap matrix entry OM
// (Eq. 1), the largest overlap as a fraction of its window's length
// (what the Eq. 2 overlap threshold tests) and the overlap of critical
// streams (Sec. 7.3).
#pragma once

#include <vector>

#include "traffic/trace.h"

namespace stx::traffic {

/// A partition of [0, horizon) into consecutive windows.
class window_partition {
 public:
  /// `boundaries` must start at 0, be strictly increasing, and end at the
  /// horizon (the last element is the exclusive end of the last window).
  explicit window_partition(std::vector<cycle_t> boundaries);

  /// The paper's equal windows: ceil(horizon / window_size) windows of
  /// `window_size` cycles each. The last one ends at
  /// ceil(horizon / window_size) * window_size, so a partial last window
  /// still has a full window's length (and bus capacity).
  static window_partition uniform(cycle_t horizon, cycle_t window_size);

  /// Equal-work windows: each window contains roughly the same number of
  /// aggregate busy cycles of `t`, with window lengths clamped to
  /// [min_size, max_size]. Dense phases get short windows (fine
  /// resolution exactly where QoS is at risk), quiet phases long ones (so
  /// the design is not over-fitted to silence).
  static window_partition burst_adaptive(const trace& t,
                                         cycle_t target_busy_per_window,
                                         cycle_t min_size, cycle_t max_size);

  int num_windows() const {
    return static_cast<int>(boundaries_.size()) - 1;
  }
  cycle_t begin(int m) const;
  cycle_t end(int m) const;
  cycle_t size(int m) const { return end(m) - begin(m); }
  cycle_t horizon() const { return boundaries_.back(); }
  /// Window m is [boundaries()[m], boundaries()[m + 1]).
  const std::vector<cycle_t>& boundaries() const { return boundaries_; }

  /// Largest window length in the partition.
  cycle_t max_size() const;

 private:
  std::vector<cycle_t> boundaries_;
};

/// The analysis of one trace over one window partition.
class window_analysis {
 public:
  /// `part` must cover the trace: part.horizon() >= t.horizon().
  window_analysis(const trace& t, window_partition part);

  const window_partition& partition() const { return part_; }
  int num_windows() const { return part_.num_windows(); }
  int num_targets() const { return num_targets_; }

  /// comm[i][m]: busy cycles of target `i` inside window `m`.
  cycle_t comm(int target, int window) const;

  /// om[i][j]: cycles in which targets i and j both receive data, summed
  /// over the windows (Eq. 1). Symmetric; 0 on the diagonal by convention.
  cycle_t total_overlap(int i, int j) const;

  /// max over windows m of overlap_m(i, j) / size(m): what the overlap
  /// threshold tests (Eq. 2). Symmetric; 0 on the diagonal.
  double max_overlap_fraction(int i, int j) const;

  /// Same-cycle overlap restricted to critical events of both targets,
  /// summed over the trace; > 0 means the real-time streams collide and
  /// the pre-processing must separate the two targets (Sec. 7.3).
  cycle_t critical_overlap(int i, int j) const;

 private:
  int pair_index(int i, int j) const;

  window_partition part_;
  int num_targets_ = 0;
  // comm_[i * num_windows() + m]
  std::vector<cycle_t> comm_;
  // Per unordered pair (i < j), row-major upper triangle.
  std::vector<cycle_t> pair_total_;
  std::vector<double> pair_max_fraction_;
  std::vector<cycle_t> pair_critical_;
};

}  // namespace stx::traffic
