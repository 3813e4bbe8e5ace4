#include "xbar/problem.h"

#include <sstream>

#include "util/error.h"

namespace stx::xbar {

synthesis_input::synthesis_input(const traffic::window_analysis& wa,
                                 const design_params& params)
    : num_targets_(wa.num_targets()),
      num_windows_(wa.num_windows()),
      window_size_(wa.partition().max_size()),
      params_(params) {
  STX_REQUIRE(num_targets_ > 0, "synthesis needs at least one target");
  STX_REQUIRE(params.overlap_threshold >= 0.0,
              "overlap threshold must be non-negative");

  const auto n = static_cast<std::size_t>(num_targets_);
  const auto w = static_cast<std::size_t>(num_windows_);
  capacity_.resize(w);
  comm_.assign(n, std::vector<cycle_t>(w, 0));
  om_.assign(n, std::vector<cycle_t>(n, 0));
  conflict_.assign(n, std::vector<bool>(n, false));

  for (int m = 0; m < num_windows_; ++m) {
    capacity_[static_cast<std::size_t>(m)] = wa.partition().size(m);
  }
  for (int i = 0; i < num_targets_; ++i) {
    for (int m = 0; m < num_windows_; ++m) {
      comm_[static_cast<std::size_t>(i)][static_cast<std::size_t>(m)] =
          wa.comm(i, m);
    }
  }
  for (int i = 0; i < num_targets_; ++i) {
    for (int j = i + 1; j < num_targets_; ++j) {
      const auto si = static_cast<std::size_t>(i);
      const auto sj = static_cast<std::size_t>(j);
      om_[si][sj] = om_[sj][si] = wa.total_overlap(i, j);
      const bool c =
          (params.use_overlap_conflicts &&
           wa.max_overlap_fraction(i, j) > params.overlap_threshold) ||
          (params.separate_critical && wa.critical_overlap(i, j) > 0);
      conflict_[si][sj] = conflict_[sj][si] = c;
    }
  }
}

synthesis_input::synthesis_input(std::vector<std::vector<cycle_t>> comm,
                                 std::vector<std::vector<cycle_t>> om,
                                 std::vector<std::vector<bool>> conflict,
                                 cycle_t window_size,
                                 const design_params& params)
    : num_targets_(static_cast<int>(comm.size())),
      window_size_(window_size),
      params_(params),
      comm_(std::move(comm)),
      om_(std::move(om)),
      conflict_(std::move(conflict)) {
  STX_REQUIRE(num_targets_ > 0, "synthesis needs at least one target");
  STX_REQUIRE(window_size_ > 0, "window size must be positive");
  num_windows_ = static_cast<int>(comm_.front().size());
  STX_REQUIRE(num_windows_ > 0, "need at least one window");
  capacity_.assign(static_cast<std::size_t>(num_windows_), window_size_);
  const auto n = static_cast<std::size_t>(num_targets_);
  STX_REQUIRE(om_.size() == n && conflict_.size() == n,
              "matrix dimensions must match target count");
  for (int i = 0; i < num_targets_; ++i) {
    const auto si = static_cast<std::size_t>(i);
    STX_REQUIRE(comm_[si].size() == static_cast<std::size_t>(num_windows_),
                "ragged comm matrix");
    STX_REQUIRE(om_[si].size() == n && conflict_[si].size() == n,
                "ragged om/conflict matrix");
    STX_REQUIRE(om_[si][si] == 0, "om diagonal must be zero");
    STX_REQUIRE(!conflict_[si][si], "conflict diagonal must be false");
    for (int m = 0; m < num_windows_; ++m) {
      STX_REQUIRE(comm_[si][static_cast<std::size_t>(m)] >= 0 &&
                      comm_[si][static_cast<std::size_t>(m)] <= window_size_,
                  "comm must lie in [0, window_size]");
    }
    for (int j = 0; j < num_targets_; ++j) {
      const auto sj = static_cast<std::size_t>(j);
      STX_REQUIRE(om_[si][sj] == om_[sj][si], "om must be symmetric");
      STX_REQUIRE(conflict_[si][sj] == conflict_[sj][si],
                  "conflict must be symmetric");
      STX_REQUIRE(om_[si][sj] >= 0, "om must be non-negative");
    }
  }
}

int synthesis_input::num_conflicts() const {
  int acc = 0;
  for (int i = 0; i < num_targets_; ++i) {
    for (int j = i + 1; j < num_targets_; ++j) {
      acc += conflict(i, j) ? 1 : 0;
    }
  }
  return acc;
}

bool synthesis_input::binding_feasible(const std::vector<int>& binding,
                                       int num_buses) const {
  if (static_cast<int>(binding.size()) != num_targets_) return false;
  if (num_buses < 1) return false;
  for (int b : binding) {
    if (b < 0 || b >= num_buses) return false;  // Eq. 3
  }
  // Eq. 8: cardinality per bus.
  if (params_.max_targets_per_bus > 0) {
    std::vector<int> count(static_cast<std::size_t>(num_buses), 0);
    for (int b : binding) ++count[static_cast<std::size_t>(b)];
    for (int c : count) {
      if (c > params_.max_targets_per_bus) return false;
    }
  }
  // Eq. 7: conflicts.
  for (int i = 0; i < num_targets_; ++i) {
    for (int j = i + 1; j < num_targets_; ++j) {
      if (conflict(i, j) &&
          binding[static_cast<std::size_t>(i)] ==
              binding[static_cast<std::size_t>(j)]) {
        return false;
      }
    }
  }
  // Eq. 4: per-window bandwidth on every bus (against the window's own
  // capacity, which varies under burst-adaptive partitions).
  for (int m = 0; m < num_windows_; ++m) {
    std::vector<cycle_t> load(static_cast<std::size_t>(num_buses), 0);
    for (int i = 0; i < num_targets_; ++i) {
      load[static_cast<std::size_t>(binding[static_cast<std::size_t>(i)])] +=
          comm(i, m);
    }
    for (cycle_t l : load) {
      if (l > capacity(m)) return false;
    }
  }
  return true;
}

cycle_t synthesis_input::max_bus_overlap(const std::vector<int>& binding,
                                         int num_buses) const {
  STX_REQUIRE(static_cast<int>(binding.size()) == num_targets_,
              "binding size mismatch");
  std::vector<cycle_t> ov(static_cast<std::size_t>(num_buses), 0);
  for (int i = 0; i < num_targets_; ++i) {
    for (int j = i + 1; j < num_targets_; ++j) {
      if (binding[static_cast<std::size_t>(i)] !=
          binding[static_cast<std::size_t>(j)]) {
        continue;
      }
      ov[static_cast<std::size_t>(binding[static_cast<std::size_t>(i)])] +=
          om(i, j);
    }
  }
  cycle_t best = 0;
  for (cycle_t v : ov) best = std::max(best, v);
  return best;
}

std::string synthesis_input::to_string() const {
  std::ostringstream out;
  out << "synthesis_input{targets=" << num_targets_
      << ", windows=" << num_windows_ << ", WS=" << window_size_
      << ", conflicts=" << num_conflicts() << "}";
  return out.str();
}

}  // namespace stx::xbar
