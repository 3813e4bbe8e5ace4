#include "traffic/windows.h"

#include <algorithm>
#include <limits>

#include "util/error.h"

namespace stx::traffic {

namespace {

/// Every target's merged busy intervals, and those of its critical
/// events alone, built in one pass over the events.
struct target_intervals {
  std::vector<interval_list> busy;
  std::vector<interval_list> critical;
};

target_intervals intervals_by_target(const trace& t) {
  const auto n = static_cast<std::size_t>(t.num_targets());
  target_intervals out{std::vector<interval_list>(n),
                       std::vector<interval_list>(n)};
  for (const auto& e : t.events()) {
    const auto i = static_cast<std::size_t>(e.target);
    out.busy[i].emplace_back(e.begin, e.end);
    if (e.critical) out.critical[i].emplace_back(e.begin, e.end);
  }
  for (auto& list : out.busy) merge_intervals(list);
  for (auto& list : out.critical) merge_intervals(list);
  return out;
}

/// Calls fn(begin, end) for each interval of the intersection of two
/// sorted disjoint interval lists, in increasing order.
template <class Fn>
void for_each_intersection(const interval_list& a, const interval_list& b,
                           Fn&& fn) {
  std::size_t ia = 0, ib = 0;
  while (ia < a.size() && ib < b.size()) {
    const cycle_t begin = std::max(a[ia].first, b[ib].first);
    const cycle_t end = std::min(a[ia].second, b[ib].second);
    if (end > begin) fn(begin, end);
    // Advance whichever interval finishes first.
    if (a[ia].second <= b[ib].second) {
      ++ia;
    } else {
      ++ib;
    }
  }
}

/// Splits [begin, end) over the windows of `bounds` (window m is
/// [bounds[m], bounds[m + 1])), calling add(m, cycles) per piece. `m` is
/// a forward cursor: spans must arrive in increasing order and end by
/// bounds.back().
template <class Add>
void split_over_windows(const std::vector<cycle_t>& bounds, std::size_t& m,
                        cycle_t begin, cycle_t end, Add&& add) {
  while (begin < end) {
    while (bounds[m + 1] <= begin) ++m;
    const cycle_t stop = std::min(end, bounds[m + 1]);
    add(m, stop - begin);
    begin = stop;
  }
}

}  // namespace

window_partition::window_partition(std::vector<cycle_t> boundaries)
    : boundaries_(std::move(boundaries)) {
  STX_REQUIRE(boundaries_.size() >= 2, "partition needs at least one window");
  STX_REQUIRE(boundaries_.front() == 0, "partition must start at cycle 0");
  for (std::size_t k = 1; k < boundaries_.size(); ++k) {
    STX_REQUIRE(boundaries_[k] > boundaries_[k - 1],
                "partition boundaries must be strictly increasing");
  }
}

window_partition window_partition::uniform(cycle_t horizon,
                                           cycle_t window_size) {
  STX_REQUIRE(horizon > 0, "uniform partition needs a positive horizon");
  STX_REQUIRE(window_size > 0, "window size must be positive");
  const cycle_t count =
      horizon / window_size + (horizon % window_size != 0 ? 1 : 0);
  STX_REQUIRE(count <= std::numeric_limits<cycle_t>::max() / window_size,
              "uniform partition end overflows the cycle range");
  std::vector<cycle_t> bounds;
  bounds.reserve(static_cast<std::size_t>(count) + 1);
  for (cycle_t k = 0; k <= count; ++k) bounds.push_back(k * window_size);
  return window_partition(std::move(bounds));
}

window_partition window_partition::burst_adaptive(
    const trace& t, cycle_t target_busy_per_window, cycle_t min_size,
    cycle_t max_size) {
  STX_REQUIRE(target_busy_per_window > 0, "target busy must be positive");
  STX_REQUIRE(min_size > 0 && min_size <= max_size,
              "window size clamp malformed");
  const cycle_t horizon = std::max<cycle_t>(t.horizon(), 1);

  // The aggregate activity of all targets as a step function: from
  // steps[k].first until the next step, steps[k].second targets are busy.
  std::vector<std::pair<cycle_t, cycle_t>> steps = {{0, 0}};
  {
    std::vector<std::pair<cycle_t, int>> edges;
    for (const auto& list : intervals_by_target(t).busy) {
      for (const auto& [b, e] : list) {
        edges.emplace_back(b, 1);
        edges.emplace_back(e, -1);
      }
    }
    std::sort(edges.begin(), edges.end());
    for (const auto& [at, delta] : edges) {
      const cycle_t active = steps.back().second;
      if (at != steps.back().first) steps.emplace_back(at, active);
      steps.back().second += delta;
    }
  }

  // Walk forward placing a boundary at the first cycle where the window
  // holds the target busy mass, clamped to [min_size, max_size] cycles.
  // Window ends only move forward, so one cursor over the steps serves
  // every window.
  std::vector<cycle_t> bounds = {0};
  cycle_t cursor = 0;
  std::size_t k = 0;  // the step holding the cursor
  while (cursor < horizon) {
    // Compared against the cycles left, so huge clamps cannot overflow.
    if (min_size >= horizon - cursor) {
      bounds.push_back(horizon);
      break;
    }
    const cycle_t left = cursor + min_size;
    const cycle_t right = cursor + std::min(max_size, horizon - cursor);
    while (k + 1 < steps.size() && steps[k + 1].first <= cursor) ++k;
    cycle_t end = right;
    cycle_t need = target_busy_per_window;
    cycle_t from = cursor;  // step j covers [from, stop) of the window
    for (std::size_t j = k; from < right; ++j) {
      const cycle_t stop = j + 1 < steps.size()
                               ? std::min(steps[j + 1].first, right)
                               : right;
      const cycle_t active = steps[j].second;
      if (active > 0) {
        const cycle_t cycles = need / active + (need % active != 0 ? 1 : 0);
        if (cycles <= stop - from) {
          end = std::max(left, from + cycles);
          break;
        }
        need -= active * (stop - from);  // < need: cannot overflow
      }
      from = stop;
    }
    cursor = end;
    bounds.push_back(cursor);
  }
  if (bounds.back() != horizon) bounds.push_back(horizon);
  return window_partition(std::move(bounds));
}

cycle_t window_partition::begin(int m) const {
  STX_REQUIRE(m >= 0 && m < num_windows(), "window index out of range");
  return boundaries_[static_cast<std::size_t>(m)];
}

cycle_t window_partition::end(int m) const {
  STX_REQUIRE(m >= 0 && m < num_windows(), "window index out of range");
  return boundaries_[static_cast<std::size_t>(m) + 1];
}

cycle_t window_partition::max_size() const {
  cycle_t best = 0;
  for (int m = 0; m < num_windows(); ++m) best = std::max(best, size(m));
  return best;
}

window_analysis::window_analysis(const trace& t, window_partition part)
    : part_(std::move(part)), num_targets_(t.num_targets()) {
  STX_REQUIRE(part_.horizon() >= t.horizon(),
              "window partition must cover the trace horizon");
  const auto& bounds = part_.boundaries();
  const auto n = static_cast<std::size_t>(num_targets_);
  const auto w = static_cast<std::size_t>(num_windows());
  comm_.assign(n * w, 0);
  const std::size_t pairs = n * (n - 1) / 2;
  pair_total_.assign(pairs, 0);
  pair_max_fraction_.assign(pairs, 0.0);
  pair_critical_.assign(pairs, 0);

  const auto intervals = intervals_by_target(t);
  const auto& busy = intervals.busy;
  const auto& crit = intervals.critical;

  for (std::size_t i = 0; i < n; ++i) {
    cycle_t* row = comm_.data() + i * w;
    std::size_t m = 0;
    for (const auto& [b, e] : busy[i]) {
      split_over_windows(bounds, m, b, e,
                         [&](std::size_t k, cycle_t c) { row[k] += c; });
    }
  }

  // Per pair, one merge of the two busy lists; the intersection is split
  // over the windows as it is produced, and each window's overlap is
  // complete once the cursor leaves it.
  std::size_t p = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j, ++p) {
      cycle_t total = 0;
      double max_fraction = 0.0;
      std::size_t m = 0;
      std::size_t open = 0;  // the window `in_open` accumulates
      cycle_t in_open = 0;
      auto close = [&] {
        max_fraction = std::max(
            max_fraction, static_cast<double>(in_open) /
                              static_cast<double>(bounds[open + 1] -
                                                  bounds[open]));
      };
      for_each_intersection(busy[i], busy[j], [&](cycle_t b, cycle_t e) {
        split_over_windows(bounds, m, b, e, [&](std::size_t k, cycle_t c) {
          if (k != open) {
            close();
            open = k;
            in_open = 0;
          }
          in_open += c;
          total += c;
        });
      });
      close();
      pair_total_[p] = total;
      pair_max_fraction_[p] = max_fraction;
      for_each_intersection(crit[i], crit[j], [&](cycle_t b, cycle_t e) {
        pair_critical_[p] += e - b;
      });
    }
  }
}

int window_analysis::pair_index(int i, int j) const {
  STX_REQUIRE(i >= 0 && j >= 0 && i < num_targets_ && j < num_targets_ &&
                  i != j,
              "pair index out of range");
  if (i > j) std::swap(i, j);
  // Index into the upper triangle, row-major.
  return i * num_targets_ - i * (i + 1) / 2 + (j - i - 1);
}

cycle_t window_analysis::comm(int target, int window) const {
  STX_REQUIRE(target >= 0 && target < num_targets_, "target out of range");
  STX_REQUIRE(window >= 0 && window < num_windows(), "window out of range");
  return comm_[static_cast<std::size_t>(target) *
                   static_cast<std::size_t>(num_windows()) +
               static_cast<std::size_t>(window)];
}

cycle_t window_analysis::total_overlap(int i, int j) const {
  if (i == j) return 0;
  return pair_total_[static_cast<std::size_t>(pair_index(i, j))];
}

double window_analysis::max_overlap_fraction(int i, int j) const {
  if (i == j) return 0.0;
  return pair_max_fraction_[static_cast<std::size_t>(pair_index(i, j))];
}

cycle_t window_analysis::critical_overlap(int i, int j) const {
  if (i == j) return 0;
  return pair_critical_[static_cast<std::size_t>(pair_index(i, j))];
}

}  // namespace stx::traffic
