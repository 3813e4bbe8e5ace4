#include "xbar/bb_solver.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>

#include "util/error.h"
#include "util/random.h"

namespace stx::xbar {

namespace {

constexpr cycle_t kNoIncumbent = std::numeric_limits<cycle_t>::max();

/// Shared DFS engine for feasibility / optimisation / random binding.
///
/// A node does no allocation and never walks a bus's members: try_place()
/// and unplace() keep per-bus running tables (summed overlap with each
/// target, conflicting-member count per target, member count, window
/// loads), so the Eq. 11 delta and the conflict test are lookups.
///
/// Optimize mode also prunes a node by a pigeonhole look-ahead once an
/// incumbent exists (can_beat_incumbent()). The look-ahead is exact: it
/// cuts only subtrees holding no binding strictly better than the
/// incumbent, so the incumbent sequence, and with it every completed
/// search's answer, is that of the plain search.
class xbar_search {
 public:
  enum class mode { feasibility, optimize, random };

  xbar_search(const synthesis_input& input, int num_buses, mode m,
              const solver_options& opts, std::uint64_t seed)
      : input_(input),
        num_buses_(num_buses),
        mode_(m),
        opts_(opts),
        rng_(seed),
        targets_(static_cast<std::size_t>(input.num_targets())),
        windows_(static_cast<std::size_t>(input.num_windows())) {
    const int T = input.num_targets();

    // Hardest-first target order: high peak demand and high conflict
    // degree first (fail-first keeps the tree small). Random mode keeps
    // a shuffled order instead.
    order_.resize(targets_);
    std::iota(order_.begin(), order_.end(), 0);
    if (mode_ == mode::random) {
      rng_.shuffle(order_);
    } else {
      std::vector<double> score(targets_, 0.0);
      for (int i = 0; i < T; ++i) {
        double s = 0.0;
        for (int m2 = 0; m2 < input.num_windows(); ++m2) {
          s += static_cast<double>(input.comm(i, m2));
        }
        int deg = 0;
        for (int j = 0; j < T; ++j) {
          if (j != i && input.conflict(i, j)) ++deg;
        }
        score[static_cast<std::size_t>(i)] =
            s + static_cast<double>(deg) *
                    static_cast<double>(input.window_size());
      }
      std::stable_sort(order_.begin(), order_.end(), [&](int a, int b) {
        return score[static_cast<std::size_t>(a)] >
               score[static_cast<std::size_t>(b)];
      });
    }

    // Flat row-major copies of the model (om and conflict are symmetric,
    // so row i is also column i), plus sparse per-target window demands.
    om_.resize(targets_ * targets_);
    conflict_.resize(targets_ * targets_);
    demand_.resize(targets_);
    for (int i = 0; i < T; ++i) {
      for (int j = 0; j < T; ++j) {
        const std::size_t at = cell(i, j);
        om_[at] = input.om(i, j);
        conflict_[at] = input.conflict(i, j) ? 1 : 0;
      }
      for (int m2 = 0; m2 < input.num_windows(); ++m2) {
        const cycle_t c = input.comm(i, m2);
        if (c > 0) {
          demand_[static_cast<std::size_t>(i)].emplace_back(
              static_cast<std::size_t>(m2), c);
        }
      }
    }

    const auto buses = static_cast<std::size_t>(num_buses_);
    load_.assign(buses * windows_, 0);
    bus_om_.assign(buses * targets_, 0);
    bus_conflicts_.assign(buses * targets_, 0);
    bus_size_.assign(buses, 0);
    bus_overlap_.assign(buses, 0);
    binding_.assign(targets_, -1);
    bus_words_ = (buses + 63) / 64;
    fits_.assign(targets_ * bus_words_, 0);
    // Depth d tries at most d + 1 buses (symmetry breaking below).
    children_.resize(targets_);
    for (std::size_t d = 0; d < targets_; ++d) {
      children_[d].reserve(std::min(d + 1, buses));
    }
    start_ = std::chrono::steady_clock::now();
  }

  /// Runs the search; returns true when an answer (sat or proven unsat)
  /// was reached within limits.
  bool run() {
    found_ = dfs(0, 0);
    return !limit_hit_;
  }

  bool found() const { return found_ || !best_binding_.empty(); }
  const std::vector<int>& best_binding() const { return best_binding_; }
  cycle_t best_overlap() const { return best_overlap_; }
  std::int64_t nodes() const { return nodes_; }
  bool complete() const { return !limit_hit_; }
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  /// Row-major index of (row, col) in a table with one row per target or
  /// bus and one column per target.
  std::size_t cell(int row, int col) const {
    return static_cast<std::size_t>(row) * targets_ +
           static_cast<std::size_t>(col);
  }

  bool out_of_budget() {
    if (nodes_ >= opts_.max_nodes) return true;
    if ((nodes_ & 0x3ff) == 0) {
      if (opts_.cancel != nullptr &&
          opts_.cancel->load(std::memory_order_relaxed)) {
        return true;  // portfolio loser: stop as if the time limit fired
      }
      if (opts_.time_limit_sec > 0.0 && seconds() > opts_.time_limit_sec) {
        return true;
      }
    }
    return false;
  }

  /// Current maximum per-bus overlap (the running Eq. 11 objective).
  cycle_t current_max_overlap() const {
    cycle_t best = 0;
    for (cycle_t v : bus_overlap_) best = std::max(best, v);
    return best;
  }

  /// Overlap this target would add to bus k (sum of om with members).
  cycle_t overlap_delta(int target, int k) const {
    return bus_om_[cell(k, target)];
  }

  /// Binds `target` to bus k when Eq. 3-9 allow it (cardinality,
  /// conflicts, per-window capacity) and returns true; otherwise leaves
  /// every table as it was and returns false. The capacity test shares
  /// one pass over the target's demands with the load update.
  bool try_place(int target, int k) {
    const auto t = static_cast<std::size_t>(target);
    const auto b = static_cast<std::size_t>(k);
    const int maxtb = input_.params().max_targets_per_bus;
    if (maxtb > 0 && bus_size_[b] >= maxtb) return false;
    if (bus_conflicts_[cell(k, target)] > 0) return false;
    cycle_t* load = &load_[b * windows_];
    const auto& demand = demand_[t];
    for (std::size_t d = 0; d < demand.size(); ++d) {
      const auto [w, c] = demand[d];
      load[w] += c;
      if (load[w] > input_.capacity(static_cast<int>(w))) {
        for (std::size_t u = 0; u <= d; ++u) {
          load[demand[u].first] -= demand[u].second;
        }
        return false;
      }
    }
    binding_[t] = k;
    bus_overlap_[b] += overlap_delta(target, k);
    ++bus_size_[b];
    const cycle_t* om = &om_[cell(target, 0)];
    const int* conflict = &conflict_[cell(target, 0)];
    cycle_t* bus_om = &bus_om_[cell(k, 0)];
    int* bus_conflicts = &bus_conflicts_[cell(k, 0)];
    for (std::size_t j = 0; j < targets_; ++j) {
      bus_om[j] += om[j];
      bus_conflicts[j] += conflict[j];
    }
    return true;
  }

  void unplace(int target, int k) {
    const auto t = static_cast<std::size_t>(target);
    const auto b = static_cast<std::size_t>(k);
    const cycle_t* om = &om_[cell(target, 0)];
    const int* conflict = &conflict_[cell(target, 0)];
    cycle_t* bus_om = &bus_om_[cell(k, 0)];
    int* bus_conflicts = &bus_conflicts_[cell(k, 0)];
    for (std::size_t j = 0; j < targets_; ++j) {
      bus_om[j] -= om[j];
      bus_conflicts[j] -= conflict[j];
    }
    --bus_size_[b];
    bus_overlap_[b] -= overlap_delta(target, k);
    cycle_t* load = &load_[b * windows_];
    for (const auto& [w, c] : demand_[t]) load[w] -= c;
    binding_[t] = -1;
  }

  /// Pigeonhole look-ahead below the incumbent. Members only join a bus
  /// and no om is negative, so in a leaf that beats the incumbent every
  /// unplaced target sits on a bus it fits *now*: maxtb room, no
  /// conflicting member, and a delta below the bus's slack (incumbent -
  /// bus overlap). Returns false, pruning the node, when
  ///  * some target fits no bus;
  ///  * the buses cannot take all the targets. Bus k takes at most its
  ///    maxtb room and the number of targets that fit it. Its new
  ///    members' deltas sum below its slack, so with d1 <= d2 the two
  ///    smallest fitting deltas it takes one target if d1 + d2 reaches
  ///    the slack, else at most 1 + (slack - 1 - d1) / d2;
  ///  * the targets outnumber the buses any of them fits, so two share a
  ///    bus, and no two can (some_pair_fits_together).
  /// Symmetry breaking fills buses in order, so buses [used, num_buses)
  /// are the empty ones; they fit every target and are counted instead
  /// of scanned. The fit sets are bitmasks over the used buses, one row
  /// of fits_ per order_ position.
  bool can_beat_incumbent(std::size_t depth, int used) {
    if (best_overlap_ <= 0) return false;  // no overlap sum is negative
    const std::size_t left = targets_ - depth;
    const auto empty = static_cast<std::size_t>(num_buses_ - used);
    if (empty >= left) return true;  // each target can take its own bus
    const int maxtb = input_.params().max_targets_per_bus;
    const auto room = [&](int size) {
      return maxtb > 0 ? std::min(left, static_cast<std::size_t>(maxtb - size))
                       : left;
    };
    std::uint64_t* const rows = &fits_[depth * bus_words_];
    std::fill_n(rows, left * bus_words_, 0);
    std::size_t fitting = empty;          // buses at least one target fits
    std::size_t takes = empty * room(0);  // targets the buses can take
    for (int k = 0; k < used; ++k) {
      const auto b = static_cast<std::size_t>(k);
      if (maxtb > 0 && bus_size_[b] >= maxtb) continue;
      const cycle_t slack = best_overlap_ - bus_overlap_[b];
      const cycle_t* om = &bus_om_[cell(k, 0)];
      const int* conflicts = &bus_conflicts_[cell(k, 0)];
      const std::size_t word = b / 64;
      const std::uint64_t bit = std::uint64_t{1} << (b % 64);
      std::size_t fits = 0;
      cycle_t d1 = kNoIncumbent;
      cycle_t d2 = kNoIncumbent;
      for (std::size_t i = 0; i < left; ++i) {
        const cycle_t d = om[order_[depth + i]];
        if (conflicts[order_[depth + i]] != 0 || d >= slack) continue;
        rows[i * bus_words_ + word] |= bit;
        ++fits;
        if (d < d2) {
          d2 = std::max(d, d1);
          d1 = std::min(d, d1);
        }
      }
      if (fits == 0) continue;
      ++fitting;
      std::size_t cap = std::min(fits, room(bus_size_[b]));
      if (cap >= 2 && d2 >= slack - d1) {
        cap = 1;
      } else if (cap >= 2 && d2 > 0) {
        cap = std::min(cap, 1 + static_cast<std::size_t>(
                                    (slack - 1 - d1) / d2));
      }
      takes += cap;
    }
    if (takes < left) return false;
    if (empty == 0) {
      for (std::size_t i = 0; i < left; ++i) {
        const std::uint64_t* row = &rows[i * bus_words_];
        if (std::all_of(row, row + bus_words_,
                        [](std::uint64_t w) { return w == 0; })) {
          return false;
        }
      }
    }
    return fitting >= left || some_pair_fits_together(depth, empty > 0);
  }

  /// Whether two non-conflicting unplaced targets fit together on a bus
  /// both fit: room for two, and bus overlap + both deltas + the pair's
  /// own om below the incumbent. Reads the fit sets can_beat_incumbent()
  /// left in fits_.
  bool some_pair_fits_together(std::size_t depth, bool has_empty) const {
    const int maxtb = input_.params().max_targets_per_bus;
    const bool empty_takes_two = has_empty && (maxtb <= 0 || maxtb >= 2);
    for (std::size_t i = depth; i < targets_; ++i) {
      const int u = order_[i];
      for (std::size_t j = i + 1; j < targets_; ++j) {
        const int v = order_[j];
        if (conflict_[cell(u, v)] != 0) continue;
        const cycle_t pair = om_[cell(u, v)];
        if (pair >= best_overlap_) continue;
        if (empty_takes_two) return true;
        for (std::size_t w = 0; w < bus_words_; ++w) {
          std::uint64_t common =
              fits_[i * bus_words_ + w] & fits_[j * bus_words_ + w];
          for (; common != 0; common &= common - 1) {
            const int k = static_cast<int>(w * 64) + std::countr_zero(common);
            const auto b = static_cast<std::size_t>(k);
            if (maxtb > 0 && bus_size_[b] + 2 > maxtb) continue;
            // Each delta is below the slack, so the differences hold.
            const cycle_t slack = best_overlap_ - bus_overlap_[b];
            const cycle_t du = overlap_delta(u, k);
            const cycle_t dv = overlap_delta(v, k);
            if (dv < slack - du && pair < slack - du - dv) return true;
          }
        }
      }
    }
    return false;
  }

  /// `used` = number of buses currently holding at least one target.
  bool dfs(std::size_t depth, int used) {
    if (out_of_budget()) {
      limit_hit_ = true;
      return false;
    }
    ++nodes_;

    if (depth == order_.size()) {
      if (mode_ == mode::optimize) {
        const cycle_t obj = current_max_overlap();
        if (obj < best_overlap_) {
          best_overlap_ = obj;
          best_binding_ = binding_;
        }
        return false;  // keep searching for better bindings
      }
      best_binding_ = binding_;
      best_overlap_ = current_max_overlap();
      return true;  // feasibility / random: first solution wins
    }

    const int target = order_[depth];
    const bool optimize = mode_ == mode::optimize;
    if (optimize && best_overlap_ != kNoIncumbent &&
        !can_beat_incumbent(depth, used)) {
      return false;
    }
    // Bound: max overlap only grows as targets are added. Trying a child
    // restores every table, so the node's objective and each child's
    // delta hold for all children; only the incumbent tightens.
    const cycle_t node_max = optimize ? current_max_overlap() : 0;
    const auto within_bound = [&](cycle_t delta, int k) {
      return std::max(node_max, bus_overlap_[static_cast<std::size_t>(k)] +
                                    delta) < best_overlap_;
    };
    // Symmetry breaking: existing buses plus at most one fresh bus.
    const int reach = std::min(used + 1, num_buses_);
    auto& children = children_[depth];
    children.clear();
    for (int k = 0; k < reach; ++k) {
      if (!optimize) {
        children.emplace_back(0, k);
        continue;
      }
      // A child the bound cuts now stays cut under any later incumbent.
      const cycle_t delta = overlap_delta(target, k);
      if (within_bound(delta, k)) children.emplace_back(delta, k);
    }

    if (mode_ == mode::random) {
      rng_.shuffle(children);
    } else if (optimize) {
      // Cheapest-overlap-first child order finds tight incumbents early;
      // equal deltas keep bus order.
      std::sort(children.begin(), children.end());
    }

    for (const auto& [delta, k] : children) {
      if (optimize && !within_bound(delta, k)) continue;
      if (!try_place(target, k)) continue;
      const int next_used =
          used + (bus_size_[static_cast<std::size_t>(k)] == 1 ? 1 : 0);
      if (dfs(depth + 1, next_used)) return true;
      unplace(target, k);
      if (limit_hit_) return false;
    }
    return false;
  }

  const synthesis_input& input_;
  int num_buses_;
  mode mode_;
  solver_options opts_;
  rng rng_;
  std::size_t targets_;
  std::size_t windows_;

  std::vector<int> order_;
  std::vector<cycle_t> om_;     ///< om(i, j) at cell(i, j)
  std::vector<int> conflict_;   ///< 1 where c[i][j], at cell(i, j)
  /// Per target, its nonzero (window, cycles) demands.
  std::vector<std::vector<std::pair<std::size_t, cycle_t>>> demand_;

  // Per-bus running state, kept exact by try_place() / unplace().
  std::vector<cycle_t> load_;         ///< bus k, window w at k * W + w
  std::vector<cycle_t> bus_om_;       ///< sum_{m on k} om(t, m), cell(k, t)
  std::vector<int> bus_conflicts_;    ///< members of k conflicting with t
  std::vector<int> bus_size_;
  std::vector<cycle_t> bus_overlap_;  ///< Eq. 11 pair sum per bus
  std::vector<int> binding_;
  /// Child buffer per depth: (overlap delta, bus), reserved up front.
  std::vector<std::vector<std::pair<cycle_t, int>>> children_;
  /// Look-ahead scratch: the buses each unplaced target fits, one
  /// bus_words_-word bitmask per order_ position.
  std::size_t bus_words_ = 0;
  std::vector<std::uint64_t> fits_;

  std::vector<int> best_binding_;
  cycle_t best_overlap_ = kNoIncumbent;
  bool found_ = false;
  bool limit_hit_ = false;
  std::int64_t nodes_ = 0;
  std::chrono::steady_clock::time_point start_;
};

void fill_stats(const xbar_search& search, solve_stats* stats) {
  if (stats == nullptr) return;
  stats->nodes = search.nodes();
  stats->complete = search.complete();
  stats->seconds = search.seconds();
}

}  // namespace

int lower_bound_buses(const synthesis_input& input) {
  const int T = input.num_targets();
  int lb = 1;

  // Bandwidth: every window's total demand must fit in B buses, so B is
  // at least ceil(sum_i comm(i, m) / capacity(m)). Each comm fits in its
  // window's capacity, so counting whole capacities with a remainder kept
  // below the capacity never overflows, where forming the sum (or adding
  // capacity - 1 to it) would for capacities near INT64_MAX.
  for (int m = 0; m < input.num_windows(); ++m) {
    const cycle_t capacity = input.capacity(m);
    int need = 0;
    cycle_t rest = 0;  // in [0, capacity)
    for (int i = 0; i < T; ++i) {
      const cycle_t c = input.comm(i, m);
      if (c >= capacity - rest) {
        ++need;
        rest = c - (capacity - rest);
      } else {
        rest += c;
      }
    }
    lb = std::max(lb, need + (rest > 0 ? 1 : 0));
  }

  // Cardinality (Eq. 8): ceil(T / maxtb), without forming T + maxtb - 1.
  const int maxtb = input.params().max_targets_per_bus;
  if (maxtb > 0) lb = std::max(lb, T / maxtb + (T % maxtb != 0 ? 1 : 0));

  // Conflict clique (greedy): every clique member needs its own bus.
  std::vector<int> degree(static_cast<std::size_t>(T), 0);
  for (int i = 0; i < T; ++i) {
    for (int j = 0; j < T; ++j) {
      if (i != j && input.conflict(i, j)) {
        ++degree[static_cast<std::size_t>(i)];
      }
    }
  }
  std::vector<int> by_degree(static_cast<std::size_t>(T));
  std::iota(by_degree.begin(), by_degree.end(), 0);
  std::stable_sort(by_degree.begin(), by_degree.end(), [&](int a, int b) {
    return degree[static_cast<std::size_t>(a)] >
           degree[static_cast<std::size_t>(b)];
  });
  std::vector<int> clique;
  for (int v : by_degree) {
    bool joins = true;
    for (int u : clique) {
      if (!input.conflict(u, v)) {
        joins = false;
        break;
      }
    }
    if (joins) clique.push_back(v);
  }
  lb = std::max(lb, static_cast<int>(clique.size()));
  return std::min(lb, std::max(T, 1));
}

std::optional<std::vector<int>> find_feasible_binding(
    const synthesis_input& input, int num_buses, const solver_options& opts,
    solve_stats* stats) {
  STX_REQUIRE(num_buses >= 1, "need at least one bus");
  if (lower_bound_buses(input) > num_buses) {
    if (stats != nullptr) *stats = {0, true, 0.0};
    return std::nullopt;  // proven infeasible without search
  }
  xbar_search search(input, num_buses, xbar_search::mode::feasibility, opts,
                     /*seed=*/1);
  const bool answered = search.run();
  fill_stats(search, stats);
  STX_REQUIRE(answered, "feasibility search hit limits; raise solver_options");
  if (!search.found()) return std::nullopt;
  auto binding = search.best_binding();
  STX_ENSURE(input.binding_feasible(binding, num_buses),
             "solver produced an infeasible binding");
  return binding;
}

std::optional<binding_solution> find_min_overlap_binding(
    const synthesis_input& input, int num_buses, const solver_options& opts,
    solve_stats* stats) {
  STX_REQUIRE(num_buses >= 1, "need at least one bus");
  if (lower_bound_buses(input) > num_buses) {
    if (stats != nullptr) *stats = {0, true, 0.0};
    return std::nullopt;
  }
  xbar_search search(input, num_buses, xbar_search::mode::optimize, opts,
                     /*seed=*/1);
  search.run();
  fill_stats(search, stats);
  if (!search.found()) {
    STX_REQUIRE(search.complete(),
                "binding search hit limits before any solution; raise "
                "solver_options");
    return std::nullopt;
  }
  binding_solution out;
  out.binding = search.best_binding();
  out.max_overlap = search.best_overlap();
  out.proven_optimal = search.complete();
  STX_ENSURE(input.binding_feasible(out.binding, num_buses),
             "solver produced an infeasible binding");
  STX_ENSURE(input.max_bus_overlap(out.binding, num_buses) ==
                 out.max_overlap,
             "objective bookkeeping diverged from recomputation");
  return out;
}

std::optional<std::vector<int>> find_random_feasible_binding(
    const synthesis_input& input, int num_buses, std::uint64_t seed,
    const solver_options& opts) {
  STX_REQUIRE(num_buses >= 1, "need at least one bus");
  if (lower_bound_buses(input) > num_buses) return std::nullopt;
  xbar_search search(input, num_buses, xbar_search::mode::random, opts,
                     seed);
  const bool answered = search.run();
  STX_REQUIRE(answered, "random binding search hit limits");
  if (!search.found()) return std::nullopt;
  return search.best_binding();
}

}  // namespace stx::xbar
