// Property tests: the window analysis against a per-cycle brute force, and
// window-analysis identities, on small random traces over uniform and
// burst-adaptive partitions.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "traffic/windows.h"
#include "util/random.h"

namespace stx::traffic {
namespace {

trace make_random_trace(rng& r, int targets, int initiators,
                        cycle_t horizon, int events) {
  trace t(targets, initiators, horizon);
  for (int e = 0; e < events; ++e) {
    stream_event ev;
    ev.target = static_cast<int>(r.uniform_int(0, targets - 1));
    ev.initiator = static_cast<int>(r.uniform_int(0, initiators - 1));
    ev.begin = r.uniform_int(0, horizon - 2);
    ev.end = std::min<cycle_t>(horizon,
                               ev.begin + r.uniform_int(1, horizon / 8));
    ev.critical = r.chance(0.2);
    t.add(ev);
  }
  return t;
}

cycle_t total_comm(const window_analysis& wa, int target) {
  cycle_t total = 0;
  for (int m = 0; m < wa.num_windows(); ++m) total += wa.comm(target, m);
  return total;
}

/// Checks every quantity of `wa` against per-cycle occupancy of `t`.
void expect_matches_brute_force(const trace& t, const window_analysis& wa,
                                const std::string& ctx) {
  const auto& part = wa.partition();
  const auto cycles = static_cast<std::size_t>(part.horizon());
  const auto n = static_cast<std::size_t>(t.num_targets());
  std::vector<std::vector<char>> busy(n, std::vector<char>(cycles, 0));
  std::vector<std::vector<char>> crit(n, std::vector<char>(cycles, 0));
  for (const auto& e : t.events()) {
    for (cycle_t c = e.begin; c < e.end; ++c) {
      busy[static_cast<std::size_t>(e.target)][static_cast<std::size_t>(c)] =
          1;
      if (e.critical) {
        crit[static_cast<std::size_t>(e.target)]
            [static_cast<std::size_t>(c)] = 1;
      }
    }
  }
  const auto at = [](const std::vector<char>& v, cycle_t c) {
    return v[static_cast<std::size_t>(c)] != 0;
  };
  ASSERT_EQ(wa.num_targets(), t.num_targets()) << ctx;
  for (std::size_t i = 0; i < n; ++i) {
    for (int m = 0; m < part.num_windows(); ++m) {
      cycle_t comm = 0;
      for (cycle_t c = part.begin(m); c < part.end(m); ++c) {
        comm += at(busy[i], c) ? 1 : 0;
      }
      EXPECT_EQ(wa.comm(static_cast<int>(i), m), comm)
          << ctx << " target " << i << " window " << m;
    }
    for (std::size_t j = i + 1; j < n; ++j) {
      cycle_t total = 0;
      double max_fraction = 0.0;
      for (int m = 0; m < part.num_windows(); ++m) {
        cycle_t overlap = 0;
        for (cycle_t c = part.begin(m); c < part.end(m); ++c) {
          overlap += at(busy[i], c) && at(busy[j], c) ? 1 : 0;
        }
        total += overlap;
        max_fraction =
            std::max(max_fraction, static_cast<double>(overlap) /
                                       static_cast<double>(part.size(m)));
      }
      cycle_t critical = 0;
      for (cycle_t c = 0; c < part.horizon(); ++c) {
        critical += at(crit[i], c) && at(crit[j], c) ? 1 : 0;
      }
      const int a = static_cast<int>(i);
      const int b = static_cast<int>(j);
      EXPECT_EQ(wa.total_overlap(a, b), total) << ctx << " Eq. 1";
      EXPECT_EQ(wa.total_overlap(b, a), total) << ctx;
      EXPECT_EQ(wa.max_overlap_fraction(a, b), max_fraction) << ctx;
      EXPECT_EQ(wa.max_overlap_fraction(b, a), max_fraction) << ctx;
      EXPECT_EQ(wa.critical_overlap(a, b), critical) << ctx;
      EXPECT_EQ(wa.critical_overlap(b, a), critical) << ctx;
    }
  }
}

class WindowsRandom : public ::testing::TestWithParam<int> {};

TEST_P(WindowsRandom, UniformMatchesBruteForce) {
  rng r(static_cast<std::uint64_t>(GetParam()) * 7349 + 3);
  const auto t = make_random_trace(r, 5, 2, 1500,
                                   static_cast<int>(r.uniform_int(5, 50)));
  const auto ws = r.uniform_int(40, 500);
  const window_analysis wa(t, window_partition::uniform(t.horizon(), ws));
  expect_matches_brute_force(t, wa, "seed " + std::to_string(GetParam()) +
                                        " ws " + std::to_string(ws));
}

TEST_P(WindowsRandom, BurstAdaptiveMatchesBruteForce) {
  rng r(static_cast<std::uint64_t>(GetParam()) * 15485863 + 5);
  const auto t = make_random_trace(r, 4, 2, 1500,
                                   static_cast<int>(r.uniform_int(5, 50)));
  const auto busy_per_window = r.uniform_int(20, 400);
  const auto min_size = r.uniform_int(10, 100);
  const auto max_size = min_size + r.uniform_int(0, 600);
  const window_analysis wa(
      t, window_partition::burst_adaptive(t, busy_per_window, min_size,
                                          max_size));
  expect_matches_brute_force(
      t, wa, "seed " + std::to_string(GetParam()) + " busy/window " +
                 std::to_string(busy_per_window));
}

/// burst_adaptive's boundaries by their definition, cycle by cycle: each
/// window ends at the first cycle in [cursor + min_size, cursor +
/// max_size] (capped at the horizon) where it holds `busy_per_window`
/// busy cycles summed over targets, or at that cap when none does.
std::vector<cycle_t> burst_boundaries_brute_force(const trace& t,
                                                  cycle_t busy_per_window,
                                                  cycle_t min_size,
                                                  cycle_t max_size) {
  const cycle_t horizon = std::max<cycle_t>(t.horizon(), 1);
  const auto cycles = static_cast<std::size_t>(horizon);
  const auto n = static_cast<std::size_t>(t.num_targets());
  std::vector<std::vector<char>> busy(n, std::vector<char>(cycles, 0));
  for (const auto& e : t.events()) {
    for (cycle_t c = e.begin; c < e.end; ++c) {
      busy[static_cast<std::size_t>(e.target)][static_cast<std::size_t>(c)] =
          1;
    }
  }
  std::vector<cycle_t> active(cycles, 0);
  for (const auto& row : busy) {
    for (std::size_t c = 0; c < cycles; ++c) active[c] += row[c];
  }
  std::vector<cycle_t> bounds = {0};
  cycle_t cursor = 0;
  while (cursor < horizon) {
    if (min_size >= horizon - cursor) break;
    const cycle_t left = cursor + min_size;
    const cycle_t right = cursor + std::min(max_size, horizon - cursor);
    cycle_t end = right;
    cycle_t mass = 0;
    for (cycle_t x = cursor + 1; x <= right; ++x) {
      mass += active[static_cast<std::size_t>(x - 1)];
      if (x >= left && mass >= busy_per_window) {
        end = x;
        break;
      }
    }
    cursor = end;
    bounds.push_back(cursor);
  }
  if (bounds.back() != horizon) bounds.push_back(horizon);
  return bounds;
}

TEST_P(WindowsRandom, BurstAdaptiveBoundariesMatchPerCycleDefinition) {
  rng r(static_cast<std::uint64_t>(GetParam()) * 2750159 + 13);
  constexpr cycle_t kMax = std::numeric_limits<cycle_t>::max();
  for (int round = 0; round < 8; ++round) {
    const auto t = make_random_trace(r, static_cast<int>(r.uniform_int(1, 5)),
                                     2, r.uniform_int(50, 1500),
                                     static_cast<int>(r.uniform_int(0, 60)));
    // Mostly ordinary targets and clamps; sometimes one no window can
    // reach, a one-cycle minimum or an unbounded maximum.
    const cycle_t busy_per_window =
        r.chance(0.1) ? kMax : r.uniform_int(1, 600);
    const cycle_t min_size = r.chance(0.2) ? 1 : r.uniform_int(1, 120);
    const cycle_t max_size =
        r.chance(0.1) ? kMax : min_size + r.uniform_int(0, 600);
    const auto p = window_partition::burst_adaptive(t, busy_per_window,
                                                    min_size, max_size);
    EXPECT_EQ(p.boundaries(), burst_boundaries_brute_force(
                                  t, busy_per_window, min_size, max_size))
        << "seed " << GetParam() << " round " << round << " busy/window "
        << busy_per_window << " clamp [" << min_size << ", " << max_size
        << "]";
  }
}

TEST_P(WindowsRandom, CommSumsToMergedBusyTotal) {
  rng r(static_cast<std::uint64_t>(GetParam()) * 90001 + 7);
  const auto t = make_random_trace(r, 4, 2, 2000,
                                   static_cast<int>(r.uniform_int(5, 60)));
  const auto ws = r.uniform_int(50, 700);
  const window_analysis wa(t, window_partition::uniform(t.horizon(), ws));
  const auto busy = t.total_busy_per_target();
  for (int i = 0; i < t.num_targets(); ++i) {
    EXPECT_EQ(total_comm(wa, i), busy[static_cast<std::size_t>(i)])
        << "target " << i << " seed " << GetParam();
  }
}

TEST_P(WindowsRandom, CommNeverExceedsWindowSize) {
  rng r(static_cast<std::uint64_t>(GetParam()) * 333667 + 11);
  const auto t = make_random_trace(r, 3, 2, 1200,
                                   static_cast<int>(r.uniform_int(5, 40)));
  const auto ws = r.uniform_int(30, 400);
  const window_analysis wa(t, window_partition::uniform(t.horizon(), ws));
  for (int i = 0; i < t.num_targets(); ++i) {
    for (int m = 0; m < wa.num_windows(); ++m) {
      EXPECT_GE(wa.comm(i, m), 0);
      EXPECT_LE(wa.comm(i, m), ws) << "seed " << GetParam();
    }
  }
}

TEST_P(WindowsRandom, WindowSizeUnionIsInvariant) {
  // Splitting into windows must not create or destroy busy cycles:
  // analyses with different window sizes agree on totals.
  rng r(static_cast<std::uint64_t>(GetParam()) * 104659 + 23);
  const auto t = make_random_trace(r, 4, 2, 1000,
                                   static_cast<int>(r.uniform_int(5, 40)));
  const window_analysis fine(t, window_partition::uniform(t.horizon(), 37));
  const window_analysis coarse(t,
                               window_partition::uniform(t.horizon(), 1000));
  for (int i = 0; i < t.num_targets(); ++i) {
    EXPECT_EQ(total_comm(fine, i), total_comm(coarse, i));
    for (int j = i + 1; j < t.num_targets(); ++j) {
      EXPECT_EQ(fine.total_overlap(i, j), coarse.total_overlap(i, j))
          << "seed " << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WindowsRandom, ::testing::Range(0, 30));

}  // namespace
}  // namespace stx::traffic
