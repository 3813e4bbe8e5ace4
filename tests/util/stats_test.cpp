// Unit tests for running statistics.
#include "util/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <vector>

#include "util/error.h"

namespace stx {
namespace {

TEST(RunningStats, BasicMoments) {
  running_stats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8);
  EXPECT_NEAR(s.mean(), 5.0, 1e-12);
  EXPECT_NEAR(s.variance(), 4.0, 1e-12);
  EXPECT_NEAR(s.stddev(), 2.0, 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.sum(), 40.0, 1e-12);
}

TEST(RunningStats, EmptyBehaviour) {
  running_stats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_THROW(s.min(), invalid_argument_error);
  EXPECT_THROW(s.max(), invalid_argument_error);
}

TEST(RunningStats, SingleSample) {
  running_stats s;
  s.add(3.5);
  EXPECT_EQ(s.mean(), 3.5);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 3.5);
  EXPECT_EQ(s.max(), 3.5);
}

TEST(RunningStats, MergeMatchesSequential) {
  running_stats a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double v = i * 0.77 - 3;
    (i % 2 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  running_stats a, b;
  a.add(1.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1);
  b.merge(a);
  EXPECT_EQ(b.count(), 1);
  EXPECT_EQ(b.mean(), 1.0);
}

TEST(RunningStats, PercentileExact) {
  running_stats s(/*keep_samples=*/true);
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_NEAR(s.percentile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(s.percentile(1.0), 100.0, 1e-9);
  EXPECT_NEAR(s.percentile(0.5), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(0.99), 99.01, 1e-9);
}

/// The sorted-order definition percentile() must reproduce bit for bit.
double sorted_percentile(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  const double pos = p * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

TEST(RunningStats, PercentileEqualsTheSortedDefinition) {
  // Few distinct values (heavy duplicates), a couple of fractional ones,
  // fed in random order.
  std::mt19937_64 gen(99);
  const auto sample = [&] {
    const auto r = gen();
    return static_cast<double>(r % 13) + (r % 7 == 0 ? 0.25 : 0.0);
  };
  const auto same_bits = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  for (const std::size_t n : {1, 2, 3, 101, 10007}) {
    running_stats s(/*keep_samples=*/true);
    std::vector<double> all;
    for (std::size_t i = 0; i < n; ++i) {
      all.push_back(sample());
      s.add(all.back());
    }
    for (int round = 0; round < 2; ++round) {  // repeated calls agree
      for (const double p : {0.0, 0.01, 0.5, 0.99, 1.0}) {
        EXPECT_TRUE(same_bits(s.percentile(p), sorted_percentile(all, p)))
            << "n=" << n << " p=" << p << " round " << round;
      }
    }
    // Samples added or merged after a query count in the next one.
    all.push_back(sample());
    s.add(all.back());
    running_stats more(/*keep_samples=*/true);
    for (int i = 0; i < 5; ++i) {
      all.push_back(sample());
      more.add(all.back());
    }
    (void)more.percentile(0.5);
    s.merge(more);
    for (const double p : {0.0, 0.01, 0.5, 0.99, 1.0}) {
      EXPECT_TRUE(same_bits(s.percentile(p), sorted_percentile(all, p)))
          << "n=" << n << " p=" << p << " after add and merge";
    }
  }
}

TEST(RunningStats, PercentileRequiresSamples) {
  running_stats s(false);
  s.add(1.0);
  EXPECT_THROW(s.percentile(0.5), invalid_argument_error);
}

TEST(RunningStats, PercentileRejectsBadP) {
  running_stats s(true);
  s.add(1.0);
  EXPECT_THROW(s.percentile(1.5), invalid_argument_error);
}

}  // namespace
}  // namespace stx
