// Streaming statistics and histograms for latency/bandwidth measurement.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace stx {

/// Streaming accumulator for scalar samples (packet latencies, queue
/// depths, ...). Tracks count, sum, min, max, mean and variance in one
/// pass using Welford's algorithm; optionally retains samples for exact
/// percentile queries.
class running_stats {
 public:
  /// When `keep_samples` is true every sample is retained so percentile()
  /// is exact; otherwise only O(1) state is kept.
  explicit running_stats(bool keep_samples = false);

  /// Adds one sample.
  void add(double x);

  /// Merges another accumulator into this one (sample retention must
  /// match). Percentile data is concatenated.
  void merge(const running_stats& other);

  std::int64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const;
  /// Population variance; 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;

  /// Exact p-quantile (p in [0,1]): the order statistics at p·(n-1),
  /// linearly interpolated, found by selection over the retained samples
  /// (which it reorders); requires keep_samples = true and at least one
  /// sample.
  double percentile(double p) const;

  bool keeps_samples() const { return keep_samples_; }

 private:
  bool keep_samples_ = false;
  std::int64_t count_ = 0;
  double sum_ = 0.0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  mutable std::vector<double> samples_;
};

/// Fixed-width histogram over [lo, hi) with out-of-range clamping,
/// used for latency distribution reporting in benches.
class histogram {
 public:
  histogram(double lo, double hi, int bins);

  void add(double x);
  std::int64_t total() const { return total_; }
  int bins() const { return static_cast<int>(counts_.size()); }
  std::int64_t bin_count(int b) const;
  double bin_lo(int b) const;
  double bin_hi(int b) const;

  /// Renders a compact ASCII bar chart, one line per non-empty bin.
  std::string render(int width = 40) const;

 private:
  double lo_;
  double hi_;
  double bin_width_;
  std::vector<std::int64_t> counts_;
  std::int64_t total_ = 0;
};

}  // namespace stx
