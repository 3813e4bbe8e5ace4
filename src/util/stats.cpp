#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/error.h"

namespace stx {

running_stats::running_stats(bool keep_samples) : keep_samples_(keep_samples) {}

void running_stats::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  if (keep_samples_) samples_.push_back(x);
}

void running_stats::merge(const running_stats& other) {
  STX_REQUIRE(keep_samples_ == other.keep_samples_,
              "cannot merge stats with different sample retention");
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  mean_ = (n1 * mean_ + n2 * other.mean_) / (n1 + n2);
  m2_ = m2_ + other.m2_ + delta * delta * n1 * n2 / (n1 + n2);
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  if (keep_samples_) {
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
  }
}

double running_stats::mean() const { return count_ == 0 ? 0.0 : mean_; }

double running_stats::variance() const {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_);
}

double running_stats::stddev() const { return std::sqrt(variance()); }

double running_stats::min() const {
  STX_REQUIRE(count_ > 0, "min() of empty stats");
  return min_;
}

double running_stats::max() const {
  STX_REQUIRE(count_ > 0, "max() of empty stats");
  return max_;
}

double running_stats::percentile(double p) const {
  STX_REQUIRE(keep_samples_, "percentile() requires keep_samples");
  STX_REQUIRE(count_ > 0, "percentile() of empty stats");
  STX_REQUIRE(p >= 0.0 && p <= 1.0, "percentile p out of [0,1]");
  const double pos = p * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  // The lo-th and (lo+1)-th order statistics by selection: everything
  // after the lo-th is no smaller, so its minimum is the next one.
  const auto nth = samples_.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(samples_.begin(), nth, samples_.end());
  const double next = nth + 1 == samples_.end()
                          ? *nth
                          : *std::min_element(nth + 1, samples_.end());
  return *nth * (1.0 - frac) + next * frac;
}

histogram::histogram(double lo, double hi, int bins) : lo_(lo), hi_(hi) {
  STX_REQUIRE(hi > lo, "histogram range");
  STX_REQUIRE(bins > 0, "histogram bin count");
  bin_width_ = (hi - lo) / bins;
  counts_.assign(static_cast<std::size_t>(bins), 0);
}

void histogram::add(double x) {
  auto b = static_cast<std::int64_t>((x - lo_) / bin_width_);
  b = std::clamp<std::int64_t>(b, 0, static_cast<std::int64_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(b)];
  ++total_;
}

std::int64_t histogram::bin_count(int b) const {
  STX_REQUIRE(b >= 0 && b < bins(), "histogram bin index");
  return counts_[static_cast<std::size_t>(b)];
}

double histogram::bin_lo(int b) const { return lo_ + bin_width_ * b; }
double histogram::bin_hi(int b) const { return lo_ + bin_width_ * (b + 1); }

std::string histogram::render(int width) const {
  std::ostringstream out;
  std::int64_t peak = 1;
  for (auto c : counts_) peak = std::max(peak, c);
  for (int b = 0; b < bins(); ++b) {
    if (counts_[static_cast<std::size_t>(b)] == 0) continue;
    const auto bar = static_cast<int>(
        counts_[static_cast<std::size_t>(b)] * width / peak);
    out << "[" << bin_lo(b) << ", " << bin_hi(b) << ") "
        << std::string(static_cast<std::size_t>(std::max(bar, 1)), '#') << " "
        << counts_[static_cast<std::size_t>(b)] << "\n";
  }
  return out.str();
}

}  // namespace stx
