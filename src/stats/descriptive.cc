#include "src/stats/descriptive.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace blink {

void RunningMoments::Add(double x, double weight) {
  assert(weight > 0.0);
  count_ += weight;
  const double delta = x - mean_;
  mean_ += delta * (weight / count_);
  m2_ += weight * delta * (x - mean_);
}

void RunningMoments::Merge(const RunningMoments& other) {
  if (other.count_ == 0.0) {
    return;
  }
  if (count_ == 0.0) {
    *this = other;
    return;
  }
  const double total = count_ + other.count_;
  const double delta = other.mean_ - mean_;
  m2_ += other.m2_ + delta * delta * (count_ * other.count_ / total);
  mean_ += delta * (other.count_ / total);
  count_ = total;
}

double RunningMoments::variance_population() const {
  if (count_ <= 0.0) {
    return 0.0;
  }
  return m2_ / count_;
}

double RunningMoments::variance_sample() const {
  if (count_ <= 1.0) {
    return 0.0;
  }
  return m2_ / (count_ - 1.0);
}

double SampleQuantile(const std::vector<double>& sorted, double p) {
  assert(!sorted.empty());
  assert(p >= 0.0 && p <= 1.0);
  const double n = static_cast<double>(sorted.size());
  double h = p * n;
  // Clamp into [1, n] so the 0th and 100th percentiles hit the extremes.
  h = std::max(1.0, std::min(h, n));
  const size_t lo = static_cast<size_t>(std::floor(h)) - 1;
  const size_t hi = std::min(static_cast<size_t>(std::ceil(h)) - 1, sorted.size() - 1);
  const double frac = h - std::floor(h);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double HistogramDensityAt(const std::vector<double>& sorted, double x, int num_bins) {
  assert(!sorted.empty());
  assert(num_bins > 0);
  const double lo = sorted.front();
  const double hi = sorted.back();
  if (hi <= lo) {
    // Degenerate distribution: model as a unit spike.
    return 1.0;
  }
  const double width = (hi - lo) / num_bins;
  int bin = static_cast<int>((x - lo) / width);
  bin = std::max(0, std::min(bin, num_bins - 1));
  const double bin_lo = lo + bin * width;
  const double bin_hi = bin_lo + width;
  // Count sample points inside the bin via binary search.
  const auto first = std::lower_bound(sorted.begin(), sorted.end(), bin_lo);
  const auto last = std::upper_bound(sorted.begin(), sorted.end(), bin_hi);
  const double count = static_cast<double>(last - first);
  const double n = static_cast<double>(sorted.size());
  const double density = count / (n * width);
  // Never return zero: a zero density would make the quantile variance blow
  // up to infinity; fall back to a uniform-over-range floor.
  const double floor_density = 1.0 / (n * (hi - lo));
  return std::max(density, floor_density);
}

}  // namespace blink
