// Descriptive statistics: running moments, quantiles, and simple density
// estimation (needed for the QUANTILE variance formula in Table 2).
#ifndef BLINKDB_STATS_DESCRIPTIVE_H_
#define BLINKDB_STATS_DESCRIPTIVE_H_

#include <cstdint>
#include <vector>

namespace blink {

// Single-pass mean/variance accumulator (Welford). Numerically stable.
class RunningMoments {
 public:
  // Adds an observation with optional weight (> 0).
  void Add(double x, double weight = 1.0);

  // Merges another accumulator into this one.
  void Merge(const RunningMoments& other);

  // Number of (weighted) observations.
  double count() const { return count_; }
  // Weighted mean; 0 if empty.
  double mean() const { return mean_; }
  // Population variance; 0 if fewer than one observation.
  double variance_population() const;
  // Unbiased sample variance (n-1 denominator); 0 if count <= 1.
  double variance_sample() const;
  // Sum of weighted observations.
  double sum() const { return mean_ * count_; }

 private:
  double count_ = 0.0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

// Linear-interpolation sample quantile (the paper's Table 2 definition:
// x_floor(h) + (h - floor(h)) * (x_ceil(h) - x_floor(h)) with h = p * n).
// `sorted` must be ascending and non-empty; p in [0, 1].
double SampleQuantile(const std::vector<double>& sorted, double p);

// Estimates the density f(x) of the sample at point `x` with a histogram of
// `num_bins` equal-width bins over the sample range. Used for the quantile
// variance term 1/f(x_p)^2 * p(1-p)/n. `sorted` must be ascending, non-empty.
double HistogramDensityAt(const std::vector<double>& sorted, double x, int num_bins = 64);

// Excess kurtosis of a sample (one possible skew metric Delta in §3.2.1).
double ExcessKurtosis(const std::vector<double>& values);

// --- Frequency-based non-uniformity -----------------------------------------

// The paper's non-uniformity metric Delta(phi) (§3.2.1): the number of
// distinct values whose frequency is below the cap K (the "length of the
// tail"). `frequencies` holds the per-distinct-value counts.
uint64_t TailNonUniformity(const std::vector<uint64_t>& frequencies, uint64_t cap_k);

}  // namespace blink

#endif  // BLINKDB_STATS_DESCRIPTIVE_H_
