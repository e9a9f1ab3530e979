// Closed-form error estimation for approximate aggregates (paper Table 2)
// plus stratified-sampling estimators with finite-population correction,
// which is what the engine actually uses when answering from S(phi, K)
// samples (§4.3 "Query Answers from Stratified Samples").
#ifndef BLINKDB_STATS_ESTIMATORS_H_
#define BLINKDB_STATS_ESTIMATORS_H_

#include <cstdint>
#include <vector>

#include "src/stats/descriptive.h"

namespace blink {

// Inverse standard normal CDF (Acklam's rational approximation, |eps|<1.2e-8).
// p must be in (0, 1).
double NormalQuantile(double p);

// Two-sided z value for a confidence level C in (0,1): z = Phi^-1((1+C)/2).
double ZValueForConfidence(double confidence);

// A point estimate with its variance, from which confidence intervals and
// relative error bounds are derived.
struct Estimate {
  double value = 0.0;
  double variance = 0.0;

  double stddev() const;
  // Half-width of the (two-sided) confidence interval at level `confidence`.
  double ErrorAt(double confidence) const;
  // ErrorAt / |value| (infinite when value == 0).
  double RelativeErrorAt(double confidence) const;
  // [value - ErrorAt, value + ErrorAt].
  struct Interval {
    double lo;
    double hi;
  };
  Interval IntervalAt(double confidence) const;
};

// --- Table 2: closed forms on a uniform sample ------------------------------
//
// Conventions: the sample has `sample_rows` = n rows drawn uniformly from a
// table with `total_rows` = N rows; a predicate matches `matching` = sum(I_K)
// of the sample rows. Matched-value moments are passed via RunningMoments.

// AVG: value = mean of matched values; variance = S_n^2 / n.
Estimate AvgClosedForm(const RunningMoments& matched);

// COUNT: value = (N/n) * matching; variance = N^2/n * c(1-c), c = matching/n.
Estimate CountClosedForm(double total_rows, double sample_rows, double matching);

// SUM: value = (N/n) * sum(matched). The variance uses the standard
// domain-estimator form N^2 * S_y^2 / n with y_i = x_i * I_i (the paper's
// Table 2 prints the compact N^2 S_n^2/n c(1-c) variant; the domain form is
// the one that yields calibrated confidence intervals, which our Monte-Carlo
// tests verify).
Estimate SumClosedForm(double total_rows, double sample_rows, double matched_sum,
                       double matched_sum_sq);

// QUANTILE: value by linear interpolation (Table 2); variance =
// p(1-p) / (n * f(x_p)^2) with f estimated by histogram density.
Estimate QuantileClosedForm(const std::vector<double>& sorted_matched, double p);

// --- Stratified estimators (§4.3) --------------------------------------------
//
// A stratified sample S(phi, K) keeps n_h <= N_h rows of stratum h; every kept
// row carries effective sampling rate n_h/N_h. Estimates sum over strata with
// finite-population correction (1 - n_h/N_h); strata kept whole contribute
// zero variance, which is why stratified samples converge faster on rare
// groups (§3.1, Figure 7).

// Per-stratum sufficient statistics for one aggregate over one (group) cell.
struct StratumSummary {
  double total_rows = 0.0;    // N_h in the original table
  double sampled_rows = 0.0;  // n_h rows of this stratum present in the sample
  double matched = 0.0;       // m_h rows matching the predicate/group
  double sum = 0.0;           // sum of matched values
  double sum_sq = 0.0;        // sum of squared matched values
};

// COUNT over strata: value = sum_h (N_h/n_h) m_h.
Estimate StratifiedCount(const std::vector<StratumSummary>& strata);

// SUM over strata: value = sum_h (N_h/n_h) sum_h(x).
Estimate StratifiedSum(const std::vector<StratumSummary>& strata);

// AVG over strata: ratio estimator sum(w x)/sum(w), delta-method variance.
Estimate StratifiedAvg(const std::vector<StratumSummary>& strata);

// Weighted quantile: p-quantile of the weighted empirical distribution over
// (value, weight) pairs; variance uses Kish effective sample size
// n_eff = (sum w)^2 / sum w^2 in the Table 2 quantile formula.
Estimate WeightedQuantile(std::vector<std::pair<double, double>> value_weight, double p);

}  // namespace blink

#endif  // BLINKDB_STATS_ESTIMATORS_H_
