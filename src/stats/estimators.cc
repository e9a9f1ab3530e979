#include "src/stats/estimators.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace blink {

double NormalQuantile(double p) {
  assert(p > 0.0 && p < 1.0);
  // Acklam's inverse normal CDF approximation.
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  constexpr double p_high = 1.0 - p_low;
  double q, r;
  if (p < p_low) {
    q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p <= p_high) {
    q = p - 0.5;
    r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  }
  q = std::sqrt(-2.0 * std::log(1.0 - p));
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
}

double ZValueForConfidence(double confidence) {
  assert(confidence > 0.0 && confidence < 1.0);
  return NormalQuantile(0.5 * (1.0 + confidence));
}

double Estimate::stddev() const { return std::sqrt(std::max(0.0, variance)); }

double Estimate::ErrorAt(double confidence) const {
  return ZValueForConfidence(confidence) * stddev();
}

double Estimate::RelativeErrorAt(double confidence) const {
  if (value == 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  return ErrorAt(confidence) / std::fabs(value);
}

Estimate::Interval Estimate::IntervalAt(double confidence) const {
  const double err = ErrorAt(confidence);
  return {value - err, value + err};
}

Estimate AvgClosedForm(const RunningMoments& matched) {
  Estimate est;
  est.value = matched.mean();
  if (matched.count() > 1.0) {
    est.variance = matched.variance_sample() / matched.count();
  }
  return est;
}

Estimate CountClosedForm(double total_rows, double sample_rows, double matching) {
  assert(sample_rows > 0.0);
  Estimate est;
  const double c = matching / sample_rows;
  est.value = total_rows * c;
  est.variance = total_rows * total_rows / sample_rows * c * (1.0 - c);
  return est;
}

Estimate SumClosedForm(double total_rows, double sample_rows, double matched_sum,
                       double matched_sum_sq) {
  assert(sample_rows > 0.0);
  Estimate est;
  est.value = total_rows / sample_rows * matched_sum;
  if (sample_rows > 1.0) {
    // y_i = x_i * I_i over all n sample rows; non-matching rows contribute 0.
    const double mean_y = matched_sum / sample_rows;
    const double var_y =
        (matched_sum_sq - sample_rows * mean_y * mean_y) / (sample_rows - 1.0);
    est.variance = total_rows * total_rows * std::max(0.0, var_y) / sample_rows;
  }
  return est;
}

Estimate QuantileClosedForm(const std::vector<double>& sorted_matched, double p) {
  Estimate est;
  if (sorted_matched.empty()) {
    return est;
  }
  est.value = SampleQuantile(sorted_matched, p);
  const double n = static_cast<double>(sorted_matched.size());
  const double f = HistogramDensityAt(sorted_matched, est.value);
  est.variance = p * (1.0 - p) / (n * f * f);
  return est;
}

namespace {

// Unbiased within-stratum variance of y = x * I computed from matched-only
// sums: the stratum has n_h scanned rows of which m_h matched with sum/sum_sq.
double StratumVarianceOfMaskedValue(const StratumSummary& s) {
  if (s.sampled_rows <= 1.0) {
    return 0.0;
  }
  const double mean_y = s.sum / s.sampled_rows;
  const double var =
      (s.sum_sq - s.sampled_rows * mean_y * mean_y) / (s.sampled_rows - 1.0);
  return std::max(0.0, var);
}

// Same for the indicator z = I (count case): sum -> m_h, sum_sq -> m_h.
double StratumVarianceOfIndicator(const StratumSummary& s) {
  if (s.sampled_rows <= 1.0) {
    return 0.0;
  }
  const double c = s.matched / s.sampled_rows;
  // Unbiased Bernoulli variance n/(n-1) c (1-c).
  return s.sampled_rows / (s.sampled_rows - 1.0) * c * (1.0 - c);
}

// Within-stratum covariance of (y, z) from matched-only sums.
double StratumCovarianceYz(const StratumSummary& s) {
  if (s.sampled_rows <= 1.0) {
    return 0.0;
  }
  // sum(y z) = sum(x) over matched (z=1 exactly when matched).
  const double mean_y = s.sum / s.sampled_rows;
  const double mean_z = s.matched / s.sampled_rows;
  return (s.sum - s.sampled_rows * mean_y * mean_z) / (s.sampled_rows - 1.0);
}

double Fpc(const StratumSummary& s) {
  if (s.total_rows <= 0.0) {
    return 0.0;
  }
  return std::max(0.0, 1.0 - s.sampled_rows / s.total_rows);
}

// Strata observed with a single sampled row cannot estimate their
// within-stratum variance (the naive formula returns 0, which would make
// tiny samples look exact). The standard remedy is the collapsed-strata
// estimator: pool the singleton strata and use the across-strata variance of
// their observed values as a (conservative) stand-in for each one's
// within-stratum variance.
struct PooledSingletons {
  bool valid = false;
  double var_y = 0.0;  // variance of observed masked values y = x * I
  double var_z = 0.0;  // variance of observed indicators z = I
  double cov_yz = 0.0;
};

bool IsVarianceBlindSingleton(const StratumSummary& s) {
  return s.sampled_rows > 0.0 && s.sampled_rows <= 1.0 && s.total_rows > 1.0;
}

PooledSingletons PoolSingletonStrata(const std::vector<StratumSummary>& strata) {
  PooledSingletons pooled;
  RunningMoments y_moments;
  RunningMoments z_moments;
  double sum_yz = 0.0;
  double n = 0.0;
  for (const auto& s : strata) {
    if (!IsVarianceBlindSingleton(s)) {
      continue;
    }
    const double y = s.sum;      // the single observed value (0 if unmatched)
    const double z = s.matched;  // 0 or 1
    y_moments.Add(y);
    z_moments.Add(z);
    sum_yz += y * z;
    n += 1.0;
  }
  if (n >= 2.0) {
    pooled.valid = true;
    pooled.var_y = y_moments.variance_sample();
    pooled.var_z = z_moments.variance_sample();
    pooled.cov_yz = (sum_yz - n * y_moments.mean() * z_moments.mean()) / (n - 1.0);
  }
  return pooled;
}

double MaskedVarianceOrPooled(const StratumSummary& s, const PooledSingletons& pooled) {
  if (IsVarianceBlindSingleton(s) && pooled.valid) {
    return pooled.var_y;
  }
  return StratumVarianceOfMaskedValue(s);
}

double IndicatorVarianceOrPooled(const StratumSummary& s, const PooledSingletons& pooled) {
  if (IsVarianceBlindSingleton(s) && pooled.valid) {
    return pooled.var_z;
  }
  return StratumVarianceOfIndicator(s);
}

double CovarianceOrPooled(const StratumSummary& s, const PooledSingletons& pooled) {
  if (IsVarianceBlindSingleton(s) && pooled.valid) {
    return pooled.cov_yz;
  }
  return StratumCovarianceYz(s);
}

}  // namespace

Estimate StratifiedCount(const std::vector<StratumSummary>& strata) {
  Estimate est;
  const PooledSingletons pooled = PoolSingletonStrata(strata);
  for (const auto& s : strata) {
    if (s.sampled_rows <= 0.0) {
      continue;
    }
    const double w = s.total_rows / s.sampled_rows;
    est.value += w * s.matched;
    est.variance += s.total_rows * s.total_rows * Fpc(s) *
                    IndicatorVarianceOrPooled(s, pooled) / s.sampled_rows;
  }
  return est;
}

Estimate StratifiedSum(const std::vector<StratumSummary>& strata) {
  Estimate est;
  const PooledSingletons pooled = PoolSingletonStrata(strata);
  for (const auto& s : strata) {
    if (s.sampled_rows <= 0.0) {
      continue;
    }
    const double w = s.total_rows / s.sampled_rows;
    est.value += w * s.sum;
    est.variance += s.total_rows * s.total_rows * Fpc(s) *
                    MaskedVarianceOrPooled(s, pooled) / s.sampled_rows;
  }
  return est;
}

Estimate StratifiedAvg(const std::vector<StratumSummary>& strata) {
  // Ratio estimator R = Y_hat / M_hat with
  //   Y_hat = sum_h w_h sum_h(x), M_hat = sum_h w_h m_h.
  // Delta method: Var(R) ~= (Var(Y) - 2R Cov(Y,M) + R^2 Var(M)) / M_hat^2.
  double y_hat = 0.0;
  double m_hat = 0.0;
  double var_y = 0.0;
  double var_m = 0.0;
  double cov_ym = 0.0;
  const PooledSingletons pooled = PoolSingletonStrata(strata);
  for (const auto& s : strata) {
    if (s.sampled_rows <= 0.0) {
      continue;
    }
    const double w = s.total_rows / s.sampled_rows;
    y_hat += w * s.sum;
    m_hat += w * s.matched;
    const double scale = s.total_rows * s.total_rows * Fpc(s) / s.sampled_rows;
    var_y += scale * MaskedVarianceOrPooled(s, pooled);
    var_m += scale * IndicatorVarianceOrPooled(s, pooled);
    cov_ym += scale * CovarianceOrPooled(s, pooled);
  }
  Estimate est;
  if (m_hat <= 0.0) {
    return est;
  }
  const double r = y_hat / m_hat;
  est.value = r;
  est.variance =
      std::max(0.0, (var_y - 2.0 * r * cov_ym + r * r * var_m) / (m_hat * m_hat));
  return est;
}

Estimate WeightedQuantile(std::vector<std::pair<double, double>> value_weight, double p) {
  Estimate est;
  if (value_weight.empty()) {
    return est;
  }
  std::sort(value_weight.begin(), value_weight.end());
  double total_w = 0.0;
  double total_w_sq = 0.0;
  for (const auto& [v, w] : value_weight) {
    total_w += w;
    total_w_sq += w * w;
  }
  // Weighted quantile: smallest value whose cumulative weight reaches p * W.
  const double target = p * total_w;
  double acc = 0.0;
  double q = value_weight.back().first;
  for (const auto& [v, w] : value_weight) {
    acc += w;
    if (acc >= target) {
      q = v;
      break;
    }
  }
  est.value = q;
  // Kish effective sample size for the variance formula.
  const double n_eff = total_w * total_w / std::max(total_w_sq, 1e-300);
  std::vector<double> sorted_values;
  sorted_values.reserve(value_weight.size());
  for (const auto& [v, w] : value_weight) {
    (void)w;
    sorted_values.push_back(v);
  }
  const double f = HistogramDensityAt(sorted_values, q);
  est.variance = p * (1.0 - p) / (n_eff * f * f);
  return est;
}

}  // namespace blink
