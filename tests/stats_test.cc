#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "src/stats/descriptive.h"
#include "src/stats/distributions.h"
#include "src/stats/estimators.h"
#include "src/stats/stopping.h"
#include "src/util/rng.h"

namespace blink {
namespace {

// --- Distributions -----------------------------------------------------------

TEST(ZipfTest, SmallDomainFrequenciesFollowPowerLaw) {
  Rng rng(1);
  ZipfGenerator zipf(1.0, 10);
  std::vector<int> counts(11, 0);
  constexpr int kDraws = 200'000;
  for (int i = 0; i < kDraws; ++i) {
    counts[zipf.Next(rng)]++;
  }
  // P(rank r) = (1/r) / H_10; check rank 1 vs rank 2 ratio ~ 2.
  EXPECT_NEAR(static_cast<double>(counts[1]) / counts[2], 2.0, 0.1);
  EXPECT_NEAR(static_cast<double>(counts[1]) / counts[4], 4.0, 0.3);
}

TEST(ZipfTest, RanksWithinDomain) {
  Rng rng(2);
  ZipfGenerator zipf(1.5, 100);
  for (int i = 0; i < 10'000; ++i) {
    const uint64_t r = zipf.Next(rng);
    ASSERT_GE(r, 1u);
    ASSERT_LE(r, 100u);
  }
}

TEST(ZipfTest, LargeDomainRejectionSampler) {
  Rng rng(3);
  ZipfGenerator zipf(1.2, 50'000'000);  // forces rejection-inversion path
  std::map<uint64_t, int> counts;
  constexpr int kDraws = 100'000;
  for (int i = 0; i < kDraws; ++i) {
    const uint64_t r = zipf.Next(rng);
    ASSERT_GE(r, 1u);
    ASSERT_LE(r, 50'000'000u);
    counts[r]++;
  }
  // Rank 1 should dominate; ratio of P(1)/P(2) = 2^1.2 ~ 2.3.
  ASSERT_GT(counts[1], 0);
  ASSERT_GT(counts[2], 0);
  EXPECT_NEAR(static_cast<double>(counts[1]) / counts[2], std::pow(2.0, 1.2), 0.35);
}

TEST(ZipfTest, ExponentZeroIsUniform) {
  Rng rng(4);
  ZipfGenerator zipf(0.0, 5);
  std::vector<int> counts(6, 0);
  for (int i = 0; i < 50'000; ++i) {
    counts[zipf.Next(rng)]++;
  }
  for (int r = 1; r <= 5; ++r) {
    EXPECT_NEAR(counts[r], 10'000, 500);
  }
}

TEST(ExponentialTest, MeanMatchesRate) {
  Rng rng(5);
  double sum = 0.0;
  constexpr int kDraws = 200'000;
  for (int i = 0; i < kDraws; ++i) {
    sum += NextExponential(rng, 2.0);
  }
  EXPECT_NEAR(sum / kDraws, 0.5, 0.01);
}

TEST(HarmonicTest, ExactSmallSums) {
  // H_3(1) = 1 + 1/2 + 1/3.
  EXPECT_NEAR(GeneralizedHarmonic(1, 3, 1.0), 1.0 + 0.5 + 1.0 / 3.0, 1e-12);
  // Single term.
  EXPECT_NEAR(GeneralizedHarmonic(5, 5, 2.0), 1.0 / 25.0, 1e-12);
}

TEST(HarmonicTest, ApproximationMatchesExactOnBoundary) {
  // Compare the Euler-Maclaurin path against brute force for a 3M-term sum.
  const double approx = GeneralizedHarmonic(1, 3'000'000, 1.5);
  double exact = 0.0;
  for (uint64_t r = 1; r <= 3'000'000; ++r) {
    exact += std::pow(static_cast<double>(r), -1.5);
  }
  EXPECT_NEAR(approx, exact, exact * 1e-9);
}

// Table 5 of the paper: storage fraction for Zipf(s), peak frequency M = 1e9.
struct Table5Case {
  double s;
  double k;
  double expected;
  double tol;
};

class Table5Test : public ::testing::TestWithParam<Table5Case> {};

TEST_P(Table5Test, MatchesPaperAppendixA) {
  const auto& c = GetParam();
  EXPECT_NEAR(ZipfStratifiedStorageFraction(c.s, c.k, 1e9), c.expected, c.tol);
}

INSTANTIATE_TEST_SUITE_P(
    PaperValues, Table5Test,
    ::testing::Values(
        Table5Case{1.5, 1e4, 0.024, 0.004}, Table5Case{1.5, 1e5, 0.052, 0.005},
        Table5Case{1.5, 1e6, 0.114, 0.010}, Table5Case{1.0, 1e4, 0.49, 0.03},
        Table5Case{1.0, 1e5, 0.58, 0.03}, Table5Case{1.0, 1e6, 0.69, 0.03},
        Table5Case{2.0, 1e4, 0.0038, 0.0008}, Table5Case{2.0, 1e5, 0.012, 0.002},
        Table5Case{2.0, 1e6, 0.038, 0.005}, Table5Case{1.2, 1e5, 0.21, 0.02},
        Table5Case{1.8, 1e5, 0.020, 0.004}));

TEST(ZipfStorageTest, FractionMonotoneInCap) {
  const double f4 = ZipfStratifiedStorageFraction(1.5, 1e4, 1e9);
  const double f5 = ZipfStratifiedStorageFraction(1.5, 1e5, 1e9);
  const double f6 = ZipfStratifiedStorageFraction(1.5, 1e6, 1e9);
  EXPECT_LT(f4, f5);
  EXPECT_LT(f5, f6);
  EXPECT_LE(f6, 1.0);
}

TEST(ZipfStorageTest, FractionDecreasesWithSkew) {
  // More skew (larger s) means a shorter tail and smaller stratified sample.
  double prev = 1.1;
  for (double s = 1.0; s <= 2.0; s += 0.1) {
    const double f = ZipfStratifiedStorageFraction(s, 1e5, 1e9);
    EXPECT_LT(f, prev);
    prev = f;
  }
}

// --- Descriptive -------------------------------------------------------------

TEST(RunningMomentsTest, MeanAndVariance) {
  RunningMoments m;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    m.Add(v);
  }
  EXPECT_DOUBLE_EQ(m.mean(), 5.0);
  EXPECT_NEAR(m.variance_population(), 4.0, 1e-12);
  EXPECT_NEAR(m.variance_sample(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(m.count(), 8.0);
  EXPECT_DOUBLE_EQ(m.sum(), 40.0);
}

TEST(RunningMomentsTest, MergeEqualsBulk) {
  Rng rng(6);
  RunningMoments bulk, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextGaussian() * 3.0 + 1.0;
    bulk.Add(v);
    (i % 2 == 0 ? a : b).Add(v);
  }
  a.Merge(b);
  EXPECT_NEAR(a.mean(), bulk.mean(), 1e-9);
  EXPECT_NEAR(a.variance_sample(), bulk.variance_sample(), 1e-9);
}

TEST(RunningMomentsTest, WeightedObservations) {
  RunningMoments m;
  m.Add(10.0, 3.0);
  m.Add(20.0, 1.0);
  EXPECT_NEAR(m.mean(), 12.5, 1e-12);
  EXPECT_DOUBLE_EQ(m.count(), 4.0);
}

TEST(SampleQuantileTest, MedianAndExtremes) {
  std::vector<double> v = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(SampleQuantile(v, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(SampleQuantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(SampleQuantile(v, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(SampleQuantile(v, 0.25), 2.5);
}

TEST(SampleQuantileTest, SingleElement) {
  std::vector<double> v = {42.0};
  EXPECT_DOUBLE_EQ(SampleQuantile(v, 0.5), 42.0);
  EXPECT_DOUBLE_EQ(SampleQuantile(v, 0.99), 42.0);
}

TEST(HistogramDensityTest, UniformSample) {
  std::vector<double> v;
  for (int i = 0; i <= 1000; ++i) {
    v.push_back(i / 1000.0);
  }
  // Density of U[0,1] is 1 everywhere.
  EXPECT_NEAR(HistogramDensityAt(v, 0.5), 1.0, 0.15);
  EXPECT_NEAR(HistogramDensityAt(v, 0.1), 1.0, 0.15);
}

TEST(HistogramDensityTest, NeverZero) {
  std::vector<double> v = {0.0, 1000.0};
  EXPECT_GT(HistogramDensityAt(v, 500.0), 0.0);
}

// --- Estimators (Table 2) ----------------------------------------------------

TEST(NormalQuantileTest, KnownValues) {
  EXPECT_NEAR(NormalQuantile(0.5), 0.0, 1e-8);
  EXPECT_NEAR(NormalQuantile(0.975), 1.959964, 1e-5);
  EXPECT_NEAR(NormalQuantile(0.025), -1.959964, 1e-5);
  EXPECT_NEAR(NormalQuantile(0.995), 2.575829, 1e-5);
  EXPECT_NEAR(NormalQuantile(0.84134), 1.0, 1e-3);
}

TEST(NormalQuantileTest, Symmetry) {
  for (double p : {0.01, 0.1, 0.3, 0.45}) {
    EXPECT_NEAR(NormalQuantile(p), -NormalQuantile(1.0 - p), 1e-7);
  }
}

TEST(ZValueTest, CommonConfidences) {
  EXPECT_NEAR(ZValueForConfidence(0.95), 1.96, 0.001);
  EXPECT_NEAR(ZValueForConfidence(0.99), 2.576, 0.001);
  EXPECT_NEAR(ZValueForConfidence(0.90), 1.645, 0.001);
}

TEST(EstimateTest, ErrorAndInterval) {
  Estimate e{100.0, 25.0};  // stddev = 5
  EXPECT_DOUBLE_EQ(e.stddev(), 5.0);
  EXPECT_NEAR(e.ErrorAt(0.95), 9.8, 0.01);
  EXPECT_NEAR(e.RelativeErrorAt(0.95), 0.098, 0.001);
  const auto iv = e.IntervalAt(0.95);
  EXPECT_NEAR(iv.lo, 90.2, 0.01);
  EXPECT_NEAR(iv.hi, 109.8, 0.01);
}

TEST(EstimateTest, ZeroValueRelativeErrorInfinite) {
  Estimate e{0.0, 1.0};
  EXPECT_TRUE(std::isinf(e.RelativeErrorAt(0.95)));
}

TEST(ClosedFormTest, AvgVarianceIsSampleVarOverN) {
  RunningMoments m;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) {
    m.Add(v);
  }
  const Estimate e = AvgClosedForm(m);
  EXPECT_DOUBLE_EQ(e.value, 3.0);
  EXPECT_NEAR(e.variance, 2.5 / 5.0, 1e-12);
}

TEST(ClosedFormTest, CountScalesByInverseSamplingFraction) {
  const Estimate e = CountClosedForm(/*total=*/1000.0, /*sample=*/100.0, /*matching=*/20.0);
  EXPECT_DOUBLE_EQ(e.value, 200.0);
  // N^2/n c(1-c) = 1e6/100 * 0.2*0.8 = 1600.
  EXPECT_NEAR(e.variance, 1600.0, 1e-9);
}

TEST(ClosedFormTest, SumMatchesManualDomainVariance) {
  // Sample of 4 rows, 2 match with values 10 and 20.
  const Estimate e = SumClosedForm(/*total=*/100.0, /*sample=*/4.0, /*sum=*/30.0,
                                   /*sum_sq=*/500.0);
  EXPECT_DOUBLE_EQ(e.value, 750.0);
  // y = {10, 20, 0, 0}: mean 7.5, var = (500 - 4*56.25)/3 = 91.666...
  EXPECT_NEAR(e.variance, 100.0 * 100.0 * (275.0 / 3.0) / 4.0, 1e-9);
}

TEST(ClosedFormTest, QuantileVarianceShrinksWithN) {
  Rng rng(8);
  std::vector<double> small, large;
  for (int i = 0; i < 100; ++i) {
    small.push_back(rng.NextDouble());
  }
  for (int i = 0; i < 10'000; ++i) {
    large.push_back(rng.NextDouble());
  }
  std::sort(small.begin(), small.end());
  std::sort(large.begin(), large.end());
  const Estimate es = QuantileClosedForm(small, 0.5);
  const Estimate el = QuantileClosedForm(large, 0.5);
  EXPECT_GT(es.variance, el.variance);
  EXPECT_NEAR(el.value, 0.5, 0.05);
}

// Monte-Carlo: the closed-form COUNT variance should match the empirical
// variance of the estimator over repeated samples.
TEST(ClosedFormTest, CountVarianceCalibrated) {
  Rng rng(9);
  constexpr int kPopulation = 10'000;
  constexpr int kSample = 500;
  constexpr double kTrueFraction = 0.3;
  std::vector<int> population(kPopulation);
  for (int i = 0; i < kPopulation; ++i) {
    population[i] = i < kPopulation * kTrueFraction ? 1 : 0;
  }
  RunningMoments estimates;
  double mean_predicted_var = 0.0;
  constexpr int kTrials = 2000;
  for (int t = 0; t < kTrials; ++t) {
    auto idx = rng.SampleWithoutReplacement(kPopulation, kSample);
    int matching = 0;
    for (uint64_t i : idx) {
      matching += population[i];
    }
    const Estimate e = CountClosedForm(kPopulation, kSample, matching);
    estimates.Add(e.value);
    mean_predicted_var += e.variance;
  }
  mean_predicted_var /= kTrials;
  // Unbiased.
  EXPECT_NEAR(estimates.mean(), 3000.0, 30.0);
  // Without-replacement draws have slightly lower variance than the binomial
  // closed form predicts (FPC ~ 0.95); accept a generous band.
  EXPECT_NEAR(estimates.variance_sample(), mean_predicted_var,
              0.25 * mean_predicted_var);
}

// --- Stratified estimators ----------------------------------------------------

TEST(StratifiedTest, FullyKeptStratumIsExact) {
  // One stratum, fully sampled: estimate must equal the truth, variance 0.
  std::vector<StratumSummary> strata = {{100.0, 100.0, 40.0, 400.0, 4400.0}};
  const Estimate count = StratifiedCount(strata);
  EXPECT_DOUBLE_EQ(count.value, 40.0);
  EXPECT_DOUBLE_EQ(count.variance, 0.0);
  const Estimate sum = StratifiedSum(strata);
  EXPECT_DOUBLE_EQ(sum.value, 400.0);
  EXPECT_DOUBLE_EQ(sum.variance, 0.0);
}

TEST(StratifiedTest, CountUnbiasedUnderSampling) {
  // Population: stratum A has 1000 rows, 300 match; we sample 100.
  Rng rng(10);
  std::vector<int> pop(1000);
  for (int i = 0; i < 300; ++i) {
    pop[i] = 1;
  }
  RunningMoments est;
  constexpr int kTrials = 3000;
  for (int t = 0; t < kTrials; ++t) {
    auto idx = rng.SampleWithoutReplacement(1000, 100);
    double matched = 0;
    for (uint64_t i : idx) {
      matched += pop[i];
    }
    std::vector<StratumSummary> strata = {{1000.0, 100.0, matched, matched, matched}};
    est.Add(StratifiedCount(strata).value);
  }
  EXPECT_NEAR(est.mean(), 300.0, 3.0);
}

TEST(StratifiedTest, SumVarianceCalibrated) {
  // Stratum of 2000 values Uniform[0,100], sample 200, no predicate.
  Rng rng(11);
  std::vector<double> pop(2000);
  double truth = 0.0;
  for (auto& v : pop) {
    v = rng.NextDouble() * 100.0;
    truth += v;
  }
  RunningMoments est;
  double predicted_var = 0.0;
  constexpr int kTrials = 2000;
  for (int t = 0; t < kTrials; ++t) {
    auto idx = rng.SampleWithoutReplacement(2000, 200);
    StratumSummary s{2000.0, 200.0, 0.0, 0.0, 0.0};
    for (uint64_t i : idx) {
      s.matched += 1.0;
      s.sum += pop[i];
      s.sum_sq += pop[i] * pop[i];
    }
    const Estimate e = StratifiedSum({s});
    est.Add(e.value);
    predicted_var += e.variance;
  }
  predicted_var /= kTrials;
  EXPECT_NEAR(est.mean(), truth, truth * 0.01);
  EXPECT_NEAR(est.variance_sample(), predicted_var, 0.15 * predicted_var);
}

TEST(StratifiedTest, AvgRatioEstimatorUnbiased) {
  Rng rng(12);
  // Two strata with very different sampling rates.
  std::vector<double> a(1000), b(100);
  double truth_sum = 0.0;
  for (auto& v : a) {
    v = rng.NextDouble() * 10.0;
    truth_sum += v;
  }
  for (auto& v : b) {
    v = 50.0 + rng.NextDouble() * 10.0;
    truth_sum += v;
  }
  const double truth_avg = truth_sum / 1100.0;
  RunningMoments est;
  constexpr int kTrials = 2000;
  for (int t = 0; t < kTrials; ++t) {
    auto ia = rng.SampleWithoutReplacement(1000, 50);
    StratumSummary sa{1000.0, 50.0, 0, 0, 0};
    for (uint64_t i : ia) {
      sa.matched += 1;
      sa.sum += a[i];
      sa.sum_sq += a[i] * a[i];
    }
    // Stratum b kept whole (rare stratum under stratification).
    StratumSummary sb{100.0, 100.0, 100.0, 0, 0};
    for (double v : b) {
      sb.sum += v;
      sb.sum_sq += v * v;
    }
    est.Add(StratifiedAvg({sa, sb}).value);
  }
  EXPECT_NEAR(est.mean(), truth_avg, truth_avg * 0.01);
}

TEST(StratifiedTest, AvgCoverageNearNominal) {
  // 95% CIs should cover the truth ~95% of the time.
  Rng rng(13);
  std::vector<double> pop(5000);
  double truth = 0.0;
  for (auto& v : pop) {
    v = NextExponential(rng, 0.1);  // skewed values
    truth += v;
  }
  truth /= pop.size();
  int covered = 0;
  constexpr int kTrials = 1000;
  for (int t = 0; t < kTrials; ++t) {
    auto idx = rng.SampleWithoutReplacement(5000, 400);
    StratumSummary s{5000.0, 400.0, 0, 0, 0};
    for (uint64_t i : idx) {
      s.matched += 1;
      s.sum += pop[i];
      s.sum_sq += pop[i] * pop[i];
    }
    const Estimate e = StratifiedAvg({s});
    const auto iv = e.IntervalAt(0.95);
    if (truth >= iv.lo && truth <= iv.hi) {
      ++covered;
    }
  }
  EXPECT_GE(covered, 920);  // allow Monte-Carlo slack below 950
  EXPECT_LE(covered, 990);
}

TEST(WeightedQuantileTest, UnweightedMatchesPlain) {
  std::vector<std::pair<double, double>> vw;
  std::vector<double> plain;
  for (int i = 1; i <= 100; ++i) {
    vw.emplace_back(i, 1.0);
    plain.push_back(i);
  }
  const Estimate e = WeightedQuantile(vw, 0.5);
  EXPECT_NEAR(e.value, 50.0, 1.0);
  EXPECT_GT(e.variance, 0.0);
}

TEST(WeightedQuantileTest, WeightsShiftQuantile) {
  // Value 100 has weight 9, value 1 has weight 1: median is 100.
  std::vector<std::pair<double, double>> vw = {{1.0, 1.0}, {100.0, 9.0}};
  EXPECT_DOUBLE_EQ(WeightedQuantile(vw, 0.5).value, 100.0);
}

TEST(ErrorDecompositionTest, PerEstimateErrorsMatchMaxEstimateError) {
  // Mixed bag: an exact estimate, a zero-valued one (no relative error), and
  // two regular ones. The per-estimate decomposition must reproduce the max
  // metric element-wise under the same conventions.
  const std::vector<Estimate> estimates = {
      {50.0, 0.0},   // exact: zero error
      {0.0, 4.0},    // zero-valued: excluded from the relative max
      {100.0, 25.0},
      {200.0, 16.0},
  };
  for (const bool relative : {true, false}) {
    const std::vector<double> errors = PerEstimateErrors(estimates, relative, 0.95);
    ASSERT_EQ(errors.size(), estimates.size());
    EXPECT_EQ(errors[0], 0.0);
    EXPECT_EQ(errors[1], relative ? 0.0 : estimates[1].ErrorAt(0.95));
    EXPECT_DOUBLE_EQ(errors[2], relative ? estimates[2].RelativeErrorAt(0.95)
                                         : estimates[2].ErrorAt(0.95));
    const double max = *std::max_element(errors.begin(), errors.end());
    EXPECT_DOUBLE_EQ(max, MaxEstimateError(estimates, relative, 0.95));
  }
}

TEST(ErrorDecompositionTest, DominatingEstimateIsTheArgmax) {
  const std::vector<Estimate> estimates = {
      {100.0, 1.0},   // rel error ~0.0196
      {100.0, 25.0},  // rel error ~0.098: dominates the relative metric
      {10.0, 0.04},   // rel error ~0.039
  };
  EXPECT_EQ(DominatingEstimate(estimates, /*relative=*/true, 0.95), 1u);
  // In absolute mode the half-widths decide: index 1 still wins here.
  EXPECT_EQ(DominatingEstimate(estimates, /*relative=*/false, 0.95), 1u);
  // All-exact input: nothing dominates.
  const std::vector<Estimate> exact = {{5.0, 0.0}, {7.0, 0.0}};
  EXPECT_EQ(DominatingEstimate(exact, /*relative=*/true, 0.95), exact.size());
}

}  // namespace
}  // namespace blink
