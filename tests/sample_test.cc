#include <gtest/gtest.h>

#include <set>
#include <unordered_map>

#include "src/exec/executor.h"
#include "src/sample/maintenance.h"
#include "src/sample/sample_family.h"
#include "src/sample/sample_store.h"
#include "src/sql/parser.h"
#include "src/stats/distributions.h"
#include "src/util/rng.h"

namespace blink {
namespace {

// A skewed table: key column with Zipfian frequencies, value column uniform.
Table SkewedTable(uint64_t rows, double zipf_s, uint64_t domain, uint64_t seed = 7) {
  Table t(Schema({{"k", DataType::kInt64},
                  {"city", DataType::kString},
                  {"v", DataType::kDouble}}));
  t.Reserve(rows);
  Rng rng(seed);
  ZipfGenerator zipf(zipf_s, domain);
  for (uint64_t i = 0; i < rows; ++i) {
    const uint64_t k = zipf.Next(rng);
    t.AppendInt(0, static_cast<int64_t>(k));
    t.AppendString(1, "city_" + std::to_string(rng.NextBounded(97)));
    t.AppendDouble(2, rng.NextDouble() * 100.0);
    t.CommitRow();
  }
  return t;
}

TEST(ResolutionCapsTest, ExponentiallyDecreasing) {
  const auto caps = ResolutionCaps(1000, 2.0, 6);
  ASSERT_EQ(caps.size(), 6u);
  EXPECT_EQ(caps[0], 1000u);
  EXPECT_EQ(caps[1], 500u);
  EXPECT_EQ(caps[5], 31u);
  for (size_t i = 1; i < caps.size(); ++i) {
    EXPECT_LT(caps[i], caps[i - 1]);
  }
}

TEST(ResolutionCapsTest, StopsAtOne) {
  const auto caps = ResolutionCaps(8, 2.0, 10);
  // 8, 4, 2, 1.
  ASSERT_EQ(caps.size(), 4u);
  EXPECT_EQ(caps.back(), 1u);
}

TEST(StratifiedFamilyTest, CapInvariantHolds) {
  const Table t = SkewedTable(20'000, 1.3, 500);
  Rng rng(1);
  SampleFamilyOptions options;
  options.largest_cap = 100;
  options.resolution_factor = 2.0;
  options.max_resolutions = 4;
  auto family = SampleFamily::BuildStratified(t, {"k"}, options, rng);
  ASSERT_TRUE(family.ok()) << family.status().ToString();

  // For every resolution: per-stratum rows in the logical sample never exceed
  // the cap, and strata with F <= cap are complete.
  const auto key_col = t.schema().FindColumn("k").value();
  std::unordered_map<int64_t, uint64_t> true_freq;
  for (uint64_t r = 0; r < t.num_rows(); ++r) {
    ++true_freq[t.GetInt(key_col, r)];
  }
  for (size_t res = 0; res < family->num_resolutions(); ++res) {
    const Dataset ds = family->LogicalSample(res);
    const uint64_t cap = family->resolution(res).cap;
    std::unordered_map<int64_t, uint64_t> sample_freq;
    for (uint64_t r = 0; r < ds.NumRows(); ++r) {
      ++sample_freq[ds.table->GetInt(key_col, r)];
    }
    for (const auto& [k, f] : sample_freq) {
      EXPECT_LE(f, cap) << "cap violated at resolution " << res;
      if (true_freq[k] <= cap) {
        EXPECT_EQ(f, true_freq[k]) << "rare stratum not fully kept";
      } else {
        EXPECT_EQ(f, cap) << "capped stratum should have exactly cap rows";
      }
    }
  }
}

TEST(StratifiedFamilyTest, LogicalSamplesAreNested) {
  const Table t = SkewedTable(10'000, 1.2, 300);
  Rng rng(2);
  SampleFamilyOptions options;
  options.largest_cap = 64;
  options.max_resolutions = 4;
  auto family = SampleFamily::BuildStratified(t, {"k"}, options, rng);
  ASSERT_TRUE(family.ok());
  // Prefix property: smaller resolutions are prefixes of larger ones.
  for (size_t i = 1; i < family->num_resolutions(); ++i) {
    EXPECT_LT(family->resolution(i).rows, family->resolution(i - 1).rows);
  }
  // Physical storage equals the largest sample only (delta sharing).
  EXPECT_EQ(family->storage_rows(), family->resolution(0).rows);
}

TEST(StratifiedFamilyTest, StorageMatchesZipfPrediction) {
  // Appendix A: stored fraction ~= sum min(K, F) / sum F.
  constexpr uint64_t kRows = 200'000;
  const Table t = SkewedTable(kRows, 1.5, 100'000, 11);
  Rng rng(3);
  SampleFamilyOptions options;
  options.largest_cap = 100;
  options.max_resolutions = 1;
  auto family = SampleFamily::BuildStratified(t, {"k"}, options, rng);
  ASSERT_TRUE(family.ok());
  const double actual_fraction =
      static_cast<double>(family->storage_rows()) / static_cast<double>(kRows);
  // Compute the exact expectation from the realized frequencies.
  std::unordered_map<int64_t, uint64_t> freq;
  const auto key_col = t.schema().FindColumn("k").value();
  for (uint64_t r = 0; r < kRows; ++r) {
    ++freq[t.GetInt(key_col, r)];
  }
  double expected = 0.0;
  for (const auto& [k, f] : freq) {
    (void)k;
    expected += std::min<uint64_t>(f, 100);
  }
  EXPECT_DOUBLE_EQ(actual_fraction, expected / kRows);
  EXPECT_LT(actual_fraction, 0.6);  // heavy skew compresses well
}

TEST(StratifiedFamilyTest, MultiColumnStratification) {
  const Table t = SkewedTable(5'000, 1.1, 50);
  Rng rng(4);
  SampleFamilyOptions options;
  options.largest_cap = 10;
  options.max_resolutions = 2;
  auto family = SampleFamily::BuildStratified(t, {"k", "city"}, options, rng);
  ASSERT_TRUE(family.ok());
  EXPECT_EQ(family->columns().size(), 2u);
  EXPECT_GT(family->num_strata(), 50u);  // multi-column => more strata
}

TEST(StratifiedFamilyTest, UnknownColumnFails) {
  const Table t = SkewedTable(100, 1.0, 10);
  Rng rng(5);
  EXPECT_FALSE(SampleFamily::BuildStratified(t, {"nope"}, {}, rng).ok());
  EXPECT_FALSE(SampleFamily::BuildStratified(t, {}, {}, rng).ok());
}

TEST(StratifiedFamilyTest, AnswersAreUnbiasedOverRebuilds) {
  // Averaging COUNT estimates across independently built families should
  // converge to the truth (estimator unbiasedness on real sample layout).
  const Table t = SkewedTable(30'000, 1.4, 1'000, 21);
  auto stmt = ParseSelect("SELECT COUNT(*) FROM t WHERE k = 3");
  ASSERT_TRUE(stmt.ok());
  // Ground truth.
  auto exact = ExecuteQuery(*stmt, Dataset::Exact(t));
  ASSERT_TRUE(exact.ok());
  const double truth = exact->rows[0].aggregates[0].value;
  ASSERT_GT(truth, 100.0);  // rank-3 value is frequent -> gets capped

  RunningMoments estimates;
  SampleFamilyOptions options;
  options.largest_cap = 50;
  options.max_resolutions = 1;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(seed * 977 + 1);
    auto family = SampleFamily::BuildStratified(t, {"k"}, options, rng);
    ASSERT_TRUE(family.ok());
    auto result = ExecuteQuery(*stmt, family->LogicalSample(0));
    ASSERT_TRUE(result.ok());
    estimates.Add(result->rows[0].aggregates[0].value);
  }
  EXPECT_NEAR(estimates.mean(), truth, truth * 0.10);
}

TEST(StratifiedFamilyTest, RareGroupsExactInSample) {
  // Strata below the cap are complete, so queries touching only rare values
  // are answered exactly (variance 0) — the §3.1 motivation.
  const Table t = SkewedTable(20'000, 1.6, 5'000, 13);
  Rng rng(6);
  SampleFamilyOptions options;
  options.largest_cap = 200;
  options.max_resolutions = 1;
  auto family = SampleFamily::BuildStratified(t, {"k"}, options, rng);
  ASSERT_TRUE(family.ok());

  // Find a rare value (frequency < cap but > 0).
  const auto key_col = t.schema().FindColumn("k").value();
  std::unordered_map<int64_t, uint64_t> freq;
  for (uint64_t r = 0; r < t.num_rows(); ++r) {
    ++freq[t.GetInt(key_col, r)];
  }
  int64_t rare = -1;
  for (const auto& [k, f] : freq) {
    if (f >= 5 && f < 100) {
      rare = k;
      break;
    }
  }
  ASSERT_NE(rare, -1);
  auto stmt = ParseSelect("SELECT COUNT(*), SUM(v) FROM t WHERE k = " +
                          std::to_string(rare));
  ASSERT_TRUE(stmt.ok());
  auto result = ExecuteQuery(*stmt, family->LogicalSample(0));
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->rows[0].aggregates[0].value,
                   static_cast<double>(freq[rare]));
  EXPECT_DOUBLE_EQ(result->rows[0].aggregates[0].variance, 0.0);
  EXPECT_DOUBLE_EQ(result->rows[0].aggregates[1].variance, 0.0);
}

TEST(UniformFamilyTest, SizesAndWeights) {
  const Table t = SkewedTable(10'000, 1.0, 100);
  Rng rng(7);
  SampleFamilyOptions options;
  options.uniform_fraction = 0.4;
  options.max_resolutions = 3;
  auto family = SampleFamily::BuildUniform(t, options, rng);
  ASSERT_TRUE(family.ok());
  EXPECT_EQ(family->kind(), SampleFamily::Kind::kUniform);
  EXPECT_EQ(family->resolution(0).rows, 4'000u);
  EXPECT_EQ(family->resolution(1).rows, 2'000u);
  EXPECT_EQ(family->resolution(2).rows, 1'000u);
  const Dataset ds = family->LogicalSample(1);
  EXPECT_DOUBLE_EQ(ds.RowWeight(0), 10'000.0 / 2'000.0);
}

TEST(UniformFamilyTest, EstimatesUnbiased) {
  const Table t = SkewedTable(50'000, 1.2, 500, 31);
  auto stmt = ParseSelect("SELECT AVG(v) FROM t");
  ASSERT_TRUE(stmt.ok());
  auto exact = ExecuteQuery(*stmt, Dataset::Exact(t));
  ASSERT_TRUE(exact.ok());
  const double truth = exact->rows[0].aggregates[0].value;

  Rng rng(8);
  SampleFamilyOptions options;
  options.uniform_fraction = 0.1;
  options.max_resolutions = 2;
  auto family = SampleFamily::BuildUniform(t, options, rng);
  ASSERT_TRUE(family.ok());
  auto approx = ExecuteQuery(*stmt, family->LogicalSample(0));
  ASSERT_TRUE(approx.ok());
  const Estimate& est = approx->rows[0].aggregates[0];
  EXPECT_NEAR(est.value, truth, 5.0 * est.stddev());
  EXPECT_GT(est.variance, 0.0);
}

TEST(UniformFamilyTest, InvalidFractionFails) {
  const Table t = SkewedTable(100, 1.0, 10);
  Rng rng(9);
  SampleFamilyOptions options;
  options.uniform_fraction = 0.0;
  EXPECT_FALSE(SampleFamily::BuildUniform(t, options, rng).ok());
  options.uniform_fraction = 1.5;
  EXPECT_FALSE(SampleFamily::BuildUniform(t, options, rng).ok());
}

TEST(SampleStoreTest, RegistrationAndLookup) {
  const Table t = SkewedTable(2'000, 1.2, 100);
  Rng rng(10);
  SampleFamilyOptions options;
  options.largest_cap = 20;
  options.max_resolutions = 2;
  options.uniform_fraction = 0.3;

  SampleStore store;
  auto uniform = SampleFamily::BuildUniform(t, options, rng);
  auto strat_k = SampleFamily::BuildStratified(t, {"k"}, options, rng);
  auto strat_kc = SampleFamily::BuildStratified(t, {"k", "city"}, options, rng);
  ASSERT_TRUE(uniform.ok() && strat_k.ok() && strat_kc.ok());
  store.AddFamily("t", std::move(uniform.value()));
  store.AddFamily("t", std::move(strat_k.value()));
  store.AddFamily("t", std::move(strat_kc.value()));

  EXPECT_EQ(store.FamiliesFor("t").size(), 3u);
  EXPECT_NE(store.UniformFamily("t"), nullptr);
  EXPECT_EQ(store.UniformFamily("other"), nullptr);

  // Covering lookup: phi = {k} is covered by both stratified families,
  // fewest-columns first.
  const auto covering = store.CoveringFamilies("t", {"k"});
  ASSERT_EQ(covering.size(), 2u);
  EXPECT_EQ(covering[0]->columns().size(), 1u);
  // phi = {city} only covered by the two-column family.
  EXPECT_EQ(store.CoveringFamilies("t", {"city"}).size(), 1u);
  // phi = {k, city, v} covered by none.
  EXPECT_TRUE(store.CoveringFamilies("t", {"city", "k", "v"}).empty());

  EXPECT_NE(store.FindStratified("t", {"k"}), nullptr);
  EXPECT_EQ(store.FindStratified("t", {"v"}), nullptr);
  EXPECT_GT(store.TotalStorageBytes("t"), 0.0);

  EXPECT_TRUE(store.RemoveFamily("t", {"k"}));
  EXPECT_FALSE(store.RemoveFamily("t", {"k"}));
  EXPECT_EQ(store.FamiliesFor("t").size(), 2u);
  EXPECT_TRUE(store.RemoveUniform("t"));
  EXPECT_EQ(store.UniformFamily("t"), nullptr);
}

TEST(MaintenanceTest, NoDriftOnSameData) {
  const Table t = SkewedTable(10'000, 1.3, 200, 17);
  Rng rng(11);
  SampleFamilyOptions options;
  options.largest_cap = 50;
  options.max_resolutions = 2;
  auto family = SampleFamily::BuildStratified(t, {"k"}, options, rng);
  ASSERT_TRUE(family.ok());
  auto drift = CheckDrift(*family, t, 0.05);
  ASSERT_TRUE(drift.ok());
  EXPECT_LT(drift->total_variation, 0.01);
  EXPECT_FALSE(drift->needs_refresh);
}

TEST(MaintenanceTest, DetectsDistributionChange) {
  const Table t = SkewedTable(10'000, 1.3, 200, 17);
  Rng rng(12);
  SampleFamilyOptions options;
  options.largest_cap = 50;
  options.max_resolutions = 2;
  auto family = SampleFamily::BuildStratified(t, {"k"}, options, rng);
  ASSERT_TRUE(family.ok());
  // New data with a very different skew.
  const Table changed = SkewedTable(10'000, 0.2, 200, 18);
  auto drift = CheckDrift(*family, changed, 0.05);
  ASSERT_TRUE(drift.ok());
  EXPECT_TRUE(drift->needs_refresh);
  EXPECT_GT(drift->total_variation, 0.05);

  // Rebuild restores agreement.
  auto fresh = RebuildFamily(*family, changed, options, rng);
  ASSERT_TRUE(fresh.ok());
  auto after = CheckDrift(*fresh, changed, 0.05);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->needs_refresh);
}

TEST(MaintenanceTest, UniformDriftIsSizeBased) {
  const Table t = SkewedTable(10'000, 1.0, 100, 19);
  Rng rng(13);
  SampleFamilyOptions options;
  options.uniform_fraction = 0.2;
  auto family = SampleFamily::BuildUniform(t, options, rng);
  ASSERT_TRUE(family.ok());
  // Same size: no drift.
  auto same = CheckDrift(*family, t, 0.1);
  ASSERT_TRUE(same.ok());
  EXPECT_FALSE(same->needs_refresh);
  // Doubled data: drift.
  const Table bigger = SkewedTable(20'000, 1.0, 100, 20);
  auto grown = CheckDrift(*family, bigger, 0.1);
  ASSERT_TRUE(grown.ok());
  EXPECT_TRUE(grown->needs_refresh);
}

}  // namespace
}  // namespace blink
