#include <gtest/gtest.h>

#include <cmath>

#include "src/exec/executor.h"
#include "src/sql/parser.h"
#include "src/storage/encoded_table.h"
#include "src/util/rng.h"

namespace blink {
namespace {

// Paper §4.3 Sessions table (Table 3).
Table SessionsTable() {
  Table t(Schema({{"url", DataType::kString},
                  {"city", DataType::kString},
                  {"browser", DataType::kString},
                  {"session_time", DataType::kDouble}}));
  auto add = [&t](const char* url, const char* city, const char* browser, double st) {
    ASSERT_TRUE(t.AppendRow({Value(url), Value(city), Value(browser), Value(st)}).ok());
  };
  add("cnn.com", "New York", "Firefox", 15);
  add("yahoo.com", "New York", "Firefox", 20);
  add("google.com", "Berkeley", "Firefox", 85);
  add("google.com", "New York", "Safari", 82);
  add("bing.com", "Cambridge", "IE", 22);
  return t;
}

QueryResult MustRun(const std::string& sql, const Dataset& ds, const Table* dim = nullptr) {
  auto stmt = ParseSelect(sql);
  EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto result = ExecuteQuery(*stmt, ds, dim);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result.value());
}

TEST(ExecutorTest, GlobalCountExact) {
  const Table t = SessionsTable();
  const QueryResult r = MustRun("SELECT COUNT(*) FROM sessions", Dataset::Exact(t));
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(r.rows[0].aggregates[0].value, 5.0);
  EXPECT_DOUBLE_EQ(r.rows[0].aggregates[0].variance, 0.0);
}

TEST(ExecutorTest, FilteredCount) {
  const Table t = SessionsTable();
  const QueryResult r =
      MustRun("SELECT COUNT(*) FROM s WHERE city = 'New York'", Dataset::Exact(t));
  EXPECT_DOUBLE_EQ(r.rows[0].aggregates[0].value, 3.0);
  EXPECT_EQ(r.stats.rows_scanned, 5u);
  EXPECT_EQ(r.stats.rows_matched, 3u);
}

TEST(ExecutorTest, GroupBySumExact) {
  const Table t = SessionsTable();
  const QueryResult r = MustRun(
      "SELECT city, SUM(session_time) FROM s GROUP BY city", Dataset::Exact(t));
  ASSERT_EQ(r.rows.size(), 3u);  // Berkeley, Cambridge, New York (sorted)
  EXPECT_EQ(r.rows[0].group_values[0].AsString(), "Berkeley");
  EXPECT_DOUBLE_EQ(r.rows[0].aggregates[0].value, 85.0);
  EXPECT_EQ(r.rows[1].group_values[0].AsString(), "Cambridge");
  EXPECT_DOUBLE_EQ(r.rows[1].aggregates[0].value, 22.0);
  EXPECT_EQ(r.rows[2].group_values[0].AsString(), "New York");
  EXPECT_DOUBLE_EQ(r.rows[2].aggregates[0].value, 117.0);
}

TEST(ExecutorTest, AvgAndQuantile) {
  const Table t = SessionsTable();
  const QueryResult r = MustRun(
      "SELECT AVG(session_time), MEDIAN(session_time) FROM s", Dataset::Exact(t));
  EXPECT_NEAR(r.rows[0].aggregates[0].value, (15 + 20 + 85 + 82 + 22) / 5.0, 1e-9);
  EXPECT_NEAR(r.rows[0].aggregates[1].value, 22.0, 1e-9);  // median of 15,20,22,82,85
  EXPECT_DOUBLE_EQ(r.rows[0].aggregates[1].variance, 0.0);
}

TEST(ExecutorTest, DisjunctivePredicate) {
  const Table t = SessionsTable();
  const QueryResult r = MustRun(
      "SELECT COUNT(*) FROM s WHERE city = 'Berkeley' OR browser = 'IE'",
      Dataset::Exact(t));
  EXPECT_DOUBLE_EQ(r.rows[0].aggregates[0].value, 2.0);
}

TEST(ExecutorTest, NumericRangePredicate) {
  const Table t = SessionsTable();
  const QueryResult r = MustRun(
      "SELECT COUNT(*) FROM s WHERE session_time >= 20 AND session_time < 83",
      Dataset::Exact(t));
  EXPECT_DOUBLE_EQ(r.rows[0].aggregates[0].value, 3.0);  // 20, 82, 22
}

TEST(ExecutorTest, UnknownLiteralMatchesNothing) {
  const Table t = SessionsTable();
  const QueryResult r =
      MustRun("SELECT COUNT(*) FROM s WHERE city = 'Nowhere'", Dataset::Exact(t));
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(r.rows[0].aggregates[0].value, 0.0);
}

TEST(ExecutorTest, AbsentDictLiteralShortCircuitsEveryStoragePath) {
  // Large enough that the block kernels (not just the scalar Matches path)
  // run, dict-coded so the encoded-view short-circuit is exercised too: a
  // literal absent from the table dictionary must make `=` match nothing and
  // `!=` match everything, identically on every path.
  Table t(Schema({{"s", DataType::kString}, {"v", DataType::kDouble}}));
  const uint64_t rows = 6'000;
  t.Reserve(rows);
  Rng rng(77);
  for (uint64_t i = 0; i < rows; ++i) {
    t.AppendString(0, "s_" + std::to_string(rng.NextBounded(8)));
    t.AppendDouble(1, rng.NextDouble());
    t.CommitRow();
  }
  ASSERT_TRUE(t.BuildEncoded(BlockEncodeOptions{}).ok());
  const Dataset ds = Dataset::Exact(t);
  auto eq = ParseSelect("SELECT COUNT(*) FROM t WHERE s = 'missing'");
  auto ne = ParseSelect("SELECT COUNT(*) FROM t WHERE s != 'missing'");
  ASSERT_TRUE(eq.ok() && ne.ok());
  auto count = [](const Result<QueryResult>& r) {
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r->rows[0].aggregates[0].value;
  };
  // Row-at-a-time reference.
  EXPECT_DOUBLE_EQ(count(ExecuteQueryScalar(*eq, ds)), 0.0);
  EXPECT_DOUBLE_EQ(count(ExecuteQueryScalar(*ne, ds)),
                   static_cast<double>(rows));
  // Block kernels: raw spans, compressed decode-then-filter, and compressed
  // with dict-index views (whole blocks short-circuit on the absent literal).
  for (int mode = 0; mode < 3; ++mode) {
    ExecutionOptions options;
    options.compressed_scan = mode != 0;
    options.filter_encoded_views = mode == 2;
    EXPECT_DOUBLE_EQ(count(ExecuteQuery(*eq, ds, nullptr, options)), 0.0)
        << "mode " << mode;
    EXPECT_DOUBLE_EQ(count(ExecuteQuery(*ne, ds, nullptr, options)),
                     static_cast<double>(rows))
        << "mode " << mode;
  }
}

TEST(ExecutorTest, NotEqualsOnString) {
  const Table t = SessionsTable();
  const QueryResult r =
      MustRun("SELECT COUNT(*) FROM s WHERE browser != 'Firefox'", Dataset::Exact(t));
  EXPECT_DOUBLE_EQ(r.rows[0].aggregates[0].value, 2.0);
}

TEST(ExecutorTest, HavingFiltersGroups) {
  const Table t = SessionsTable();
  const QueryResult r = MustRun(
      "SELECT city, COUNT(*) AS n FROM s GROUP BY city HAVING n >= 2",
      Dataset::Exact(t));
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].group_values[0].AsString(), "New York");
}

TEST(ExecutorTest, JoinWithDimensionTable) {
  const Table t = SessionsTable();
  Table dim(Schema({{"name", DataType::kString}, {"state", DataType::kString}}));
  ASSERT_TRUE(dim.AppendRow({Value("New York"), Value("NY")}).ok());
  ASSERT_TRUE(dim.AppendRow({Value("Berkeley"), Value("CA")}).ok());
  ASSERT_TRUE(dim.AppendRow({Value("Cambridge"), Value("MA")}).ok());
  const QueryResult r = MustRun(
      "SELECT state, SUM(session_time) FROM s JOIN cities ON city = name GROUP BY state",
      Dataset::Exact(t), &dim);
  ASSERT_EQ(r.rows.size(), 3u);
  // Sorted: CA, MA, NY.
  EXPECT_EQ(r.rows[0].group_values[0].AsString(), "CA");
  EXPECT_DOUBLE_EQ(r.rows[0].aggregates[0].value, 85.0);
  EXPECT_EQ(r.rows[2].group_values[0].AsString(), "NY");
  EXPECT_DOUBLE_EQ(r.rows[2].aggregates[0].value, 117.0);
}

TEST(ExecutorTest, JoinDropsUnmatchedFactRows) {
  const Table t = SessionsTable();
  Table dim(Schema({{"name", DataType::kString}}));
  ASSERT_TRUE(dim.AppendRow({Value("Berkeley")}).ok());
  const QueryResult r = MustRun(
      "SELECT COUNT(*) FROM s JOIN d ON city = name", Dataset::Exact(t), &dim);
  EXPECT_DOUBLE_EQ(r.rows[0].aggregates[0].value, 1.0);
}

// --- The paper's §4.3 worked example ------------------------------------------
// Stratified on Browser with K = 1: Firefox keeps 1 of 3 rows (rate 1/3),
// Safari and IE keep their single rows (rate 1). The SUM over the sample must
// scale the Firefox row by 3.
TEST(ExecutorTest, PaperStratifiedSumExample) {
  const Table full = SessionsTable();
  // Build the sample from Table 4 of the paper: rows yahoo/google(safari)/bing.
  const Table sample_rows = full.SelectRows({1, 3, 4});
  std::vector<uint32_t> strata = {0, 1, 2};            // Firefox, Safari, IE
  std::vector<StratumCounts> counts = {{3.0, 1.0}, {1.0, 1.0}, {1.0, 1.0}};
  Dataset ds;
  ds.table = &sample_rows;
  ds.strata = &strata;
  ds.stratum_counts = &counts;

  const QueryResult r = MustRun(
      "SELECT city, SUM(session_time) FROM s GROUP BY city", ds);
  // Paper: New York estimate = (1/0.33)*20 + (1/1)*82 = 142; Cambridge = 22.
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0].group_values[0].AsString(), "Cambridge");
  EXPECT_DOUBLE_EQ(r.rows[0].aggregates[0].value, 22.0);
  EXPECT_EQ(r.rows[1].group_values[0].AsString(), "New York");
  EXPECT_DOUBLE_EQ(r.rows[1].aggregates[0].value, 3.0 * 20.0 + 82.0);
  // Berkeley is missing from the output (subset error) exactly as the paper
  // notes for this stratified sample.
}

// Sampling correctness at scale: uniform 10% sample of a synthetic table
// produces estimates within the predicted error bars.
TEST(ExecutorTest, UniformSampleCountCalibration) {
  Rng rng(99);
  Table t(Schema({{"g", DataType::kInt64}, {"v", DataType::kDouble}}));
  constexpr int kRows = 50'000;
  int true_g1 = 0;
  for (int i = 0; i < kRows; ++i) {
    const int64_t g = static_cast<int64_t>(rng.NextBounded(4));
    true_g1 += g == 1 ? 1 : 0;
    ASSERT_TRUE(t.AppendRow({Value(g), Value(rng.NextDouble() * 10)}).ok());
  }
  // 10% uniform sample.
  std::vector<uint64_t> rows;
  Rng srng(7);
  for (uint64_t i = 0; i < kRows; ++i) {
    if (srng.NextBernoulli(0.1)) {
      rows.push_back(i);
    }
  }
  const Table sample = t.SelectRows(rows);
  std::vector<StratumCounts> counts = {
      {static_cast<double>(kRows), static_cast<double>(rows.size())}};
  Dataset ds;
  ds.table = &sample;
  ds.stratum_counts = &counts;

  const QueryResult r = MustRun("SELECT COUNT(*) FROM t WHERE g = 1", ds);
  const Estimate& est = r.rows[0].aggregates[0];
  EXPECT_GT(est.variance, 0.0);
  // Within 5 sigma of the truth.
  EXPECT_NEAR(est.value, true_g1, 5.0 * est.stddev());
}

TEST(ExecutorTest, ErrorsSurfaceFromBadQueries) {
  const Table t = SessionsTable();
  auto stmt = ParseSelect("SELECT AVG(nope) FROM s");
  ASSERT_TRUE(stmt.ok());
  EXPECT_FALSE(ExecuteQuery(*stmt, Dataset::Exact(t)).ok());
  auto stmt2 = ParseSelect("SELECT COUNT(*) FROM s JOIN d ON url = name");
  ASSERT_TRUE(stmt2.ok());
  EXPECT_FALSE(ExecuteQuery(*stmt2, Dataset::Exact(t)).ok());
}

TEST(ExecutorTest, ToStringRendersRows) {
  const Table t = SessionsTable();
  const QueryResult r =
      MustRun("SELECT city, COUNT(*) FROM s GROUP BY city", Dataset::Exact(t));
  const std::string text = r.ToString();
  EXPECT_NE(text.find("New York"), std::string::npos);
  EXPECT_NE(text.find("COUNT(*)"), std::string::npos);
}

}  // namespace
}  // namespace blink
