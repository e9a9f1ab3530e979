// Determinism and equivalence properties of the morsel-driven parallel
// engine:
//  - the parallel executor returns QueryResults identical (values, variances,
//    group order) to the single-thread morsel path for every thread count,
//    morsel size, and randomized query, on exact tables and on stratified /
//    uniform sample datasets;
//  - the morsel engine agrees with the row-at-a-time scalar reference up to
//    floating-point summation order;
//  - the runtime's disjunctive-rewrite path is identical across exec_threads;
//  - morsel carving respects sample-prefix boundaries.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "src/exec/executor.h"
#include "src/exec/morsel.h"
#include "src/runtime/query_runtime.h"
#include "src/sample/sample_family.h"
#include "src/sql/parser.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace blink {
namespace {

constexpr uint64_t kRows = 20'000;

Table MakeFact() {
  Table t(Schema({{"a", DataType::kInt64},
                  {"v", DataType::kDouble},
                  {"s", DataType::kString},
                  {"w", DataType::kDouble}}));
  t.Reserve(kRows);
  Rng rng(7031);
  for (uint64_t i = 0; i < kRows; ++i) {
    t.AppendInt(0, static_cast<int64_t>(rng.NextBounded(10)));
    t.AppendDouble(1, rng.NextDouble() * 100.0);
    t.AppendString(2, "s_" + std::to_string(rng.NextBounded(12)));
    t.AppendDouble(3, rng.NextGaussian() * 5.0 + 50.0);
    t.CommitRow();
  }
  return t;
}

std::string RandomLeaf(Rng& rng) {
  static const char* ops[] = {"=", "!=", "<", "<=", ">", ">="};
  switch (rng.NextBounded(3)) {
    case 0:
      return "a " + std::string(ops[rng.NextBounded(6)]) + " " +
             std::to_string(rng.NextBounded(10));
    case 1: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "v %s %.4f", ops[rng.NextBounded(6)],
                    rng.NextDouble() * 100.0);
      return buf;
    }
    default:
      return "s " + std::string(rng.NextBernoulli(0.5) ? "=" : "!=") + " 's_" +
             std::to_string(rng.NextBounded(12)) + "'";
  }
}

std::string RandomPredicate(Rng& rng, int depth) {
  if (depth == 0 || rng.NextBernoulli(0.4)) {
    return RandomLeaf(rng);
  }
  const char* conn = rng.NextBernoulli(0.5) ? " AND " : " OR ";
  const int kids = 2 + static_cast<int>(rng.NextBounded(2));
  std::string out = "(";
  for (int i = 0; i < kids; ++i) {
    if (i > 0) {
      out += conn;
    }
    out += RandomPredicate(rng, depth - 1);
  }
  return out + ")";
}

std::string RandomQuery(Rng& rng) {
  static const char* aggs[] = {"COUNT(*)", "SUM(v)", "AVG(v)", "SUM(a)",
                               "AVG(w)", "MEDIAN(v)"};
  static const char* groups[] = {"", "s", "a", "s, a"};
  const std::string group = groups[rng.NextBounded(4)];
  std::string sql = "SELECT ";
  if (!group.empty()) {
    sql += group + ", ";
  }
  const int num_aggs = 1 + static_cast<int>(rng.NextBounded(3));
  for (int i = 0; i < num_aggs; ++i) {
    if (i > 0) {
      sql += ", ";
    }
    sql += aggs[rng.NextBounded(6)];
  }
  sql += " FROM t";
  if (rng.NextBernoulli(0.8)) {
    sql += " WHERE " + RandomPredicate(rng, 2);
  }
  if (!group.empty()) {
    sql += " GROUP BY " + group;
  }
  return sql;
}

void ExpectValueEq(const Value& x, const Value& y, const std::string& context) {
  ASSERT_EQ(x.is_string(), y.is_string()) << context;
  if (x.is_string()) {
    EXPECT_EQ(x.AsString(), y.AsString()) << context;
  } else {
    EXPECT_EQ(x.AsNumeric(), y.AsNumeric()) << context;
  }
}

// Bit-exact equality: values, variances, group order, match counts.
void ExpectIdentical(const QueryResult& x, const QueryResult& y,
                     const std::string& context) {
  ASSERT_EQ(x.rows.size(), y.rows.size()) << context;
  EXPECT_EQ(x.stats.rows_matched, y.stats.rows_matched) << context;
  for (size_t r = 0; r < x.rows.size(); ++r) {
    const std::string at = context + " row " + std::to_string(r);
    ASSERT_EQ(x.rows[r].group_values.size(), y.rows[r].group_values.size()) << at;
    for (size_t g = 0; g < x.rows[r].group_values.size(); ++g) {
      ExpectValueEq(x.rows[r].group_values[g], y.rows[r].group_values[g], at);
    }
    ASSERT_EQ(x.rows[r].aggregates.size(), y.rows[r].aggregates.size()) << at;
    for (size_t a = 0; a < x.rows[r].aggregates.size(); ++a) {
      EXPECT_EQ(x.rows[r].aggregates[a].value, y.rows[r].aggregates[a].value) << at;
      EXPECT_EQ(x.rows[r].aggregates[a].variance, y.rows[r].aggregates[a].variance)
          << at;
    }
  }
}

// Near-equality for cross-engine comparisons (morsel merge order vs the
// scalar path's row order shifts last-ulp rounding only).
void ExpectClose(const QueryResult& x, const QueryResult& y,
                 const std::string& context) {
  ASSERT_EQ(x.rows.size(), y.rows.size()) << context;
  EXPECT_EQ(x.stats.rows_matched, y.stats.rows_matched) << context;
  for (size_t r = 0; r < x.rows.size(); ++r) {
    const std::string at = context + " row " + std::to_string(r);
    for (size_t a = 0; a < x.rows[r].aggregates.size(); ++a) {
      const double xv = x.rows[r].aggregates[a].value;
      const double yv = y.rows[r].aggregates[a].value;
      EXPECT_NEAR(xv, yv, 1e-9 * std::max(1.0, std::fabs(xv))) << at;
    }
  }
}

QueryResult MustRun(const SelectStatement& stmt, const Dataset& ds,
                    const ExecutionOptions& options) {
  auto result = ExecuteQuery(stmt, ds, nullptr, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result.value());
}

// The property: for randomized queries, every (thread count, morsel size)
// combination returns results identical to the single-thread morsel path at
// that morsel size, and all of them agree with the scalar reference.
void CheckDatasetProperty(const Dataset& ds, uint64_t seed, int num_queries) {
  Rng rng(seed);
  for (int q = 0; q < num_queries; ++q) {
    const std::string sql = RandomQuery(rng);
    auto stmt = ParseSelect(sql);
    ASSERT_TRUE(stmt.ok()) << sql << ": " << stmt.status().ToString();
    auto scalar = ExecuteQueryScalar(*stmt, ds);
    ASSERT_TRUE(scalar.ok()) << sql;
    for (uint32_t morsel_rows : {64u, 1000u, 4096u}) {
      ExecutionOptions serial;
      serial.morsel_rows = morsel_rows;
      const QueryResult reference = MustRun(*stmt, ds, serial);
      ExpectClose(reference, *scalar, sql + " [scalar vs morsel]");
      for (size_t threads : {2u, 4u, 8u}) {
        ThreadPool pool(threads);
        ExecutionOptions parallel = serial;
        parallel.pool = &pool;
        const QueryResult got = MustRun(*stmt, ds, parallel);
        ExpectIdentical(got, reference,
                        sql + " [threads=" + std::to_string(threads) +
                            " morsel=" + std::to_string(morsel_rows) + "]");
      }
    }
  }
}

TEST(ParallelExecTest, DeterministicOnExactTable) {
  const Table fact = MakeFact();
  CheckDatasetProperty(Dataset::Exact(fact), 101, 12);
}

TEST(ParallelExecTest, DeterministicOnStratifiedSample) {
  const Table fact = MakeFact();
  Rng rng(5);
  SampleFamilyOptions options;
  options.largest_cap = 400;
  options.max_resolutions = 6;
  auto family = SampleFamily::BuildStratified(fact, {"s"}, options, rng);
  ASSERT_TRUE(family.ok());
  // Largest resolution (many strata) and an interior one (prefix-aligned).
  CheckDatasetProperty(family->LogicalSample(0), 202, 6);
  CheckDatasetProperty(family->LogicalSample(family->num_resolutions() / 2), 203, 6);
}

TEST(ParallelExecTest, DeterministicOnUniformSample) {
  const Table fact = MakeFact();
  Rng rng(6);
  SampleFamilyOptions options;
  options.uniform_fraction = 0.4;
  options.max_resolutions = 5;
  auto family = SampleFamily::BuildUniform(fact, options, rng);
  ASSERT_TRUE(family.ok());
  CheckDatasetProperty(family->LogicalSample(0), 303, 6);
}

TEST(ParallelExecTest, DeterministicWithJoin) {
  const Table fact = MakeFact();
  Table dim(Schema({{"name", DataType::kString}, {"region", DataType::kString}}));
  for (int i = 0; i < 12; i += 2) {  // half the s values join
    ASSERT_TRUE(
        dim.AppendRow({Value("s_" + std::to_string(i)), Value("r_" + std::to_string(i % 3))})
            .ok());
  }
  // Conjunctive and disjunctive WHERE: the OR-union path must keep the
  // (sel, dim_rows) parallel arrays paired while compacting.
  const char* queries[] = {
      "SELECT region, COUNT(*), SUM(v) FROM t JOIN d ON s = name "
      "WHERE v < 60 AND region != 'r_1' GROUP BY region",
      "SELECT region, COUNT(*), SUM(v) FROM t JOIN d ON s = name "
      "WHERE region = 'r_0' OR (v < 10 AND region != 'r_2') OR a = 3 "
      "GROUP BY region"};
  for (const char* sql : queries) {
    auto stmt = ParseSelect(sql);
    ASSERT_TRUE(stmt.ok()) << sql;
    const Dataset ds = Dataset::Exact(fact);
    auto scalar = ExecuteQueryScalar(*stmt, ds, &dim);
    ASSERT_TRUE(scalar.ok()) << sql;
    for (uint32_t morsel_rows : {64u, 4096u}) {
      ExecutionOptions serial;
      serial.morsel_rows = morsel_rows;
      auto reference = ExecuteQuery(*stmt, ds, &dim, serial);
      ASSERT_TRUE(reference.ok()) << sql;
      ExpectClose(*reference, *scalar, std::string(sql) + " scalar-vs-morsel");
      for (size_t threads : {2u, 4u, 8u}) {
        ThreadPool pool(threads);
        ExecutionOptions parallel = serial;
        parallel.pool = &pool;
        auto got = ExecuteQuery(*stmt, ds, &dim, parallel);
        ASSERT_TRUE(got.ok()) << sql;
        ExpectIdentical(*got, *reference,
                        std::string(sql) + " threads=" + std::to_string(threads));
      }
    }
  }
}

// A dim-side column without a JOIN has no dim row to read; both engines must
// reject it cleanly rather than dereference a missing join side.
TEST(ParallelExecTest, DimColumnWithoutJoinIsRejected) {
  const Table fact = MakeFact();
  Table dim(Schema({{"name", DataType::kString}, {"x", DataType::kDouble}}));
  ASSERT_TRUE(dim.AppendRow({Value("s_0"), Value(1.0)}).ok());
  auto stmt = ParseSelect("SELECT COUNT(*) FROM t WHERE x > 0");
  ASSERT_TRUE(stmt.ok());
  EXPECT_FALSE(ExecuteQuery(*stmt, Dataset::Exact(fact), &dim).ok());
  EXPECT_FALSE(ExecuteQueryScalar(*stmt, Dataset::Exact(fact), &dim).ok());
}

// The §4.1.2 disjunctive rewrite runs subqueries whose probes and scans fan
// out on the runtime's thread pool; answers must not depend on exec_threads.
TEST(ParallelExecTest, DisjunctiveRewriteIdenticalAcrossThreadCounts) {
  const Table fact = MakeFact();
  SampleStore store;
  ClusterModel cluster;
  Rng rng(9);
  SampleFamilyOptions options;
  options.largest_cap = 500;
  options.max_resolutions = 6;
  options.uniform_fraction = 0.3;
  auto uniform = SampleFamily::BuildUniform(fact, options, rng);
  auto by_s = SampleFamily::BuildStratified(fact, {"s"}, options, rng);
  ASSERT_TRUE(uniform.ok() && by_s.ok());
  store.AddFamily("t", std::move(uniform.value()));
  store.AddFamily("t", std::move(by_s.value()));
  const double scale = 1e11 / (fact.num_rows() * fact.EstimatedBytesPerRow());

  // `a` has no covering family, so OR on it takes the union path.
  auto stmt = ParseSelect(
      "SELECT COUNT(*), SUM(v) FROM t WHERE a = 1 OR a = 4 OR a = 7");
  ASSERT_TRUE(stmt.ok());

  std::optional<ApproxAnswer> reference;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    RuntimeConfig config;
    config.exec_threads = threads;
    QueryRuntime runtime(&store, &cluster, config);
    auto answer = runtime.Execute(*stmt, "t", fact, scale);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_GT(answer->report.num_subqueries, 1u);
    if (!reference.has_value()) {
      reference = std::move(answer.value());
      continue;
    }
    ExpectIdentical(answer->result, reference->result,
                    "disjunctive threads=" + std::to_string(threads));
    EXPECT_DOUBLE_EQ(answer->report.total_latency, reference->report.total_latency);
  }
}

TEST(MorselTest, CarvingRespectsPrefixBoundaries) {
  const std::vector<uint64_t> boundaries = {100, 1000, 5000, 20'000};
  const MorselPlan plan = CarveMorsels(12'000, 4096, &boundaries);
  uint64_t covered = 0;
  for (const Morsel& m : plan.morsels) {
    EXPECT_EQ(m.begin, covered);  // contiguous, in order
    EXPECT_LE(m.rows(), 4096u);
    for (uint64_t b : boundaries) {
      // No block straddles a boundary.
      EXPECT_FALSE(m.begin < b && b < m.end) << "block straddles " << b;
    }
    covered = m.end;
  }
  EXPECT_EQ(covered, 12'000u);
  // Every in-range boundary prefix is a whole number of blocks, and the
  // plan-free count agrees with the materialized carving.
  EXPECT_EQ(CountMorsels(100, 4096, &boundaries), 1u);
  EXPECT_EQ(CountMorsels(1000, 4096, &boundaries), 2u);
  EXPECT_EQ(CountMorsels(5000, 4096, &boundaries), 3u);
  EXPECT_EQ(CountMorsels(12'000, 4096, &boundaries), plan.num_blocks());
}

TEST(MorselTest, EmptyAndTinyScans) {
  EXPECT_EQ(CarveMorsels(0, 4096).num_blocks(), 0u);
  const MorselPlan one = CarveMorsels(5, 4096);
  ASSERT_EQ(one.num_blocks(), 1u);
  EXPECT_EQ(one.morsels[0].rows(), 5u);
}

}  // namespace
}  // namespace blink
