// Online incremental executor: differential equivalence with the one-shot
// engine, stopping-rule properties, progress-callback contract, and the
// achieved-error report metric.
//
//  - Differential: the streaming path with the never-stop rule is
//    bit-identical to ExecuteQuery for thread counts {1, 2, 7} and morsel
//    sizes {64, 1024, default}, for every batch size — and near-identical to
//    the row-at-a-time ExecuteQueryScalar reference.
//  - Stopping-rule property (seeded RNG, many random queries): the block
//    prefix consumed at stop is always sample-prefix-aligned, never shorter
//    than the smallest resolution, and achieved_error <= the requested error
//    whenever an error stop is reported.
//  - ExecutionReport::achieved_error is the max over groups/aggregates; a
//    zero-valued group must not collapse it to 0.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "src/exec/executor.h"
#include "src/exec/morsel.h"
#include "src/plan/query_plan.h"
#include "src/runtime/query_runtime.h"
#include "src/sample/sample_family.h"
#include "src/sql/parser.h"
#include "src/stats/stopping.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace blink {
namespace {

constexpr uint64_t kRows = 24'000;

Table MakeFact() {
  Table t(Schema({{"a", DataType::kInt64},
                  {"v", DataType::kDouble},
                  {"s", DataType::kString},
                  {"w", DataType::kDouble}}));
  t.Reserve(kRows);
  Rng rng(40312);
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

std::string RandomQuery(Rng& rng, bool allow_quantile) {
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
    sql += aggs[rng.NextBounded(allow_quantile ? 6 : 5)];
  }
  sql += " FROM t";
  if (rng.NextBernoulli(0.8)) {
    sql += " WHERE " + RandomLeaf(rng);
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

// Near-equality for the scalar reference (different summation association).
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

SampleFamily MustBuildStratified(const Table& fact, uint64_t cap, uint64_t seed) {
  Rng rng(seed);
  SampleFamilyOptions options;
  options.largest_cap = cap;
  options.max_resolutions = 6;
  auto family = SampleFamily::BuildStratified(fact, {"s"}, options, rng);
  EXPECT_TRUE(family.ok());
  return std::move(family.value());
}

// A streamed scan of one dataset: the 1-pipeline plan ExecuteQuery builds.
Result<PlanResult> ExecuteOnePipeline(const SelectStatement& stmt, const Dataset& ds,
                                      const PlanOptions& options) {
  QueryPlan plan;
  PipelineSpec spec;
  spec.stmt = stmt;
  spec.dataset = ds;
  plan.pipelines.push_back(std::move(spec));
  return ExecutePlan(plan, options);
}

SampleFamily MustBuildUniform(const Table& fact, double fraction, uint64_t seed) {
  Rng rng(seed);
  SampleFamilyOptions options;
  options.uniform_fraction = fraction;
  options.max_resolutions = 5;
  auto family = SampleFamily::BuildUniform(fact, options, rng);
  EXPECT_TRUE(family.ok());
  return std::move(family.value());
}

// --- Differential: never-stop streaming == one-shot, bit for bit ------------

// The satellite contract: across thread counts {1, 2, 7}, morsel sizes
// {64, 1024, default}, and several batch sizes, the streamed scan with the
// never-stop rule (plus a live progress callback, which forces the per-batch
// re-finalization path) is bit-identical to ExecuteQuery, and both agree
// with ExecuteQueryScalar up to summation order.
void CheckDifferential(const Dataset& ds, uint64_t seed, int num_queries) {
  Rng rng(seed);
  for (int q = 0; q < num_queries; ++q) {
    const std::string sql = RandomQuery(rng, /*allow_quantile=*/true);
    auto stmt = ParseSelect(sql);
    ASSERT_TRUE(stmt.ok()) << sql << ": " << stmt.status().ToString();
    auto scalar = ExecuteQueryScalar(*stmt, ds);
    ASSERT_TRUE(scalar.ok()) << sql;
    for (uint32_t morsel_rows : {64u, 1024u, kDefaultMorselRows}) {
      for (size_t threads : {1u, 2u, 7u}) {
        ThreadPool pool(threads);
        ExecutionOptions exec;
        exec.pool = &pool;
        exec.morsel_rows = morsel_rows;
        auto oneshot = ExecuteQuery(*stmt, ds, nullptr, exec);
        ASSERT_TRUE(oneshot.ok()) << sql;
        ExpectClose(*oneshot, *scalar, sql + " [one-shot vs scalar]");
        for (uint32_t batch : {1u, 3u, 1000u}) {
          PlanOptions stream;
          stream.exec = exec;
          stream.batch_blocks = batch;
          size_t callbacks = 0;
          stream.progress = [&callbacks](const QueryResult&, const StreamProgress&) {
            ++callbacks;
          };
          auto streamed = ExecuteOnePipeline(*stmt, ds, stream);
          ASSERT_TRUE(streamed.ok()) << sql;
          const std::string context = sql + " [threads=" + std::to_string(threads) +
                                      " morsel=" + std::to_string(morsel_rows) +
                                      " batch=" + std::to_string(batch) + "]";
          ExpectIdentical(streamed->result, *oneshot, context);
          EXPECT_FALSE(streamed->stopped_early) << context;
          EXPECT_EQ(streamed->blocks_consumed, streamed->blocks_total) << context;
          EXPECT_GE(callbacks, 1u) << context;
        }
      }
    }
  }
}

TEST(IncrementalDifferentialTest, ExactTable) {
  const Table fact = MakeFact();
  CheckDifferential(Dataset::Exact(fact), 11, 4);
}

TEST(IncrementalDifferentialTest, StratifiedSample) {
  const Table fact = MakeFact();
  const SampleFamily family = MustBuildStratified(fact, 500, 5);
  CheckDifferential(family.LogicalSample(0), 22, 3);
  CheckDifferential(family.LogicalSample(family.num_resolutions() / 2), 23, 2);
}

TEST(IncrementalDifferentialTest, UniformSample) {
  const Table fact = MakeFact();
  const SampleFamily family = MustBuildUniform(fact, 0.4, 6);
  CheckDifferential(family.LogicalSample(0), 33, 3);
}

// --- Stopping-rule property --------------------------------------------------

// For many random queries and targets: the consumed prefix is always a whole
// number of plan blocks (sample-prefix-aligned), at least the smallest
// resolution when stopped early, and achieved_error <= the requested error
// whenever an error stop fires — with the achieved error independently
// recomputed from the returned partial answer.
void CheckStoppingProperty(const Dataset& ds, uint64_t seed, int num_queries,
                           int* early_stops) {
  Rng rng(seed);
  for (int q = 0; q < num_queries; ++q) {
    const std::string sql = RandomQuery(rng, /*allow_quantile=*/false);
    auto stmt = ParseSelect(sql);
    ASSERT_TRUE(stmt.ok()) << sql;
    const double target = 0.01 + rng.NextDouble() * 0.25;

    PlanOptions stream;
    ThreadPool pool(1 + rng.NextBounded(4));
    stream.exec.pool = &pool;
    stream.exec.morsel_rows = 512;
    stream.batch_blocks = 1 + static_cast<uint32_t>(rng.NextBounded(4));
    stream.policy.target_error = target;
    stream.policy.confidence = 0.95;
    stream.policy.min_blocks = 2;
    stream.policy.min_matched = 40.0;
    auto streamed = ExecuteOnePipeline(*stmt, ds, stream);
    ASSERT_TRUE(streamed.ok()) << sql;

    const std::string context = sql + " [target=" + std::to_string(target) + "]";
    // Prefix alignment: rows_consumed is the end of block blocks_consumed-1
    // of the same carving the executor used.
    const MorselPlan plan = ds.PlanMorsels(stream.exec.morsel_rows);
    ASSERT_EQ(streamed->blocks_total, plan.num_blocks()) << context;
    ASSERT_GE(streamed->blocks_consumed, 1u) << context;
    ASSERT_LE(streamed->blocks_consumed, plan.num_blocks()) << context;
    EXPECT_EQ(streamed->rows_consumed,
              plan.morsels[streamed->blocks_consumed - 1].end)
        << context;

    if (streamed->stopped_early) {
      ++*early_stops;
      EXPECT_TRUE(streamed->bound_met) << context;  // no budget: stops are error stops
      // Never stops inside the smallest resolution prefix.
      if (ds.prefix_boundaries != nullptr && !ds.prefix_boundaries->empty()) {
        EXPECT_GE(streamed->rows_consumed, ds.prefix_boundaries->front()) << context;
      }
      // The requested bound holds for the returned answer, recomputed from
      // the result's own estimates.
      std::vector<Estimate> flat;
      for (const auto& row : streamed->result.rows) {
        flat.insert(flat.end(), row.aggregates.begin(), row.aggregates.end());
      }
      const double recomputed = MaxEstimateError(flat, /*relative=*/true, 0.95);
      EXPECT_LE(recomputed, target * (1.0 + 1e-12)) << context;
      EXPECT_DOUBLE_EQ(streamed->achieved_error, recomputed) << context;
    } else {
      EXPECT_EQ(streamed->blocks_consumed, streamed->blocks_total) << context;
    }
  }
}

TEST(StoppingRuleTest, PrefixAlignedAndBoundHonored) {
  const Table fact = MakeFact();
  const SampleFamily stratified = MustBuildStratified(fact, 800, 7);
  const SampleFamily uniform = MustBuildUniform(fact, 0.5, 8);
  int early_stops = 0;
  CheckStoppingProperty(stratified.LogicalSample(0), 404, 30, &early_stops);
  CheckStoppingProperty(uniform.LogicalSample(0), 405, 30, &early_stops);
  // The property is vacuous unless a healthy share of runs actually stop.
  EXPECT_GE(early_stops, 10) << "stopping rule never fired; property untested";
}

TEST(StoppingRuleTest, ExactTablesNeverStopEarly) {
  const Table fact = MakeFact();
  auto stmt = ParseSelect("SELECT AVG(v) FROM t");
  ASSERT_TRUE(stmt.ok());
  PlanOptions stream;
  stream.exec.morsel_rows = 512;
  stream.batch_blocks = 1;
  stream.policy.target_error = 0.5;  // trivially met — must still be ignored
  stream.policy.min_blocks = 1;
  stream.policy.min_matched = 1.0;
  auto streamed = ExecuteOnePipeline(*stmt, Dataset::Exact(fact), stream);
  ASSERT_TRUE(streamed.ok());
  EXPECT_FALSE(streamed->stopped_early);
  EXPECT_EQ(streamed->blocks_consumed, streamed->blocks_total);
}

TEST(StoppingRuleTest, BlockBudgetFloorsAtSmallestResolution) {
  // A budget below the smallest resolution's boundary would return a prefix
  // missing whole strata; the budget must floor at the boundary instead.
  const Table fact = MakeFact();
  const SampleFamily stratified = MustBuildStratified(fact, 800, 12);
  const Dataset ds = stratified.LogicalSample(0);
  ASSERT_FALSE(ds.prefix_boundaries->empty());
  const uint64_t smallest_rows = ds.prefix_boundaries->front();
  const uint32_t morsel_rows = 128;
  ASSERT_GT(smallest_rows, morsel_rows);  // the floor is > 1 block
  auto stmt = ParseSelect("SELECT COUNT(*), SUM(v) FROM t");
  ASSERT_TRUE(stmt.ok());
  PlanOptions stream;
  stream.exec.morsel_rows = morsel_rows;
  stream.budget_pool = 1;  // below the smallest resolution
  auto streamed = ExecuteOnePipeline(*stmt, ds, stream);
  ASSERT_TRUE(streamed.ok());
  EXPECT_TRUE(streamed->stopped_early);
  EXPECT_EQ(streamed->rows_consumed, smallest_rows);
  EXPECT_EQ(streamed->blocks_consumed,
            CountMorsels(smallest_rows, morsel_rows, ds.prefix_boundaries));
  // The smallest resolution holds every stratum, so the budget-stopped COUNT
  // is a sane estimate of the population, not a truncated fragment.
  auto truth = ExecuteQueryScalar(*stmt, Dataset::Exact(fact));
  ASSERT_TRUE(truth.ok());
  const double exact_count = truth->rows[0].aggregates[0].value;
  EXPECT_NEAR(streamed->result.rows[0].aggregates[0].value, exact_count,
              0.25 * exact_count);
}

TEST(StoppingRuleTest, BlockBudgetIsExactForEveryBatchSize) {
  // Regression: budgets route through the driver's shared pool, whose grants
  // must not round consumption up to a batch multiple. A budget below the
  // smallest-resolution floor consumes exactly the floor; one above it
  // consumes exactly the budget — for batch sizes that divide neither.
  const Table fact = MakeFact();
  const SampleFamily stratified = MustBuildStratified(fact, 800, 13);
  const Dataset ds = stratified.LogicalSample(0);
  const uint32_t morsel_rows = 128;
  const uint64_t floor_blocks =
      CountMorsels(ds.prefix_boundaries->front(), morsel_rows, ds.prefix_boundaries);
  ASSERT_GT(floor_blocks, 1u);
  auto stmt = ParseSelect("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(stmt.ok());
  for (uint32_t batch : {0u, 2u, 3u, 4u}) {
    for (uint64_t budget : {uint64_t{1}, floor_blocks + 3}) {
      PlanOptions stream;
      stream.exec.morsel_rows = morsel_rows;
      stream.batch_blocks = batch;
      stream.budget_pool = budget;
      auto streamed = ExecuteOnePipeline(*stmt, ds, stream);
      ASSERT_TRUE(streamed.ok());
      EXPECT_EQ(streamed->blocks_consumed, std::max(budget, floor_blocks))
          << "batch=" << batch << " budget=" << budget;
    }
  }
}

TEST(StoppingRuleTest, BlockBudgetIsExact) {
  const Table fact = MakeFact();
  const SampleFamily uniform = MustBuildUniform(fact, 0.5, 9);
  auto stmt = ParseSelect("SELECT SUM(v) FROM t WHERE a < 8");
  ASSERT_TRUE(stmt.ok());
  const Dataset ds = uniform.LogicalSample(0);
  const MorselPlan plan = ds.PlanMorsels(512);
  ASSERT_GT(plan.num_blocks(), 6u);
  PlanOptions stream;
  stream.exec.morsel_rows = 512;
  stream.batch_blocks = 2;
  stream.budget_pool = 5;
  auto streamed = ExecuteOnePipeline(*stmt, ds, stream);
  ASSERT_TRUE(streamed.ok());
  EXPECT_EQ(streamed->blocks_consumed, 5u);
  EXPECT_TRUE(streamed->stopped_early);
  EXPECT_FALSE(streamed->bound_met);  // no error target was set
  EXPECT_EQ(streamed->rows_consumed, plan.morsels[4].end);
  // The partial answer is in the right neighborhood of the full-scan answer.
  auto full = ExecuteQuery(*stmt, ds);
  ASSERT_TRUE(full.ok());
  const double truth = full->rows[0].aggregates[0].value;
  EXPECT_NEAR(streamed->result.rows[0].aggregates[0].value, truth, 0.2 * truth);
}

// --- Progress callback contract ----------------------------------------------

TEST(ProgressCallbackTest, MonotoneAndFinal) {
  const Table fact = MakeFact();
  const SampleFamily uniform = MustBuildUniform(fact, 0.5, 10);
  auto stmt = ParseSelect("SELECT AVG(v), COUNT(*) FROM t WHERE a < 5");
  ASSERT_TRUE(stmt.ok());
  PlanOptions stream;
  stream.exec.morsel_rows = 512;
  stream.batch_blocks = 3;
  std::vector<StreamProgress> seen;
  stream.progress = [&seen](const QueryResult& partial, const StreamProgress& p) {
    EXPECT_FALSE(partial.rows.empty());  // global aggregate: always one row
    seen.push_back(p);
  };
  auto streamed = ExecuteOnePipeline(*stmt, uniform.LogicalSample(0), stream);
  ASSERT_TRUE(streamed.ok());
  ASSERT_GE(seen.size(), 2u);
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].blocks_total, streamed->blocks_total);
    EXPECT_EQ(seen[i].final_batch, i + 1 == seen.size());
    if (i > 0) {
      EXPECT_GT(seen[i].blocks_consumed, seen[i - 1].blocks_consumed);
      EXPECT_GT(seen[i].rows_consumed, seen[i - 1].rows_consumed);
    }
  }
  EXPECT_EQ(seen.back().blocks_consumed, streamed->blocks_consumed);
  EXPECT_EQ(seen.back().rows_consumed, streamed->rows_consumed);
}

TEST(ProgressCallbackTest, NonStreamedPathsFireOneFinalCallback) {
  // The runtime contract: every successful query ends with exactly one
  // final_batch invocation, even on paths that never stream (here: an
  // unbounded query, answered from the largest resolution one-shot).
  const Table fact = MakeFact();
  SampleStore store;
  ClusterModel cluster;
  Rng rng(99);
  SampleFamilyOptions options;
  options.uniform_fraction = 0.5;
  options.max_resolutions = 5;
  auto uniform = SampleFamily::BuildUniform(fact, options, rng);
  ASSERT_TRUE(uniform.ok());
  store.AddFamily("t", std::move(uniform.value()));
  const double scale = 1e11 / (fact.num_rows() * fact.EstimatedBytesPerRow());

  auto stmt = ParseSelect("SELECT AVG(v) FROM t");  // no bounds: never streams
  ASSERT_TRUE(stmt.ok());
  QueryRuntime runtime(&store, &cluster);
  std::vector<StreamProgress> seen;
  auto answer = runtime.Execute(
      *stmt, "t", fact, scale, nullptr,
      [&seen](const QueryResult& partial, const StreamProgress& p) {
        EXPECT_FALSE(partial.rows.empty());
        seen.push_back(p);
      });
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_TRUE(seen.front().final_batch);
  EXPECT_EQ(seen.front().rows_consumed, answer->report.rows_read);
}

// --- achieved_error: max over groups/aggregates ------------------------------

TEST(AchievedErrorTest, MaxEstimateErrorSkipsZeroValuedEstimates) {
  Estimate zero_valued;  // value 0, nonzero variance: no relative error
  zero_valued.value = 0.0;
  zero_valued.variance = 4.0;
  Estimate wide;
  wide.value = 100.0;
  wide.variance = 25.0;  // rel error at 95% = 1.96 * 5 / 100
  Estimate tight;
  tight.value = 100.0;
  tight.variance = 1.0;
  const std::vector<Estimate> ests = {zero_valued, wide, tight};
  const double expected = wide.RelativeErrorAt(0.95);
  EXPECT_DOUBLE_EQ(MaxEstimateError(ests, /*relative=*/true, 0.95), expected);
  // Absolute mode keeps the zero-valued estimate's half-width in the max.
  EXPECT_DOUBLE_EQ(MaxEstimateError(ests, /*relative=*/false, 0.95),
                   wide.ErrorAt(0.95));
}

TEST(AchievedErrorTest, ReportedErrorIsMaxOverGroups) {
  // Three groups; the middle one has value 0 with nonzero variance. The old
  // metric collapsed the whole report to 0; the fixed one reports the worst
  // group's relative error.
  QueryResult result;
  result.group_names = {"g"};
  result.aggregate_names = {"SUM(v)"};
  for (int g = 0; g < 3; ++g) {
    ResultRow row;
    row.group_values.push_back(Value(static_cast<int64_t>(g)));
    Estimate est;
    est.value = g == 1 ? 0.0 : 50.0 * (g + 1);
    est.variance = g == 0 ? 100.0 : 9.0;
    row.aggregates.push_back(est);
    result.rows.push_back(std::move(row));
  }
  QueryBounds bounds;
  bounds.kind = QueryBounds::Kind::kError;
  bounds.error = 0.1;
  bounds.relative = true;
  const double worst = result.rows[0].aggregates[0].RelativeErrorAt(0.95);
  EXPECT_DOUBLE_EQ(ReportedError(result, bounds, 0.95), worst);
  EXPECT_GT(ReportedError(result, bounds, 0.95), 0.0);
}

TEST(AchievedErrorTest, RuntimeReportMatchesRecomputedMax) {
  // End-to-end: a grouped bounded query's achieved_error equals the max
  // recomputed over every group and aggregate of the returned answer.
  const Table fact = MakeFact();
  SampleStore store;
  ClusterModel cluster;
  Rng rng(77);
  SampleFamilyOptions options;
  options.largest_cap = 600;
  options.max_resolutions = 6;
  auto family = SampleFamily::BuildStratified(fact, {"s"}, options, rng);
  ASSERT_TRUE(family.ok());
  store.AddFamily("t", std::move(family.value()));
  const double scale = 1e11 / (fact.num_rows() * fact.EstimatedBytesPerRow());

  auto stmt = ParseSelect(
      "SELECT s, AVG(v), COUNT(*) FROM t WHERE a < 7 GROUP BY s "
      "ERROR WITHIN 10% AT CONFIDENCE 95%");
  ASSERT_TRUE(stmt.ok());
  QueryRuntime runtime(&store, &cluster);
  auto answer = runtime.Execute(*stmt, "t", fact, scale);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  ASSERT_GT(answer->result.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(answer->report.achieved_error,
                   ReportedError(answer->result, stmt->bounds, 0.95));
}

// --- Runtime streamed path ----------------------------------------------------

// --- Disjunctive union plans ---------------------------------------------------

// Fixture for §4.1.2 union plans: a fact table plus a uniform family, so a
// disjunction over uncovered columns takes the N-pipeline plan path.
struct UnionFixture {
  Table fact = MakeFact();
  SampleStore store;
  ClusterModel cluster;
  double scale = 0.0;

  explicit UnionFixture(uint64_t seed = 14) {
    scale = 1e11 / (fact.num_rows() * fact.EstimatedBytesPerRow());
    Rng rng(seed);
    SampleFamilyOptions options;
    options.uniform_fraction = 0.5;
    options.max_resolutions = 6;
    auto uniform = SampleFamily::BuildUniform(fact, options, rng);
    EXPECT_TRUE(uniform.ok());
    store.AddFamily("t", std::move(uniform.value()));
  }

  ApproxAnswer MustExecute(const SelectStatement& stmt, const RuntimeConfig& config,
                           ProgressCallback progress = {}) const {
    QueryRuntime runtime(&store, &cluster, config);
    auto answer = runtime.Execute(stmt, "t", fact, scale, nullptr, std::move(progress));
    EXPECT_TRUE(answer.ok()) << answer.status().ToString();
    return std::move(answer.value());
  }
};

std::string RandomDisjunctiveQuery(Rng& rng) {
  static const char* aggs[] = {"COUNT(*)", "SUM(v)", "AVG(v)", "AVG(w)"};
  std::string sql = "SELECT ";
  const int num_aggs = 1 + static_cast<int>(rng.NextBounded(3));
  for (int i = 0; i < num_aggs; ++i) {
    if (i > 0) {
      sql += ", ";
    }
    sql += aggs[rng.NextBounded(4)];
  }
  sql += " FROM t WHERE " + RandomLeaf(rng);
  const int extra = 1 + static_cast<int>(rng.NextBounded(2));
  for (int i = 0; i < extra; ++i) {
    sql += " OR " + RandomLeaf(rng);
  }
  return sql;
}

// The satellite contract: a disjunctive union plan driven with the
// never-stop rule (an unreachably tight bound streams every pipeline to its
// last block) is bit-identical to the one-shot union across thread counts
// {1, 2, 7}, morsel sizes {64, 1024, 4096}, and batch sizes — the combined
// answer is a pure function of the per-pipeline consumed prefixes, never of
// the interleave.
TEST(DisjunctiveStreamingTest, NeverStopDriveIsBitIdenticalToOneShotUnion) {
  const UnionFixture fx;
  const char* sqls[] = {
      "SELECT COUNT(*), SUM(v) FROM t WHERE a = 1 OR a = 7 "
      "ERROR WITHIN 0.0000001% AT CONFIDENCE 95%",
      "SELECT AVG(v) FROM t WHERE s = 's_3' OR a < 2 "
      "ERROR WITHIN 0.0000001% AT CONFIDENCE 95%",
  };
  for (const char* sql : sqls) {
    auto stmt = ParseSelect(sql);
    ASSERT_TRUE(stmt.ok()) << sql;
    for (uint32_t morsel_rows : {64u, 1024u, kDefaultMorselRows}) {
      RuntimeConfig oneshot;
      oneshot.streaming = false;
      oneshot.morsel_rows = morsel_rows;
      const ApproxAnswer reference = fx.MustExecute(*stmt, oneshot);
      ASSERT_GE(reference.result.rows.size(), 1u) << sql;
      EXPECT_GT(reference.report.num_subqueries, 1u) << sql;
      for (size_t threads : {1u, 2u, 7u}) {
        for (uint32_t batch : {1u, 3u, 64u}) {
          RuntimeConfig streaming;
          streaming.streaming = true;
          streaming.morsel_rows = morsel_rows;
          streaming.exec_threads = threads;
          streaming.stream_batch_blocks = batch;
          const ApproxAnswer streamed = fx.MustExecute(*stmt, streaming);
          const std::string context =
              std::string(sql) + " [threads=" + std::to_string(threads) +
              " morsel=" + std::to_string(morsel_rows) +
              " batch=" + std::to_string(batch) + "]";
          // The bound is unreachable, so the plan consumed everything: the
          // union answer must be bit-identical to the one-shot union.
          ExpectIdentical(streamed.result, reference.result, context);
          EXPECT_FALSE(streamed.report.stopped_early) << context;
          EXPECT_EQ(streamed.report.num_subqueries, reference.report.num_subqueries)
              << context;
        }
      }
    }
  }
}

// Joint stopping property, Monte-Carlo style: over many random disjunctive
// queries and targets, whenever the union plan stops early the *joint* bound
// holds — the combined answer's worst-case error (recomputed independently
// from the returned result) is inside the requested target.
TEST(DisjunctiveStreamingTest, JointBoundHoldsAtStop) {
  const UnionFixture fx;
  Rng rng(909);
  int early_stops = 0;
  int unions = 0;
  uint64_t streamed_blocks = 0;
  uint64_t oneshot_blocks = 0;
  for (int q = 0; q < 40; ++q) {
    const double target = 0.02 + rng.NextDouble() * 0.18;
    char bound[80];
    std::snprintf(bound, sizeof(bound), " ERROR WITHIN %.4f%% AT CONFIDENCE 95%%",
                  target * 100.0);
    const std::string sql = RandomDisjunctiveQuery(rng) + bound;
    auto stmt = ParseSelect(sql);
    ASSERT_TRUE(stmt.ok()) << sql;

    RuntimeConfig streaming;
    streaming.streaming = true;
    streaming.morsel_rows = 512;
    streaming.stream_batch_blocks = 2;
    streaming.exec_threads = 1 + rng.NextBounded(4);
    const ApproxAnswer streamed = fx.MustExecute(*stmt, streaming);
    if (streamed.report.num_subqueries < 2) {
      continue;  // deduped to a conjunctive query: not a union plan
    }
    ++unions;
    const std::string context = sql;
    if (streamed.report.stopped_early) {
      ++early_stops;
      // The joint bound holds for the combined answer, recomputed from the
      // result's own estimates.
      const double recomputed = ReportedError(streamed.result, stmt->bounds, 0.95);
      EXPECT_LE(recomputed, target * (1.0 + 1e-9)) << context;
      EXPECT_DOUBLE_EQ(streamed.report.achieved_error, recomputed) << context;
    }
    // Aggregate block accounting vs the one-shot union on the same query.
    RuntimeConfig oneshot = streaming;
    oneshot.streaming = false;
    const ApproxAnswer projected = fx.MustExecute(*stmt, oneshot);
    streamed_blocks += streamed.report.blocks_consumed;
    oneshot_blocks += projected.report.blocks_consumed;
  }
  // The property is vacuous unless a healthy share of runs actually stop,
  // and stopping must save engine blocks in aggregate.
  EXPECT_GE(unions, 20) << "disjunctive rewrite rarely fired; property untested";
  EXPECT_GE(early_stops, 5) << "joint stopping never fired; property untested";
  EXPECT_LT(streamed_blocks, oneshot_blocks);
}

// Streamed union plans deliver combined partial answers: progress fires per
// round with totals aggregated across pipelines and exactly one final batch.
TEST(DisjunctiveStreamingTest, ProgressStreamsCombinedPartials) {
  const UnionFixture fx;
  auto stmt = ParseSelect(
      "SELECT COUNT(*), AVG(v) FROM t WHERE a = 2 OR a = 8 "
      "ERROR WITHIN 2% AT CONFIDENCE 95%");
  ASSERT_TRUE(stmt.ok());
  RuntimeConfig streaming;
  streaming.streaming = true;
  streaming.morsel_rows = 256;
  streaming.stream_batch_blocks = 2;
  std::vector<StreamProgress> seen;
  const ApproxAnswer answer = fx.MustExecute(
      *stmt, streaming, [&seen](const QueryResult& partial, const StreamProgress& p) {
        EXPECT_FALSE(partial.rows.empty());  // combined union partial
        seen.push_back(p);
      });
  ASSERT_GE(seen.size(), 1u);
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].final_batch, i + 1 == seen.size());
    if (i > 0) {
      EXPECT_GE(seen[i].blocks_consumed, seen[i - 1].blocks_consumed);
    }
  }
  // Totals aggregate across the union's pipelines.
  EXPECT_EQ(seen.back().blocks_consumed, answer.report.blocks_consumed);
  EXPECT_GT(answer.report.num_subqueries, 1u);
}

TEST(RuntimeStreamingTest, StreamedAndOneShotBothMeetTheBound) {
  const Table fact = MakeFact();
  SampleStore store;
  ClusterModel cluster;
  Rng rng(88);
  SampleFamilyOptions options;
  options.uniform_fraction = 0.5;
  options.max_resolutions = 6;
  auto uniform = SampleFamily::BuildUniform(fact, options, rng);
  ASSERT_TRUE(uniform.ok());
  store.AddFamily("t", std::move(uniform.value()));
  const double scale = 1e11 / (fact.num_rows() * fact.EstimatedBytesPerRow());

  auto stmt = ParseSelect(
      "SELECT AVG(v) FROM t WHERE a < 9 ERROR WITHIN 3% AT CONFIDENCE 95%");
  ASSERT_TRUE(stmt.ok());

  RuntimeConfig streaming;
  streaming.streaming = true;
  streaming.morsel_rows = 512;
  streaming.stream_batch_blocks = 2;
  RuntimeConfig oneshot = streaming;
  oneshot.streaming = false;

  QueryRuntime stream_rt(&store, &cluster, streaming);
  QueryRuntime oneshot_rt(&store, &cluster, oneshot);
  auto streamed = stream_rt.Execute(*stmt, "t", fact, scale);
  auto projected = oneshot_rt.Execute(*stmt, "t", fact, scale);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  ASSERT_TRUE(projected.ok()) << projected.status().ToString();

  // When the scan stopped early, the bound held at the stop; a scan that
  // consumed everything trying is a legitimate outcome of an unreachable
  // bound, not a failure.
  if (streamed->report.stopped_early) {
    EXPECT_LE(streamed->report.achieved_error, 0.03 * (1.0 + 1e-9));
  }
  // Consumed-block accounting must be internally consistent.
  EXPECT_EQ(streamed->report.blocks_consumed, streamed->report.blocks_read);
  EXPECT_GT(streamed->report.blocks_consumed, 0u);
}

}  // namespace
}  // namespace blink
