// Plan-layer units: ScanPipeline advance/snapshot equivalence with the
// one-shot executor, UnionCombiner recombination math, DNF disjunct
// deduplication, the rewrite_fallback report flag, the pipeline scheduler
// (error attribution, fairness floor, shared budget pools, tie-breaking,
// single-pipeline degeneration), and the PipelineSource seam the driver
// shares with remote shards (grants before awaits, frozen sources).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "src/exec/executor.h"
#include "src/plan/query_plan.h"
#include "src/plan/scan_pipeline.h"
#include "src/plan/scheduler.h"
#include "src/plan/union_combiner.h"
#include "src/runtime/query_runtime.h"
#include "src/sample/sample_family.h"
#include "src/sample/sample_store.h"
#include "src/sql/parser.h"
#include "src/storage/encoded_table.h"
#include "src/util/rng.h"

namespace blink {
namespace {

Table MakeFact(uint64_t rows = 20'000) {
  Table t(Schema({{"a", DataType::kInt64},
                  {"v", DataType::kDouble},
                  {"s", DataType::kString}}));
  t.Reserve(rows);
  Rng rng(515);
  for (uint64_t i = 0; i < rows; ++i) {
    t.AppendInt(0, static_cast<int64_t>(rng.NextBounded(10)));
    t.AppendDouble(1, rng.NextDouble() * 100.0);
    t.AppendString(2, "s_" + std::to_string(rng.NextBounded(8)));
    t.CommitRow();
  }
  return t;
}

void ExpectIdentical(const QueryResult& x, const QueryResult& y) {
  ASSERT_EQ(x.rows.size(), y.rows.size());
  for (size_t r = 0; r < x.rows.size(); ++r) {
    ASSERT_EQ(x.rows[r].aggregates.size(), y.rows[r].aggregates.size());
    for (size_t a = 0; a < x.rows[r].aggregates.size(); ++a) {
      EXPECT_EQ(x.rows[r].aggregates[a].value, y.rows[r].aggregates[a].value);
      EXPECT_EQ(x.rows[r].aggregates[a].variance, y.rows[r].aggregates[a].variance);
    }
  }
}

// --- ScanPipeline -------------------------------------------------------------

TEST(ScanPipelineTest, FullAdvanceMatchesOneShotExecutor) {
  const Table fact = MakeFact();
  Rng rng(7);
  SampleFamilyOptions options;
  options.uniform_fraction = 0.5;
  auto family = SampleFamily::BuildUniform(fact, options, rng);
  ASSERT_TRUE(family.ok());
  const Dataset ds = family->LogicalSample(0);

  auto stmt = ParseSelect("SELECT s, COUNT(*), AVG(v) FROM t WHERE a < 7 GROUP BY s");
  ASSERT_TRUE(stmt.ok());
  ExecutionOptions exec;
  exec.morsel_rows = 512;
  auto oneshot = ExecuteQuery(*stmt, ds, nullptr, exec);
  ASSERT_TRUE(oneshot.ok());

  PipelineSpec spec;
  spec.stmt = *stmt;
  spec.dataset = ds;
  ScanPipeline pipe;
  ASSERT_TRUE(pipe.Init(std::move(spec), exec, /*may_stop_early=*/true).ok());
  EXPECT_FALSE(pipe.complete());
  // Advance in uneven chunks; the result depends only on the prefix length.
  while (!pipe.complete()) {
    pipe.Advance(3);
  }
  EXPECT_EQ(pipe.blocks_consumed(), pipe.blocks_total());
  EXPECT_EQ(pipe.rows_consumed(), ds.NumRows());
  auto snap = pipe.Snapshot();
  ASSERT_TRUE(snap.ok());
  ExpectIdentical(*snap, *oneshot);
}

TEST(ScanPipelineTest, BudgetStopsAtWholeBlocks) {
  const Table fact = MakeFact();
  Rng rng(9);
  SampleFamilyOptions options;
  options.uniform_fraction = 0.5;
  auto family = SampleFamily::BuildUniform(fact, options, rng);
  ASSERT_TRUE(family.ok());
  const Dataset ds = family->LogicalSample(0);

  auto stmt = ParseSelect("SELECT SUM(v) FROM t");
  ASSERT_TRUE(stmt.ok());
  ExecutionOptions exec;
  exec.morsel_rows = 256;
  PipelineSpec spec;
  spec.stmt = *stmt;
  spec.dataset = ds;
  spec.max_blocks = 6;
  ScanPipeline pipe;
  ASSERT_TRUE(pipe.Init(std::move(spec), exec, /*may_stop_early=*/true).ok());
  pipe.Advance(1000);
  EXPECT_TRUE(pipe.complete());
  EXPECT_FALSE(pipe.exhausted());
  EXPECT_GE(pipe.blocks_consumed(), 6u);  // floored at the smallest resolution
  const MorselPlan plan = ds.PlanMorsels(256);
  EXPECT_EQ(pipe.rows_consumed(), plan.morsels[pipe.blocks_consumed() - 1].end);
}

TEST(ScanPipelineTest, AdvancePastBudgetIsANoOp) {
  const Table fact = MakeFact();
  Rng rng(9);
  SampleFamilyOptions options;
  options.uniform_fraction = 0.5;
  auto family = SampleFamily::BuildUniform(fact, options, rng);
  ASSERT_TRUE(family.ok());
  const Dataset ds = family->LogicalSample(0);

  auto stmt = ParseSelect("SELECT SUM(v) FROM t");
  ASSERT_TRUE(stmt.ok());
  ExecutionOptions exec;
  exec.morsel_rows = 256;
  PipelineSpec spec;
  spec.stmt = *stmt;
  spec.dataset = ds;
  spec.max_blocks = 6;
  ScanPipeline pipe;
  ASSERT_TRUE(pipe.Init(std::move(spec), exec, /*may_stop_early=*/true).ok());
  const uint64_t budget = std::max<uint64_t>(6, pipe.min_stop_blocks());
  // Consume in small rounds: each grows by at most the asked-for blocks and
  // never crosses the clamped budget.
  uint64_t prev = 0;
  while (!pipe.complete()) {
    pipe.Advance(2);
    EXPECT_GE(pipe.blocks_consumed(), prev);
    EXPECT_LE(pipe.blocks_consumed(), prev + 2);
    EXPECT_LE(pipe.blocks_consumed(), budget);
    prev = pipe.blocks_consumed();
  }
  EXPECT_EQ(pipe.blocks_consumed(), budget);
  auto before = pipe.Snapshot();
  ASSERT_TRUE(before.ok());
  const double bytes = pipe.bytes_scanned();
  // Once the budget is exhausted every further Advance — any size — is a
  // no-op: consumption, accounting, and the snapshot all stay frozen.
  pipe.Advance(0);
  pipe.Advance(1);
  pipe.Advance(1'000'000);
  EXPECT_EQ(pipe.blocks_consumed(), budget);
  EXPECT_EQ(pipe.bytes_scanned(), bytes);
  auto after = pipe.Snapshot();
  ASSERT_TRUE(after.ok());
  ExpectIdentical(*after, *before);
}

TEST(ScanPipelineTest, SnapshotBytesScannedMatchesPipelineAccounting) {
  Table fact = MakeFact();
  ASSERT_TRUE(fact.BuildEncoded(BlockEncodeOptions{}).ok());
  auto stmt = ParseSelect("SELECT COUNT(*) FROM t WHERE s = 's_3'");
  ASSERT_TRUE(stmt.ok());
  ExecutionOptions exec;
  exec.morsel_rows = 512;
  PipelineSpec spec;
  spec.stmt = *stmt;
  spec.dataset = Dataset::Exact(fact);
  ScanPipeline pipe;
  ASSERT_TRUE(pipe.Init(std::move(spec), exec, /*may_stop_early=*/false).ok());
  pipe.Advance(7);  // partial prefix: the PARTIAL-frame case
  ASSERT_GT(pipe.rows_consumed(), 0u);
  auto partial = pipe.Snapshot();
  ASSERT_TRUE(partial.ok());
  // The regression: Snapshot() recomputed bytes as rows x estimated width,
  // which disagrees with the encoded-bytes sum on compressed storage. There
  // is one accounting now — the snapshot reports the pipeline's own.
  EXPECT_DOUBLE_EQ(partial->stats.bytes_scanned, pipe.bytes_scanned());
  const EncodedTable* et = fact.encoded_blocks();
  ASSERT_NE(et, nullptr);
  // The only touched column is the filter's `s` (column 2): bytes_scanned is
  // its encoded prefix, far below the old whole-row formula.
  EXPECT_DOUBLE_EQ(
      pipe.bytes_scanned(),
      static_cast<double>(et->EncodedBytesInPrefix(2, pipe.rows_consumed())));
  EXPECT_LT(partial->stats.bytes_scanned,
            static_cast<double>(pipe.rows_consumed()) * fact.EstimatedBytesPerRow());
  // `s` is filter-only and dict-coded, and 512-row morsels stay inside the
  // 4096-row blocks: it is served as an encoded view, never materialized.
  EXPECT_EQ(pipe.bytes_decoded(), 0.0);

  while (!pipe.complete()) {
    pipe.Advance(64);
  }
  auto final_snap = pipe.Snapshot();
  ASSERT_TRUE(final_snap.ok());
  EXPECT_DOUBLE_EQ(final_snap->stats.bytes_scanned, pipe.bytes_scanned());

  // Raw storage: the same single accounting, where scanned == decoded ==
  // logical bytes of the touched columns (one 4-byte string column here).
  ExecutionOptions raw_exec = exec;
  raw_exec.compressed_scan = false;
  PipelineSpec raw_spec;
  raw_spec.stmt = *stmt;
  raw_spec.dataset = Dataset::Exact(fact);
  ScanPipeline raw_pipe;
  ASSERT_TRUE(raw_pipe.Init(std::move(raw_spec), raw_exec, false).ok());
  raw_pipe.Advance(7);
  auto raw_snap = raw_pipe.Snapshot();
  ASSERT_TRUE(raw_snap.ok());
  EXPECT_DOUBLE_EQ(raw_snap->stats.bytes_scanned, raw_pipe.bytes_scanned());
  EXPECT_DOUBLE_EQ(raw_pipe.bytes_scanned(), raw_pipe.bytes_decoded());
  EXPECT_DOUBLE_EQ(raw_pipe.bytes_decoded(),
                   static_cast<double>(raw_pipe.rows_consumed()) * 4.0);
}

TEST(ScanPipelineTest, PrecomputedPipelineIsBornComplete) {
  const Table fact = MakeFact();
  const Dataset ds = Dataset::Exact(fact);
  auto stmt = ParseSelect("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(stmt.ok());
  auto canned = ExecuteQuery(*stmt, ds);
  ASSERT_TRUE(canned.ok());
  PipelineSpec spec;
  spec.stmt = *stmt;
  spec.dataset = ds;
  spec.precomputed = *canned;
  ScanPipeline pipe;
  ASSERT_TRUE(pipe.Init(std::move(spec), ExecutionOptions{}, false).ok());
  EXPECT_TRUE(pipe.complete());
  EXPECT_TRUE(pipe.exhausted());
  EXPECT_EQ(pipe.rows_consumed(), fact.num_rows());
  auto snap = pipe.Snapshot();
  ASSERT_TRUE(snap.ok());
  ExpectIdentical(*snap, *canned);
}

// --- UnionCombiner ------------------------------------------------------------

QueryResult OneRowResult(std::vector<Estimate> aggs) {
  QueryResult r;
  r.group_names = {};
  r.aggregate_names.resize(aggs.size(), "x");
  ResultRow row;
  row.aggregates = std::move(aggs);
  r.rows.push_back(std::move(row));
  return r;
}

TEST(UnionCombinerTest, CountSumAddAvgRecombines) {
  auto stmt = ParseSelect("SELECT COUNT(*), SUM(v), AVG(v) FROM t WHERE a = 1 OR a = 2");
  ASSERT_TRUE(stmt.ok());
  UnionCombiner combiner(*stmt);
  EXPECT_FALSE(combiner.append_count());  // the query already has a COUNT

  // Two disjuncts: (count 100, sum 500, avg 5) and (count 300, sum 2100, avg 7).
  const std::vector<QueryResult> parts = {
      OneRowResult({{100.0, 16.0}, {500.0, 25.0}, {5.0, 0.04}}),
      OneRowResult({{300.0, 9.0}, {2100.0, 36.0}, {7.0, 0.01}}),
  };
  const QueryResult combined = combiner.Combine(parts, 0.95);
  ASSERT_EQ(combined.rows.size(), 1u);
  const auto& aggs = combined.rows[0].aggregates;
  ASSERT_EQ(aggs.size(), 3u);
  EXPECT_DOUBLE_EQ(aggs[0].value, 400.0);     // counts add
  EXPECT_DOUBLE_EQ(aggs[0].variance, 25.0);   // variances add
  EXPECT_DOUBLE_EQ(aggs[1].value, 2600.0);    // sums add
  EXPECT_DOUBLE_EQ(aggs[1].variance, 61.0);
  // AVG: (5*100 + 7*300) / 400 = 6.5; var = (100^2*0.04 + 300^2*0.01) / 400^2.
  EXPECT_DOUBLE_EQ(aggs[2].value, 6.5);
  EXPECT_DOUBLE_EQ(aggs[2].variance, (100.0 * 100.0 * 0.04 + 300.0 * 300.0 * 0.01) /
                                         (400.0 * 400.0));
}

TEST(UnionCombinerTest, AppendsHiddenCountForAvgOnlyQueries) {
  auto stmt = ParseSelect("SELECT AVG(v) FROM t WHERE a = 1 OR a = 2");
  ASSERT_TRUE(stmt.ok());
  UnionCombiner combiner(*stmt);
  EXPECT_TRUE(combiner.append_count());
  SelectStatement sub = *stmt;
  combiner.PrepareSubquery(sub);
  ASSERT_EQ(sub.items.size(), stmt->items.size() + 1);
  EXPECT_TRUE(sub.items.back().is_aggregate);
  EXPECT_EQ(sub.items.back().agg.func, AggFunc::kCount);

  // The hidden count (index 1) weights the AVG and is stripped from output.
  const std::vector<QueryResult> parts = {
      OneRowResult({{10.0, 1.0}, {50.0, 0.0}}),
      OneRowResult({{20.0, 1.0}, {150.0, 0.0}}),
  };
  const QueryResult combined = combiner.Combine(parts, 0.95);
  ASSERT_EQ(combined.rows.size(), 1u);
  ASSERT_EQ(combined.rows[0].aggregates.size(), 1u);
  EXPECT_DOUBLE_EQ(combined.rows[0].aggregates[0].value,
                   (10.0 * 50.0 + 20.0 * 150.0) / 200.0);
}

TEST(UnionCombinerTest, AvgOverPartsThatAllMatchedNothingIsTheEmptyEstimate) {
  auto stmt = ParseSelect("SELECT AVG(v) FROM t WHERE a = 1 OR a = 2");
  ASSERT_TRUE(stmt.ok());
  UnionCombiner combiner(*stmt);
  ASSERT_TRUE(combiner.append_count());
  // Every part matched nothing: AVG {0, 0} and hidden COUNT {0, 0} each. The
  // union mean is undefined, so the cell is the empty estimate — what a
  // single-pipeline StratifiedAvg returns for the same cell — and never NaN.
  const std::vector<QueryResult> parts = {
      OneRowResult({{0.0, 0.0}, {0.0, 0.0}}),
      OneRowResult({{0.0, 0.0}, {0.0, 0.0}}),
  };
  const QueryResult combined = combiner.Combine(parts, 0.95);
  ASSERT_EQ(combined.rows.size(), 1u);
  ASSERT_EQ(combined.rows[0].aggregates.size(), 1u);
  EXPECT_EQ(combined.rows[0].aggregates[0].value, 0.0);
  EXPECT_EQ(combined.rows[0].aggregates[0].variance, 0.0);
}

TEST(UnionCombinerTest, DisjointGroupsUnionAndSortDeterministically) {
  auto stmt = ParseSelect("SELECT s, COUNT(*) FROM t WHERE a = 1 OR a = 2 GROUP BY s");
  ASSERT_TRUE(stmt.ok());
  UnionCombiner combiner(*stmt);
  auto row = [](const char* g, double count) {
    QueryResult r;
    r.group_names = {"s"};
    r.aggregate_names = {"COUNT(*)"};
    ResultRow rr;
    rr.group_values.push_back(Value(std::string(g)));
    rr.aggregates.push_back({count, 1.0});
    r.rows.push_back(std::move(rr));
    return r;
  };
  // Pipeline 1 sees group "b", pipeline 2 sees "a": the union holds both,
  // sorted, regardless of which pipeline surfaced a group first.
  const QueryResult combined = combiner.Combine({row("b", 5.0), row("a", 3.0)}, 0.95);
  ASSERT_EQ(combined.rows.size(), 2u);
  EXPECT_EQ(combined.rows[0].group_values[0].AsString(), "a");
  EXPECT_EQ(combined.rows[1].group_values[0].AsString(), "b");
  EXPECT_DOUBLE_EQ(combined.rows[0].aggregates[0].value, 3.0);
  EXPECT_DOUBLE_EQ(combined.rows[1].aggregates[0].value, 5.0);
}

// --- Disjunct dedup + rewrite fallback ---------------------------------------

TEST(DedupDisjunctsTest, RemovesExactAndPermutedDuplicates) {
  auto stmt = ParseSelect(
      "SELECT COUNT(*) FROM t WHERE (a = 1 AND s = 'x') OR (s = 'x' AND a = 1) "
      "OR a = 2 OR a = 2");
  ASSERT_TRUE(stmt.ok());
  auto dnf = ToDnf(*stmt->where, 16);
  ASSERT_TRUE(dnf.has_value());
  ASSERT_EQ(dnf->size(), 4u);
  DedupDisjuncts(*dnf);
  ASSERT_EQ(dnf->size(), 2u);  // {a=1 AND s='x'}, {a=2}
  EXPECT_TRUE((*dnf)[0].IsConjunctive());
  EXPECT_EQ((*dnf)[1].ToString(), "a = 2");
}

struct RuntimeFixture {
  Table fact = MakeFact();
  SampleStore store;
  ClusterModel cluster;
  double scale = 0.0;

  RuntimeFixture() {
    scale = 100e9 / (fact.num_rows() * fact.EstimatedBytesPerRow());
    Rng rng(3);
    SampleFamilyOptions options;
    options.uniform_fraction = 0.4;
    options.max_resolutions = 5;
    auto uniform = SampleFamily::BuildUniform(fact, options, rng);
    EXPECT_TRUE(uniform.ok());
    store.AddFamily("t", std::move(uniform.value()));
  }

  ApproxAnswer MustExecute(const std::string& sql, RuntimeConfig config = {}) {
    auto stmt = ParseSelect(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    QueryRuntime runtime(&store, &cluster, config);
    auto answer = runtime.Execute(*stmt, "t", fact, scale);
    EXPECT_TRUE(answer.ok()) << answer.status().ToString();
    return std::move(answer.value());
  }
};

TEST(DedupDisjunctsTest, DuplicatedDisjunctDoesNotDoubleCount) {
  RuntimeFixture fx;
  const auto dup = fx.MustExecute("SELECT COUNT(*) FROM t WHERE a = 1 OR a = 1");
  const auto single = fx.MustExecute("SELECT COUNT(*) FROM t WHERE a = 1");
  // The degenerate disjunction collapses to the single conjunct: one
  // pipeline, identical answer — not twice the count.
  EXPECT_EQ(dup.report.num_subqueries, 1u);
  ASSERT_EQ(dup.result.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(dup.result.rows[0].aggregates[0].value,
                   single.result.rows[0].aggregates[0].value);
}

TEST(RewriteFallbackTest, DnfOverflowIsReportedNotSilent) {
  RuntimeFixture fx;
  // (a=0|a=1) AND'ed 5 times = 32 disjuncts > max_disjuncts 16.
  std::string where = "(a = 0 OR a = 1)";
  std::string sql = "SELECT COUNT(*) FROM t WHERE " + where;
  for (int i = 0; i < 4; ++i) {
    sql += " AND " + where;
  }
  const auto answer = fx.MustExecute(sql);
  EXPECT_TRUE(answer.report.rewrite_fallback);
  EXPECT_EQ(answer.report.num_subqueries, 1u);
  // The single-scan fallback still answers the (disjunctive) predicate.
  auto stmt = ParseSelect(sql);
  ASSERT_TRUE(stmt.ok());
  auto exact = ExecuteQuery(*stmt, Dataset::Exact(fx.fact));
  ASSERT_TRUE(exact.ok());
  const double truth = exact->rows[0].aggregates[0].value;
  EXPECT_NEAR(answer.result.rows[0].aggregates[0].value, truth, 0.15 * truth);
}

TEST(RewriteFallbackTest, CleanRewriteDoesNotSetTheFlag) {
  RuntimeFixture fx;
  const auto answer = fx.MustExecute("SELECT COUNT(*) FROM t WHERE a = 1 OR a = 2");
  EXPECT_FALSE(answer.report.rewrite_fallback);
  EXPECT_EQ(answer.report.num_subqueries, 2u);
}

// --- Plan driver over multiple pipelines -------------------------------------

TEST(ExecutePlanTest, UnionPlanMatchesPerPipelineExecutions) {
  const Table fact = MakeFact();
  Rng rng(21);
  SampleFamilyOptions options;
  options.uniform_fraction = 0.5;
  auto family = SampleFamily::BuildUniform(fact, options, rng);
  ASSERT_TRUE(family.ok());
  const Dataset ds = family->LogicalSample(0);

  auto stmt = ParseSelect("SELECT COUNT(*), SUM(v) FROM t WHERE a = 1 OR a = 7");
  ASSERT_TRUE(stmt.ok());
  auto sub1 = ParseSelect("SELECT COUNT(*), SUM(v) FROM t WHERE a = 1");
  auto sub2 = ParseSelect("SELECT COUNT(*), SUM(v) FROM t WHERE a = 7");
  ASSERT_TRUE(sub1.ok() && sub2.ok());

  QueryPlan plan;
  for (const auto* sub : {&*sub1, &*sub2}) {
    PipelineSpec spec;
    spec.stmt = *sub;
    spec.dataset = ds;
    plan.pipelines.push_back(std::move(spec));
  }
  plan.combiner.emplace(*stmt);
  PlanOptions popts;
  popts.exec.morsel_rows = 512;
  auto run = ExecutePlan(plan, popts);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_FALSE(run->stopped_early);
  ASSERT_EQ(run->pipelines.size(), 2u);
  EXPECT_EQ(run->blocks_consumed, run->blocks_total);

  // Hand-combined reference: run the two subqueries independently.
  ExecutionOptions exec;
  exec.morsel_rows = 512;
  auto r1 = ExecuteQuery(*sub1, ds, nullptr, exec);
  auto r2 = ExecuteQuery(*sub2, ds, nullptr, exec);
  ASSERT_TRUE(r1.ok() && r2.ok());
  UnionCombiner combiner(*stmt);
  const QueryResult reference = combiner.Combine({*r1, *r2}, 0.95);
  ExpectIdentical(run->result, reference);
}

// --- Error attribution --------------------------------------------------------

TEST(AttributeJointErrorTest, DecomposesDominatingCellAcrossPipelines) {
  auto stmt = ParseSelect("SELECT COUNT(*), AVG(v) FROM t WHERE a = 1 OR a = 2");
  ASSERT_TRUE(stmt.ok());
  UnionCombiner combiner(*stmt);  // COUNT present: count_idx = 0, nothing appended
  // Pipeline 1: count 100 (var 4), avg 10 (var 0.09); pipeline 2: count 300
  // (var 1), avg 12 (var 0.04). The combined AVG's relative error dominates.
  const std::vector<QueryResult> parts = {
      OneRowResult({{100.0, 4.0}, {10.0, 0.09}}),
      OneRowResult({{300.0, 1.0}, {12.0, 0.04}}),
  };
  const QueryResult combined = combiner.Combine(parts, 0.95);
  std::vector<const QueryResult*> refs = {&parts[0], &parts[1]};
  // Sanity: in this setup AVG dominates (COUNT's relative error is smaller).
  const auto& aggs = combined.rows[0].aggregates;
  ASSERT_GT(aggs[1].RelativeErrorAt(0.95), aggs[0].RelativeErrorAt(0.95));
  const std::vector<double> contributions =
      AttributeJointError(combiner, combined, refs, /*relative=*/true, 0.95);
  ASSERT_EQ(contributions.size(), 2u);
  // AVG attribution is count^2 * var per pipeline (the shared denominator
  // cancels): 100^2 * 0.09 = 900 vs 300^2 * 0.04 = 3600.
  EXPECT_DOUBLE_EQ(contributions[0], 900.0);
  EXPECT_DOUBLE_EQ(contributions[1], 3600.0);
}

// --- Scheduler: fairness floor, pools, ties, degeneration --------------------

// A fact table with one low-variance and one high-variance slice, selected by
// disjoint predicates on `u` — the high-variance disjunct dominates any joint
// error, so adaptive scheduling must spend there.
Table MakeSkewedFact(uint64_t rows = 24'000) {
  Table t(Schema({{"u", DataType::kDouble}, {"v", DataType::kDouble}}));
  t.Reserve(rows);
  Rng rng(8088);
  for (uint64_t i = 0; i < rows; ++i) {
    const double u = rng.NextDouble();
    t.AppendDouble(0, u);
    // u > 0.9: heavy-tailed large values; u < 0.1: near-constant small ones.
    const double v =
        u > 0.9 ? 40.0 * std::exp(rng.NextGaussian()) : 5.0 + 0.5 * rng.NextGaussian();
    t.AppendDouble(1, v);
    t.CommitRow();
  }
  return t;
}

struct SkewedPlanFixture {
  Table fact = MakeSkewedFact();
  SampleFamily family;
  Dataset ds;
  SelectStatement full;
  std::vector<SelectStatement> subs;
  UnionCombiner combiner;

  static SampleFamily BuildFamily(const Table& fact) {
    Rng rng(31);
    SampleFamilyOptions options;
    options.uniform_fraction = 0.5;
    options.max_resolutions = 6;
    auto family = SampleFamily::BuildUniform(fact, options, rng);
    EXPECT_TRUE(family.ok());
    return std::move(family.value());
  }

  static SelectStatement Parse(const std::string& sql) {
    auto stmt = ParseSelect(sql);
    EXPECT_TRUE(stmt.ok()) << sql;
    return std::move(stmt.value());
  }

  SkewedPlanFixture()
      : family(BuildFamily(fact)),
        ds(family.LogicalSample(0)),
        full(Parse("SELECT SUM(v) FROM t WHERE u < 0.1 OR u > 0.9")),
        combiner(full) {
    for (const char* where : {"u < 0.1", "u > 0.9"}) {
      SelectStatement sub = Parse("SELECT SUM(v) FROM t WHERE " + std::string(where));
      combiner.PrepareSubquery(sub);
      subs.push_back(std::move(sub));
    }
  }

  QueryPlan MakePlan() const {
    QueryPlan plan;
    for (const auto& sub : subs) {
      PipelineSpec spec;
      spec.stmt = sub;
      spec.dataset = ds;
      plan.pipelines.push_back(std::move(spec));
    }
    plan.combiner.emplace(full);
    return plan;
  }

  PlanOptions MakeOptions(ScheduleMode mode) const {
    PlanOptions options;
    options.exec.morsel_rows = 256;
    options.batch_blocks = 1;
    options.schedule = mode;
    return options;
  }
};

TEST(SchedulerTest, FairnessFloorFeedsEveryPipelineBeforeReallocation) {
  const SkewedPlanFixture fx;
  PlanOptions options = fx.MakeOptions(ScheduleMode::kAdaptive);
  options.policy.target_error = 0.12;
  options.policy.min_blocks = 5;
  options.policy.min_matched = 60.0;
  auto run = ExecutePlan(fx.MakePlan(), options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_TRUE(run->stopped_early) << "target not reached mid-scan; retune";
  ASSERT_EQ(run->pipelines.size(), 2u);
  const PipelineOutcome& low = run->pipelines[0];
  const PipelineOutcome& high = run->pipelines[1];
  // No pipeline starves below the floor...
  EXPECT_GE(low.blocks_consumed, 5u);
  EXPECT_GE(high.blocks_consumed, 5u);
  // ...and past it, the dominant-variance disjunct receives the surplus.
  EXPECT_GT(high.blocks_consumed, low.blocks_consumed);
  EXPECT_GT(high.scheduled_rounds, low.scheduled_rounds);
  EXPECT_GT(high.error_contribution, low.error_contribution);
  EXPECT_LE(run->achieved_error, 0.12 * (1.0 + 1e-9));
}

TEST(SchedulerTest, SharedPoolDrainsExactlyAndFoldsPolicyMaxBlocks) {
  const SkewedPlanFixture fx;
  PlanOptions options = fx.MakeOptions(ScheduleMode::kAdaptive);
  options.budget_pool = 12;  // no error target: a pure budget drive
  auto pooled = ExecutePlan(fx.MakePlan(), options);
  ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
  EXPECT_EQ(pooled->blocks_consumed, 12u);
  EXPECT_TRUE(pooled->stopped_early);
  EXPECT_FALSE(pooled->bound_met);
  // The fairness floor holds inside the pool: both pipelines cleared the
  // default min_blocks guard before the surplus went to the dominant one.
  EXPECT_GE(pooled->pipelines[0].blocks_consumed, 4u);
  EXPECT_GE(pooled->pipelines[1].blocks_consumed, 4u);
  EXPECT_GT(pooled->pipelines[1].blocks_consumed,
            pooled->pipelines[0].blocks_consumed);

  // PlanOptions::policy.max_blocks is a joint cap, folded into the pool —
  // never silently dropped: the two spellings drive identical plans.
  PlanOptions folded = fx.MakeOptions(ScheduleMode::kAdaptive);
  folded.policy.max_blocks = 12;
  auto via_policy = ExecutePlan(fx.MakePlan(), folded);
  ASSERT_TRUE(via_policy.ok());
  EXPECT_EQ(via_policy->blocks_consumed, pooled->blocks_consumed);
  ASSERT_EQ(via_policy->pipelines.size(), pooled->pipelines.size());
  for (size_t i = 0; i < pooled->pipelines.size(); ++i) {
    EXPECT_EQ(via_policy->pipelines[i].blocks_consumed,
              pooled->pipelines[i].blocks_consumed);
  }
}

TEST(SchedulerTest, ExactPipelineIgnoresThePool) {
  const SkewedPlanFixture fx;
  QueryPlan plan;
  PipelineSpec spec;
  spec.stmt = fx.subs[0];
  spec.dataset = Dataset::Exact(fx.fact);
  plan.pipelines.push_back(std::move(spec));
  PlanOptions options = fx.MakeOptions(ScheduleMode::kAdaptive);
  options.budget_pool = 1;  // a prefix of an exact table is not a sample
  auto run = ExecutePlan(plan, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->blocks_consumed, run->blocks_total);
  EXPECT_FALSE(run->stopped_early);
}

TEST(SchedulerTest, TiedContributionsBreakDeterministically) {
  const SkewedPlanFixture fx;
  // Two IDENTICAL pipelines: contributions tie every adaptive round, so the
  // award must alternate starting from the lowest index — and the whole drive
  // must replay identically.
  auto make_plan = [&] {
    QueryPlan plan;
    for (int i = 0; i < 2; ++i) {
      PipelineSpec spec;
      spec.stmt = fx.subs[1];
      spec.dataset = fx.ds;
      plan.pipelines.push_back(std::move(spec));
    }
    plan.combiner.emplace(fx.full);
    return plan;
  };
  PlanOptions options = fx.MakeOptions(ScheduleMode::kAdaptive);
  options.policy.target_error = 0.10;
  auto first = ExecutePlan(make_plan(), options);
  auto second = ExecutePlan(make_plan(), options);
  ASSERT_TRUE(first.ok() && second.ok());
  ASSERT_TRUE(first->stopped_early) << "target not reached mid-scan; retune";
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(first->pipelines[i].blocks_consumed,
              second->pipelines[i].blocks_consumed);
    EXPECT_EQ(first->pipelines[i].scheduled_rounds,
              second->pipelines[i].scheduled_rounds);
  }
  // Lowest index wins ties, then the award alternates: pipeline 0 stays at
  // most one grant ahead.
  EXPECT_GE(first->pipelines[0].blocks_consumed, first->pipelines[1].blocks_consumed);
  EXPECT_LE(first->pipelines[0].blocks_consumed - first->pipelines[1].blocks_consumed,
            1u);
}

TEST(SchedulerTest, SinglePipelinePlansDegenerateToTheUniformPath) {
  const SkewedPlanFixture fx;
  QueryPlan adaptive_plan;
  PipelineSpec spec;
  spec.stmt = fx.subs[1];
  spec.dataset = fx.ds;
  adaptive_plan.pipelines.push_back(std::move(spec));
  PlanOptions options = fx.MakeOptions(ScheduleMode::kAdaptive);
  options.policy.target_error = 0.10;

  QueryPlan uniform_plan;
  PipelineSpec uspec;
  uspec.stmt = fx.subs[1];
  uspec.dataset = fx.ds;
  uniform_plan.pipelines.push_back(std::move(uspec));
  PlanOptions uniform_options = options;
  uniform_options.schedule = ScheduleMode::kUniform;

  auto adaptive = ExecutePlan(adaptive_plan, options);
  auto uniform = ExecutePlan(uniform_plan, uniform_options);
  ASSERT_TRUE(adaptive.ok() && uniform.ok());
  EXPECT_EQ(adaptive->blocks_consumed, uniform->blocks_consumed);
  EXPECT_EQ(adaptive->pipelines[0].scheduled_rounds,
            uniform->pipelines[0].scheduled_rounds);
  ExpectIdentical(adaptive->result, uniform->result);
  EXPECT_EQ(adaptive->achieved_error, uniform->achieved_error);
}

// --- Cancellation hook (PlanOptions::cancel) ---------------------------------

TEST(CancelHookTest, CancelStopsThePlanAtARoundBoundary) {
  const SkewedPlanFixture fx;
  std::atomic<bool> cancel{false};
  int rounds = 0;
  PlanOptions options = fx.MakeOptions(ScheduleMode::kUniform);
  options.cancel = &cancel;
  options.progress = [&](const QueryResult&, const StreamProgress& progress) {
    if (!progress.final_batch && ++rounds == 3) {
      cancel.store(true);
    }
  };
  auto run = ExecutePlan(fx.MakePlan(), options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run->cancelled);
  EXPECT_TRUE(run->stopped_early);
  EXPECT_LT(run->blocks_consumed, run->blocks_total);
  // batch_blocks = 1 and a uniform round-robin: after 3 rounds each of the
  // two pipelines holds exactly 3 blocks, and the cancel observed at the
  // next round boundary adds nothing.
  ASSERT_EQ(run->pipelines.size(), 2u);
  EXPECT_EQ(run->pipelines[0].blocks_consumed, 3u);
  EXPECT_EQ(run->pipelines[1].blocks_consumed, 3u);
  ASSERT_FALSE(run->result.rows.empty());
}

// A cancel at round k is indistinguishable from a block budget of the same
// prefix: the partial answer is a pure function of the consumed prefixes, so
// the two drives must agree bit-identically. This is the §4.4 contract —
// cancelled queries are accounted exactly like budget-stopped ones.
TEST(CancelHookTest, CancelledPrefixIsBitIdenticalToBudgetedPrefix) {
  const SkewedPlanFixture fx;
  std::atomic<bool> cancel{false};
  int rounds = 0;
  PlanOptions cancel_options = fx.MakeOptions(ScheduleMode::kUniform);
  cancel_options.cancel = &cancel;
  cancel_options.progress = [&](const QueryResult&, const StreamProgress& progress) {
    if (!progress.final_batch && ++rounds == 3) {
      cancel.store(true);
    }
  };
  auto cancelled = ExecutePlan(fx.MakePlan(), cancel_options);
  ASSERT_TRUE(cancelled.ok());
  ASSERT_TRUE(cancelled->cancelled);

  PlanOptions budget_options = fx.MakeOptions(ScheduleMode::kUniform);
  // Same interleave (per-round re-finalization on), same joint prefix.
  budget_options.progress = [](const QueryResult&, const StreamProgress&) {};
  budget_options.budget_pool = cancelled->blocks_consumed;
  auto budgeted = ExecutePlan(fx.MakePlan(), budget_options);
  ASSERT_TRUE(budgeted.ok());
  EXPECT_FALSE(budgeted->cancelled);
  EXPECT_EQ(budgeted->blocks_consumed, cancelled->blocks_consumed);
  ASSERT_EQ(budgeted->pipelines.size(), cancelled->pipelines.size());
  for (size_t i = 0; i < budgeted->pipelines.size(); ++i) {
    EXPECT_EQ(budgeted->pipelines[i].blocks_consumed,
              cancelled->pipelines[i].blocks_consumed);
  }
  ExpectIdentical(budgeted->result, cancelled->result);
}

TEST(CancelHookTest, CancelBeforeTheFirstRoundConsumesNothing) {
  const SkewedPlanFixture fx;
  std::atomic<bool> cancel{true};  // pre-set: the drive must not scan at all
  PlanOptions options = fx.MakeOptions(ScheduleMode::kUniform);
  options.cancel = &cancel;
  options.progress = [](const QueryResult&, const StreamProgress&) {};
  auto run = ExecutePlan(fx.MakePlan(), options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run->cancelled);
  EXPECT_EQ(run->blocks_consumed, 0u);
}

// --- PipelineSource seam (DriveSources) -------------------------------------

// A scripted source that behaves like a remote shard: a grant only takes
// effect when the source is awaited, and both land in a shared log. Its
// snapshot is one COUNT cell worth 100 per consumed block, with a variance
// that shrinks as the prefix grows and is 0 once complete. With
// `freeze_on_await` > 0 the source freezes on that await instead of
// advancing, keeping its last snapshot.
class ScriptedSource final : public PipelineSource {
 public:
  ScriptedSource(size_t id, uint64_t blocks_total, std::vector<std::string>* log,
                 uint64_t freeze_on_await = 0)
      : id_(std::to_string(id)),
        blocks_total_(blocks_total),
        freeze_on_await_(freeze_on_await),
        log_(log) {}

  Status Grant(uint64_t blocks) override {
    log_->push_back("grant " + id_);
    pending_ += blocks;
    return Status::Ok();
  }
  Status Await() override {
    if (pending_ == 0) {
      return Status::Ok();
    }
    log_->push_back("await " + id_);
    if (++awaits_ == freeze_on_await_) {
      frozen_ = true;
    } else {
      consumed_ = std::min(blocks_total_, consumed_ + pending_);
    }
    pending_ = 0;
    return Status::Ok();
  }
  Result<QueryResult> Snapshot() const override {
    QueryResult result;
    result.aggregate_names = {"COUNT(*)"};
    ResultRow row;
    const double value = 100.0 * static_cast<double>(consumed_);
    const double variance =
        consumed_ == blocks_total_ ? 0.0 : 1e6 / static_cast<double>(consumed_ + 1);
    row.aggregates.push_back(Estimate{value, variance});
    result.rows.push_back(row);
    result.stats.rows_matched = 100 * consumed_;
    return result;
  }
  PipelineOutcome Outcome() const override {
    PipelineOutcome outcome;
    outcome.blocks_total = blocks_total_;
    outcome.blocks_consumed = consumed_;
    outcome.rows_consumed = 100 * consumed_;
    outcome.rows_matched = 100 * consumed_;
    return outcome;
  }
  uint64_t rows_total() const override { return 100 * blocks_total_; }
  bool complete() const override { return frozen_ || consumed_ == blocks_total_; }

 private:
  std::string id_;
  uint64_t blocks_total_;
  uint64_t freeze_on_await_;
  std::vector<std::string>* log_;
  uint64_t consumed_ = 0;
  uint64_t pending_ = 0;
  uint64_t awaits_ = 0;
  bool frozen_ = false;
};

PlanOptions SeamOptions(std::vector<StreamProgress>* rounds) {
  PlanOptions options;
  options.schedule = ScheduleMode::kUniform;
  options.progress = [rounds](const QueryResult&, const StreamProgress& p) {
    rounds->push_back(p);
  };
  return options;
}

// Shards granted in the same round must scan at the same time, so the driver
// hands out every grant of a round before it awaits any source.
TEST(PipelineSourceTest, EveryGrantOfARoundGoesOutBeforeAnyAwait) {
  std::vector<std::string> log;
  ScriptedSource a(0, 6, &log);
  ScriptedSource b(1, 6, &log);
  const UnionCombiner combiner(SkewedPlanFixture::Parse("SELECT COUNT(*) FROM t"));
  std::vector<StreamProgress> rounds;
  auto run = DriveSources({&a, &b}, &combiner, SeamOptions(&rounds), {2, 2});
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(rounds.size(), 3u);
  const std::vector<std::string> round = {"grant 0", "grant 1", "await 0", "await 1"};
  std::vector<std::string> expected;
  for (size_t r = 0; r < rounds.size(); ++r) {
    expected.insert(expected.end(), round.begin(), round.end());
  }
  EXPECT_EQ(log, expected);
  EXPECT_EQ(run->blocks_consumed, 12u);
  EXPECT_TRUE(rounds.back().final_batch);
}

// A source that freezes mid-plan (a shard that stalled or died after its
// first answer) is complete at its last snapshot: never granted again, still
// combined, and exhausted, so the plan does not count as stopped early.
TEST(PipelineSourceTest, FrozenSourceKeepsItsLastSnapshotAndIsNeverGrantedAgain) {
  std::vector<std::string> log;
  ScriptedSource a(0, 8, &log);
  ScriptedSource b(1, 8, &log, /*freeze_on_await=*/2);
  const UnionCombiner combiner(SkewedPlanFixture::Parse("SELECT COUNT(*) FROM t"));
  std::vector<StreamProgress> rounds;
  auto run = DriveSources({&a, &b}, &combiner, SeamOptions(&rounds), {2, 2});
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  // Round 1 advances both; b freezes on its second await, in round 2.
  const auto frozen_at = std::find(log.begin(), log.end(), "await 1") + 1;
  const auto second_await = std::find(frozen_at, log.end(), "await 1");
  ASSERT_NE(second_await, log.end());
  EXPECT_EQ(std::count(second_await, log.end(), "grant 1"), 0);
  EXPECT_EQ(std::count(log.begin(), log.end(), "grant 0"), 4);

  ASSERT_EQ(run->pipelines.size(), 2u);
  EXPECT_EQ(run->pipelines[0].blocks_consumed, 8u);
  EXPECT_EQ(run->pipelines[1].blocks_consumed, 2u);
  EXPECT_FALSE(run->stopped_early);
  // b's frozen snapshot (2 blocks, variance 1e6 / 3) is still in the answer.
  ASSERT_EQ(run->result.rows.size(), 1u);
  EXPECT_EQ(run->result.rows[0].aggregates[0].value, 1000.0);
  EXPECT_EQ(run->result.rows[0].aggregates[0].variance, 1e6 / 3.0);
}

}  // namespace
}  // namespace blink
