// Monte-Carlo calibration of early-stopped answers (the statistical test
// harness for the incremental executor).
//
// Over many seeded trials, a fresh sample of a fixed population is drawn and
// a query is streamed with the error-driven stopping rule. Optional stopping
// is exactly the regime where naive confidence intervals can under-cover, so
// the suite verifies the load-bearing claim directly: the confidence
// interval of the answer AT THE STOP covers the exact population answer at
// approximately the nominal confidence, for COUNT / SUM / AVG, on uniform
// and stratified samples.
//
// Trial count: BLINK_MC_TRIALS (default 200; the nightly CI job runs more).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/api/blinkdb.h"
#include "src/exec/executor.h"
#include "src/plan/query_plan.h"
#include "src/plan/scheduler.h"
#include "src/plan/union_combiner.h"
#include "src/sample/sample_family.h"
#include "src/sql/parser.h"
#include "src/util/rng.h"

namespace blink {
namespace {

int Trials() {
  const char* env = std::getenv("BLINK_MC_TRIALS");
  if (env != nullptr) {
    const int n = std::atoi(env);
    if (n > 0) {
      return n;
    }
  }
  return 200;
}

constexpr uint64_t kPopulationRows = 30'000;
constexpr double kConfidence = 0.95;
// Nominal 95% coverage, 200+ trials: binomial noise is ~1.5%, so 0.89 is a
// 4-sigma floor. Optional stopping eats a little coverage by construction;
// the min-blocks/min-matched guards are what keep it inside this band.
constexpr double kMinCoverage = 0.89;

// The population: a skewed positive measure `v`, a Zipf-ish group column `g`
// (the stratification column), and a uniform predicate column `u`.
Table MakePopulation() {
  Table t(Schema({{"g", DataType::kString},
                  {"v", DataType::kDouble},
                  {"u", DataType::kDouble}}));
  t.Reserve(kPopulationRows);
  Rng rng(271828);
  for (uint64_t i = 0; i < kPopulationRows; ++i) {
    // Group sizes decay ~1/k: a few heavy groups, a long-ish tail.
    const uint64_t group = rng.NextBounded(1 + rng.NextBounded(16));
    t.AppendString(0, "g_" + std::to_string(group));
    t.AppendDouble(1, std::exp(0.5 * rng.NextGaussian()) * 10.0);
    t.AppendDouble(2, rng.NextDouble());
    t.CommitRow();
  }
  return t;
}

struct AggCase {
  const char* name;
  const char* sql;
  double target_error;  // relative, at kConfidence
};

// Targets sit above the full-sample error (so the bound is reachable) but
// well below the few-block error (so stops land mid-scan, the regime under
// test).
constexpr AggCase kCases[] = {
    {"count", "SELECT COUNT(*) FROM pop WHERE u < 0.6", 0.03},
    {"sum", "SELECT SUM(v) FROM pop WHERE u < 0.6", 0.04},
    {"avg", "SELECT AVG(v) FROM pop WHERE u < 0.6", 0.02},
};

struct Tally {
  int covered = 0;
  int stopped_early = 0;
  int bound_violations = 0;  // stopped early but achieved > target
};

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

void RunTrials(const Table& population, bool stratified, int trials,
               Tally (&tallies)[3], const double (&exact)[3]) {
  std::vector<SelectStatement> stmts;
  for (const AggCase& c : kCases) {
    auto stmt = ParseSelect(c.sql);
    ASSERT_TRUE(stmt.ok()) << c.sql;
    stmts.push_back(std::move(stmt.value()));
  }
  for (int trial = 0; trial < trials; ++trial) {
    Rng rng(90'000 + static_cast<uint64_t>(trial) * 7919 + (stratified ? 1 : 0));
    SampleFamilyOptions options;
    options.uniform_fraction = 0.5;
    options.largest_cap = 1'500;
    options.max_resolutions = 5;
    auto family = stratified
                      ? SampleFamily::BuildStratified(population, {"g"}, options, rng)
                      : SampleFamily::BuildUniform(population, options, rng);
    ASSERT_TRUE(family.ok()) << family.status().ToString();
    const Dataset ds = family->LogicalSample(0);

    for (size_t c = 0; c < 3; ++c) {
      PlanOptions stream;
      stream.exec.morsel_rows = 1'024;
      stream.batch_blocks = 2;
      stream.policy.target_error = kCases[c].target_error;
      stream.policy.confidence = kConfidence;
      stream.policy.min_blocks = 4;
      stream.policy.min_matched = 60.0;
      auto streamed = ExecuteOnePipeline(stmts[c], ds, stream);
      ASSERT_TRUE(streamed.ok()) << kCases[c].sql;
      ASSERT_EQ(streamed->result.rows.size(), 1u);
      const Estimate& est = streamed->result.rows[0].aggregates[0];
      const Estimate::Interval ci = est.IntervalAt(kConfidence);
      Tally& tally = tallies[c];
      if (ci.lo <= exact[c] && exact[c] <= ci.hi) {
        ++tally.covered;
      }
      if (streamed->stopped_early) {
        ++tally.stopped_early;
        if (streamed->achieved_error > kCases[c].target_error * (1.0 + 1e-12)) {
          ++tally.bound_violations;
        }
      }
    }
  }
}

void CheckCalibration(bool stratified) {
  const Table population = MakePopulation();
  const int trials = Trials();

  double exact[3] = {};
  for (size_t c = 0; c < 3; ++c) {
    auto stmt = ParseSelect(kCases[c].sql);
    ASSERT_TRUE(stmt.ok());
    auto truth = ExecuteQueryScalar(*stmt, Dataset::Exact(population));
    ASSERT_TRUE(truth.ok());
    exact[c] = truth->rows[0].aggregates[0].value;
    ASSERT_GT(exact[c], 0.0);
  }

  Tally tallies[3];
  RunTrials(population, stratified, trials, tallies, exact);

  for (size_t c = 0; c < 3; ++c) {
    const Tally& tally = tallies[c];
    const double coverage = static_cast<double>(tally.covered) / trials;
    const double stop_rate = static_cast<double>(tally.stopped_early) / trials;
    std::printf(
        "[calibration] family=%s agg=%s trials=%d coverage=%.3f "
        "early_stop_rate=%.3f bound_violations=%d\n",
        stratified ? "stratified" : "uniform", kCases[c].name, trials, coverage,
        stop_rate, tally.bound_violations);
    // Coverage at (approximately) the nominal confidence.
    EXPECT_GE(coverage, kMinCoverage)
        << kCases[c].name << " under-covers at stop (nominal " << kConfidence << ")";
    // The calibration claim is about answers at the stop: the rule must
    // actually fire in a healthy share of trials or the test is vacuous.
    EXPECT_GE(stop_rate, 0.4) << kCases[c].name << ": stopping rule rarely fired; "
                                 "targets need retuning";
    // Whenever a stop was reported, the answer honored the requested bound.
    EXPECT_EQ(tally.bound_violations, 0) << kCases[c].name;
  }
}

TEST(CalibrationTest, UniformSamples) { CheckCalibration(/*stratified=*/false); }

TEST(CalibrationTest, StratifiedSamples) { CheckCalibration(/*stratified=*/true); }

// --- Coverage at stop under ADAPTIVE union scheduling -------------------------
//
// Adaptive scheduling changes WHERE blocks are spent, and therefore where the
// joint stopping rule fires — a new optional-stopping regime whose combined
// union intervals must still cover. Each trial draws a fresh sample, builds a
// two-pipeline §4.1.2 union plan over disjoint disjuncts, drives it with the
// error-attributed scheduler, and checks the combined CI at the stop against
// the exact population answer of the full disjunction.

// Same reachable-but-not-instant regime as kCases, on the disjunctive union
// (two ~35% disjuncts: matched counts roughly match the conjunctive cases).
constexpr AggCase kUnionCases[] = {
    {"count", "SELECT COUNT(*) FROM pop WHERE u < 0.35 OR u > 0.65", 0.03},
    {"sum", "SELECT SUM(v) FROM pop WHERE u < 0.35 OR u > 0.65", 0.04},
    {"avg", "SELECT AVG(v) FROM pop WHERE u < 0.35 OR u > 0.65", 0.02},
};
constexpr const char* kUnionDisjuncts[] = {"u < 0.35", "u > 0.65"};

void RunAdaptiveUnionTrials(const Table& population, bool stratified, int trials,
                            Tally (&tallies)[3], const double (&exact)[3]) {
  // Build the combiners (from the full statements' aggregate shape) and the
  // per-disjunct subqueries (with the hidden AVG helper count appended) once.
  std::vector<UnionCombiner> combiners;
  std::vector<std::vector<SelectStatement>> subs(3);
  for (size_t c = 0; c < 3; ++c) {
    auto full = ParseSelect(kUnionCases[c].sql);
    ASSERT_TRUE(full.ok()) << kUnionCases[c].sql;
    combiners.emplace_back(*full);
    for (const char* where : kUnionDisjuncts) {
      std::string sql = kUnionCases[c].sql;
      sql = sql.substr(0, sql.find(" WHERE ")) + " WHERE " + where;
      auto sub = ParseSelect(sql);
      ASSERT_TRUE(sub.ok()) << sql;
      combiners[c].PrepareSubquery(*sub);
      subs[c].push_back(std::move(sub.value()));
    }
  }

  for (int trial = 0; trial < trials; ++trial) {
    Rng rng(440'000 + static_cast<uint64_t>(trial) * 6469 + (stratified ? 1 : 0));
    SampleFamilyOptions options;
    options.uniform_fraction = 0.5;
    options.largest_cap = 1'500;
    options.max_resolutions = 5;
    auto family = stratified
                      ? SampleFamily::BuildStratified(population, {"g"}, options, rng)
                      : SampleFamily::BuildUniform(population, options, rng);
    ASSERT_TRUE(family.ok()) << family.status().ToString();
    const Dataset ds = family->LogicalSample(0);

    for (size_t c = 0; c < 3; ++c) {
      QueryPlan plan;
      for (const SelectStatement& sub : subs[c]) {
        PipelineSpec spec;
        spec.stmt = sub;
        spec.dataset = ds;
        plan.pipelines.push_back(std::move(spec));
      }
      plan.combiner = combiners[c];
      PlanOptions popts;
      popts.exec.morsel_rows = 1'024;
      popts.batch_blocks = 2;
      popts.schedule = ScheduleMode::kAdaptive;
      popts.policy.target_error = kUnionCases[c].target_error;
      popts.policy.confidence = kConfidence;
      popts.policy.min_blocks = 4;
      popts.policy.min_matched = 60.0;
      auto run = ExecutePlan(plan, popts);
      ASSERT_TRUE(run.ok()) << kUnionCases[c].sql;
      ASSERT_EQ(run->result.rows.size(), 1u);
      const Estimate& est = run->result.rows[0].aggregates[0];
      const Estimate::Interval ci = est.IntervalAt(kConfidence);
      Tally& tally = tallies[c];
      if (ci.lo <= exact[c] && exact[c] <= ci.hi) {
        ++tally.covered;
      }
      if (run->stopped_early) {
        ++tally.stopped_early;
        if (run->achieved_error > kUnionCases[c].target_error * (1.0 + 1e-12)) {
          ++tally.bound_violations;
        }
      }
    }
  }
}

void CheckAdaptiveUnionCalibration(bool stratified) {
  const Table population = MakePopulation();
  const int trials = Trials();

  double exact[3] = {};
  for (size_t c = 0; c < 3; ++c) {
    auto stmt = ParseSelect(kUnionCases[c].sql);
    ASSERT_TRUE(stmt.ok());
    auto truth = ExecuteQueryScalar(*stmt, Dataset::Exact(population));
    ASSERT_TRUE(truth.ok());
    exact[c] = truth->rows[0].aggregates[0].value;
    ASSERT_GT(exact[c], 0.0);
  }

  Tally tallies[3];
  RunAdaptiveUnionTrials(population, stratified, trials, tallies, exact);

  for (size_t c = 0; c < 3; ++c) {
    const Tally& tally = tallies[c];
    const double coverage = static_cast<double>(tally.covered) / trials;
    const double stop_rate = static_cast<double>(tally.stopped_early) / trials;
    std::printf(
        "[calibration-adaptive] family=%s agg=%s trials=%d coverage=%.3f "
        "early_stop_rate=%.3f bound_violations=%d\n",
        stratified ? "stratified" : "uniform", kUnionCases[c].name, trials, coverage,
        stop_rate, tally.bound_violations);
    EXPECT_GE(coverage, kMinCoverage)
        << kUnionCases[c].name
        << " union under-covers at adaptive stop (nominal " << kConfidence << ")";
    EXPECT_GE(stop_rate, 0.4) << kUnionCases[c].name
                              << ": joint stopping rarely fired; retune targets";
    EXPECT_EQ(tally.bound_violations, 0) << kUnionCases[c].name;
  }
}

TEST(CalibrationTest, AdaptiveUnionUniformSamples) {
  CheckAdaptiveUnionCalibration(/*stratified=*/false);
}

TEST(CalibrationTest, AdaptiveUnionStratifiedSamples) {
  CheckAdaptiveUnionCalibration(/*stratified=*/true);
}

// --- Coverage at stop UNDER CHURN --------------------------------------------
//
// The streaming-ingest regime: appends land between query rounds, so every
// bounded query runs as a leveled union plan — the base table's sample plus
// one pipeline per pinned run (exact L0 write buffers, sampled merged runs) —
// and its combined §4.3 interval at the stop must still cover the EXACT
// answer of the snapshot it pinned. Each trial drives a fresh live BlinkDB:
// per-trial sample + per-trial leveled-store seed, three churn batches with a
// maintenance tick between rounds (so merged, re-sampled runs join the plan
// mid-trial). Honors BLINK_MC_TRIALS like the rest of the suite.

constexpr uint64_t kChurnBase = 24'000;   // rows registered before any append
constexpr uint64_t kChurnBatch = 2'000;   // rows landed between query rounds
constexpr int kChurnRounds = 3;

Table CopyRows(const Table& src, uint64_t begin, uint64_t end) {
  Table t(src.schema());
  t.Reserve(end - begin);
  std::vector<Value> row;
  for (uint64_t r = begin; r < end; ++r) {
    row.clear();
    for (size_t c = 0; c < src.num_columns(); ++c) {
      row.push_back(src.GetValue(c, r));
    }
    EXPECT_TRUE(t.AppendRow(row).ok());
  }
  return t;
}

void RunChurnTrials(const Table& population, bool stratified, int trials,
                    Tally (&tallies)[3], const double (&exact)[kChurnRounds][3]) {
  const Table base = CopyRows(population, 0, kChurnBase);
  std::vector<Table> batches;
  for (int r = 0; r < kChurnRounds; ++r) {
    batches.push_back(CopyRows(population, kChurnBase + r * kChurnBatch,
                               kChurnBase + (r + 1) * kChurnBatch));
  }

  for (int trial = 0; trial < trials; ++trial) {
    Rng rng(620'000 + static_cast<uint64_t>(trial) * 104'729 + (stratified ? 1 : 0));
    SampleFamilyOptions options;
    options.uniform_fraction = 0.5;
    options.largest_cap = 1'500;
    options.max_resolutions = 5;
    auto family = stratified
                      ? SampleFamily::BuildStratified(base, {"g"}, options, rng)
                      : SampleFamily::BuildUniform(base, options, rng);
    ASSERT_TRUE(family.ok()) << family.status().ToString();

    BlinkDbOptions db_options;
    db_options.runtime.exec_threads = 1;
    db_options.runtime.morsel_rows = 1'024;
    db_options.runtime.stream_batch_blocks = 2;
    BlinkDB db(db_options);
    ASSERT_TRUE(db.RegisterTable("pop", base, /*scale_factor=*/1e4).ok());
    db.samples().AddFamily("pop", std::move(family.value()));
    LeveledStoreOptions ingest;
    ingest.level_fanout = 2;
    ingest.sample_min_rows = 1'500;  // merged runs re-sample, L0 runs are exact
    ingest.sample.largest_cap = 700;
    ingest.sample.max_resolutions = 3;
    ingest.seed = 0xc0ffee ^ (static_cast<uint64_t>(trial) * 2'654'435'761ull);
    ASSERT_TRUE(db.ConfigureIngest("pop", ingest).ok());

    for (int round = 0; round < kChurnRounds; ++round) {
      ASSERT_TRUE(db.Append("pop", batches[round]).ok());
      ASSERT_TRUE(db.MaintenanceTick("pop").ok());
      for (size_t c = 0; c < 3; ++c) {
        char sql[160];
        std::snprintf(sql, sizeof(sql), "%s ERROR WITHIN %.4f%% AT CONFIDENCE 95%%",
                      kCases[c].sql, kCases[c].target_error * 100.0);
        auto answer = db.Query(sql);
        ASSERT_TRUE(answer.ok()) << sql << " -> " << answer.status().ToString();
        ASSERT_EQ(answer->result.rows.size(), 1u);
        const Estimate& est = answer->result.rows[0].aggregates[0];
        const Estimate::Interval ci = est.IntervalAt(kConfidence);
        Tally& tally = tallies[c];
        if (ci.lo <= exact[round][c] && exact[round][c] <= ci.hi) {
          ++tally.covered;
        }
        if (answer->report.stopped_early) {
          ++tally.stopped_early;
          if (answer->report.achieved_error >
              kCases[c].target_error * (1.0 + 1e-12)) {
            ++tally.bound_violations;
          }
        }
      }
    }
  }
}

void CheckChurnCalibration(bool stratified) {
  const Table population = MakePopulation();
  const int trials = Trials();

  // Ground truth per round: the exact answer over the snapshot each round's
  // queries pin (base + the batches appended so far).
  double exact[kChurnRounds][3] = {};
  for (int round = 0; round < kChurnRounds; ++round) {
    const Table snapshot =
        CopyRows(population, 0, kChurnBase + (round + 1) * kChurnBatch);
    for (size_t c = 0; c < 3; ++c) {
      auto stmt = ParseSelect(kCases[c].sql);
      ASSERT_TRUE(stmt.ok());
      auto truth = ExecuteQueryScalar(*stmt, Dataset::Exact(snapshot));
      ASSERT_TRUE(truth.ok());
      exact[round][c] = truth->rows[0].aggregates[0].value;
      ASSERT_GT(exact[round][c], 0.0);
    }
  }

  Tally tallies[3];
  RunChurnTrials(population, stratified, trials, tallies, exact);

  const int samples = trials * kChurnRounds;
  for (size_t c = 0; c < 3; ++c) {
    const Tally& tally = tallies[c];
    const double coverage = static_cast<double>(tally.covered) / samples;
    const double stop_rate = static_cast<double>(tally.stopped_early) / samples;
    std::printf(
        "[calibration-churn] family=%s agg=%s trials=%d rounds=%d coverage=%.3f "
        "early_stop_rate=%.3f bound_violations=%d\n",
        stratified ? "stratified" : "uniform", kCases[c].name, trials, kChurnRounds,
        coverage, stop_rate, tally.bound_violations);
    EXPECT_GE(coverage, kMinCoverage)
        << kCases[c].name << " under-covers at stop while appends churn (nominal "
        << kConfidence << ")";
    EXPECT_GE(stop_rate, 0.4) << kCases[c].name
                              << ": stopping rarely fired under churn; retune";
    EXPECT_EQ(tally.bound_violations, 0) << kCases[c].name;
  }
}

TEST(CalibrationTest, ChurnUniformSamples) { CheckChurnCalibration(/*stratified=*/false); }

TEST(CalibrationTest, ChurnStratifiedSamples) {
  CheckChurnCalibration(/*stratified=*/true);
}

}  // namespace
}  // namespace blink
