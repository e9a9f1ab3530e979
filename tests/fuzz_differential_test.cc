// Randomized differential harness for the scheduled plan driver.
//
// A seeded generator produces queries spanning the planner's whole surface —
// conjunctive and disjunctive WHERE clauses (up to 4 disjuncts, each a small
// conjunction), GROUP BY, COUNT / SUM / AVG / QUANTILE aggregates, ERROR
// WITHIN and WITHIN n SECONDS bounds — and runs them through QueryRuntime
// over a generated table. Three contracts are asserted:
//
//  (a) Schedule independence: with a never-stop drive (an unreachably tight
//      error bound), adaptive and uniform scheduling produce bit-identical
//      answers across thread counts {1, 2, 7} x morsel sizes {64, 1024,
//      4096}, both equal to the one-shot (non-streamed) reference — the
//      answer is a pure function of consumed prefixes, never of the
//      schedule.
//  (b) Bound honesty: whenever a stopped answer reports its error bound met,
//      the achieved error — recomputed independently from the returned
//      estimates — is inside the requested bound.
//  (c) Accounting: ExecutionReport::blocks_consumed equals the sum of the
//      per-pipeline outcomes, in every mode, for every query.
//
// The uniform runs additionally check the pre-PR round-robin trace shape:
// with equal round shares, uniform scheduling is lockstep, so every
// non-reused pipeline's consumed prefix is min(its total, the longest
// consumed prefix). Adaptive runs must break that lockstep somewhere in the
// suite — otherwise the scheduler never actually reallocated.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/api/blinkdb.h"
#include "src/exec/executor.h"
#include "src/exec/morsel.h"
#include "src/plan/scheduler.h"
#include "src/runtime/query_runtime.h"
#include "src/sample/sample_family.h"
#include "src/sample/sample_store.h"
#include "src/sql/parser.h"
#include "src/util/rng.h"
#include "tests/query_gen.h"

namespace blink {
namespace {

using testgen::MakeFact;
using testgen::RandomQuery;

void ExpectValueEq(const Value& x, const Value& y, const std::string& context) {
  ASSERT_EQ(x.is_string(), y.is_string()) << context;
  if (x.is_string()) {
    EXPECT_EQ(x.AsString(), y.AsString()) << context;
  } else {
    EXPECT_EQ(x.AsNumeric(), y.AsNumeric()) << context;
  }
}

// Bit-exact equality: group values, estimate values, and variances.
void ExpectIdentical(const QueryResult& x, const QueryResult& y,
                     const std::string& context) {
  ASSERT_EQ(x.rows.size(), y.rows.size()) << context;
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

// Contract (c): the report's block total is exactly the per-pipeline sum.
void ExpectConsistentAccounting(const ExecutionReport& report,
                                const std::string& context) {
  ASSERT_EQ(report.pipeline_outcomes.size(), report.num_subqueries) << context;
  uint64_t sum = 0;
  for (const PipelineOutcome& outcome : report.pipeline_outcomes) {
    sum += outcome.blocks_consumed;
    EXPECT_LE(outcome.blocks_consumed, outcome.blocks_total) << context;
  }
  EXPECT_EQ(report.blocks_consumed, sum) << context;
}

// The pre-PR uniform trace shape: lockstep round-robin with equal shares
// means every non-reused pipeline consumed min(its total, the longest
// prefix). Returns true when some pipeline consumed strictly less than that
// (i.e. the trace is NOT lockstep).
bool CheckUniformLockstep(const ExecutionReport& report, const std::string& context,
                          bool expect_lockstep) {
  uint64_t longest = 0;
  for (const PipelineOutcome& outcome : report.pipeline_outcomes) {
    if (!outcome.reused_probe) {
      longest = std::max(longest, outcome.blocks_consumed);
    }
  }
  bool skewed = false;
  for (const PipelineOutcome& outcome : report.pipeline_outcomes) {
    if (outcome.reused_probe) {
      continue;
    }
    const uint64_t expected = std::min(outcome.blocks_total, longest);
    if (outcome.blocks_consumed != expected) {
      skewed = true;
      if (expect_lockstep) {
        ADD_FAILURE() << context << ": uniform pipeline consumed "
                      << outcome.blocks_consumed << " blocks, lockstep expects "
                      << expected;
      }
    }
  }
  return skewed;
}

struct Fixture {
  Table fact = MakeFact();
  SampleStore store;
  ClusterModel cluster;
  double scale = 0.0;

  Fixture() {
    scale = 1e11 / (static_cast<double>(fact.num_rows()) * fact.EstimatedBytesPerRow());
    Rng rng(17);
    SampleFamilyOptions options;
    options.uniform_fraction = 0.5;
    options.max_resolutions = 6;
    auto uniform = SampleFamily::BuildUniform(fact, options, rng);
    EXPECT_TRUE(uniform.ok());
    store.AddFamily("t", std::move(uniform.value()));
  }

  ApproxAnswer MustExecute(const SelectStatement& stmt,
                           const RuntimeConfig& config) const {
    QueryRuntime runtime(&store, &cluster, config);
    auto answer = runtime.Execute(stmt, "t", fact, scale);
    EXPECT_TRUE(answer.ok()) << answer.status().ToString();
    return std::move(answer.value());
  }
};

RuntimeConfig StreamingConfig(ScheduleMode mode, size_t threads, uint32_t morsel_rows,
                              uint32_t batch) {
  RuntimeConfig config;
  config.streaming = true;
  config.schedule_mode = mode;
  config.exec_threads = threads;
  config.morsel_rows = morsel_rows;
  config.stream_batch_blocks = batch;
  return config;
}

// --- (a) Schedule independence under a never-stop drive ----------------------

TEST(FuzzDifferentialTest, NeverStopAnswersAreScheduleIndependent) {
  const Fixture fx;
  Rng rng(4242);
  int unions = 0;
  for (int q = 0; q < 6; ++q) {
    const std::string sql = RandomQuery(rng, /*allow_quantile=*/true) +
                            " ERROR WITHIN 0.0000001% AT CONFIDENCE 95%";
    auto stmt = ParseSelect(sql);
    ASSERT_TRUE(stmt.ok()) << sql;
    for (uint32_t morsel_rows : {64u, 1024u, 4096u}) {
      RuntimeConfig oneshot = StreamingConfig(ScheduleMode::kUniform, 1, morsel_rows, 3);
      oneshot.streaming = false;
      const ApproxAnswer reference = fx.MustExecute(*stmt, oneshot);
      ExpectConsistentAccounting(reference.report, sql + " [one-shot]");
      for (size_t threads : {1u, 2u, 7u}) {
        const ApproxAnswer uniform = fx.MustExecute(
            *stmt, StreamingConfig(ScheduleMode::kUniform, threads, morsel_rows, 3));
        const ApproxAnswer adaptive = fx.MustExecute(
            *stmt, StreamingConfig(ScheduleMode::kAdaptive, threads, morsel_rows, 3));
        const std::string context = sql + " [threads=" + std::to_string(threads) +
                                    " morsel=" + std::to_string(morsel_rows) + "]";
        // The bound is unreachable: every pipeline consumed everything in
        // both modes, so the answers must be bit-identical to the one-shot
        // union — the schedule cannot leak into the result.
        ExpectIdentical(uniform.result, reference.result, context + " uniform");
        ExpectIdentical(adaptive.result, reference.result, context + " adaptive");
        EXPECT_FALSE(uniform.report.stopped_early) << context;
        EXPECT_FALSE(adaptive.report.stopped_early) << context;
        EXPECT_EQ(uniform.report.blocks_consumed, adaptive.report.blocks_consumed)
            << context;
        EXPECT_EQ(uniform.report.schedule, ScheduleMode::kUniform) << context;
        EXPECT_EQ(adaptive.report.schedule, ScheduleMode::kAdaptive) << context;
        ExpectConsistentAccounting(uniform.report, context + " uniform");
        ExpectConsistentAccounting(adaptive.report, context + " adaptive");
        if (adaptive.report.num_subqueries > 1) {
          ++unions;
        }
      }
    }
  }
  EXPECT_GT(unions, 0) << "no generated query took the union-plan path";
}

// --- (b) + (c): stopped answers honor the bound, accounting always adds up ---

TEST(FuzzDifferentialTest, StoppedAnswersHonorTheBound) {
  const Fixture fx;
  Rng rng(515'151);
  int early_stops = 0;
  int union_runs = 0;
  int adaptive_skews = 0;
  for (int q = 0; q < 36; ++q) {
    const double target = 0.02 + rng.NextDouble() * 0.18;
    char bound[80];
    std::snprintf(bound, sizeof(bound), " ERROR WITHIN %.4f%% AT CONFIDENCE 95%%",
                  target * 100.0);
    const std::string sql = RandomQuery(rng, /*allow_quantile=*/false) + bound;
    auto stmt = ParseSelect(sql);
    ASSERT_TRUE(stmt.ok()) << sql;
    const size_t threads = 1 + rng.NextBounded(2);  // shares stay equal (batch 2)
    for (ScheduleMode mode : {ScheduleMode::kUniform, ScheduleMode::kAdaptive}) {
      const ApproxAnswer answer =
          fx.MustExecute(*stmt, StreamingConfig(mode, threads, 512, 2));
      const std::string context = sql + " [" + ScheduleModeName(mode) + "]";
      ExpectConsistentAccounting(answer.report, context);
      if (answer.report.stopped_early) {
        ++early_stops;
        // Recompute the achieved error from the returned estimates alone.
        const double recomputed = ReportedError(answer.result, stmt->bounds, 0.95);
        EXPECT_LE(recomputed, target * (1.0 + 1e-9)) << context;
        EXPECT_DOUBLE_EQ(answer.report.achieved_error, recomputed) << context;
      }
      if (answer.report.num_subqueries > 1) {
        ++union_runs;
        if (mode == ScheduleMode::kUniform) {
          // Pre-PR trace shape: uniform rounds are lockstep.
          CheckUniformLockstep(answer.report, context, /*expect_lockstep=*/true);
        } else if (CheckUniformLockstep(answer.report, context,
                                        /*expect_lockstep=*/false)) {
          ++adaptive_skews;
        }
        // Error attribution is reported: shares are in [0, 1].
        for (const PipelineOutcome& outcome : answer.report.pipeline_outcomes) {
          EXPECT_GE(outcome.error_contribution, 0.0) << context;
          EXPECT_LE(outcome.error_contribution, 1.0 + 1e-12) << context;
        }
      }
    }
  }
  // The properties are vacuous unless the paths under test actually fired.
  EXPECT_GE(early_stops, 10) << "stopping rule rarely fired; retune targets";
  EXPECT_GE(union_runs, 10) << "union plans rarely generated";
  EXPECT_GE(adaptive_skews, 1)
      << "adaptive scheduling never broke lockstep; reallocation untested";
}

// --- Compressed vs raw storage: same answers, same traces --------------------
//
// Codec-layer round trips are bit-exact (tests/codec_test.cc) and carving is
// storage-independent, so flipping compressed_scan — and, on compressed
// scans, flipping filter_encoded_views between decode-then-filter and
// operate-on-dict-indices — must change NOTHING the engine reports except
// the bytes accounting: answers bit-identical, per-pipeline block traces
// identical. bytes_decoded is identical between raw and the forced-decode
// arm, and may only shrink (never grow) when filter-only columns stay
// encoded.

TEST(FuzzDifferentialTest, CompressedScanIsBitIdenticalToRaw) {
  Fixture fx;  // non-const: its storage gets encoded in place
  BlockEncodeOptions encode;
  encode.block_rows = 1024;
  for (SampleFamily* family : fx.store.MutableFamiliesFor("t")) {
    ASSERT_TRUE(family->EncodeBlocks(encode).ok());
  }
  ASSERT_TRUE(fx.fact.BuildEncoded(encode).ok());

  Rng rng(86'420);
  int compressed_wins = 0;
  int views_skipped_decode = 0;
  for (int q = 0; q < 6; ++q) {
    // Mix never-stop drives with reachable bounds: early stopping is driven
    // by achieved error, which must match, so stopped traces must match too.
    // The last query is pinned to the dict-encodable columns (a: 10 distinct,
    // s: 12 distinct) so at least one run must exercise a real compression win
    // regardless of what the random mix happens to touch.
    const bool never_stop = q % 2 == 0;
    const std::string sql =
        q == 5 ? "SELECT s, COUNT(*) FROM t WHERE a = 3 GROUP BY s"
                 " ERROR WITHIN 0.0000001% AT CONFIDENCE 95%"
               : RandomQuery(rng, /*allow_quantile=*/never_stop) +
                     (never_stop ? " ERROR WITHIN 0.0000001% AT CONFIDENCE 95%"
                                 : " ERROR WITHIN 8% AT CONFIDENCE 95%");
    auto stmt = ParseSelect(sql);
    ASSERT_TRUE(stmt.ok()) << sql;
    for (size_t threads : {1u, 2u, 7u}) {
      for (uint32_t morsel_rows : {64u, 1024u, 4096u}) {
        RuntimeConfig config =
            StreamingConfig(ScheduleMode::kAdaptive, threads, morsel_rows, 3);
        config.compressed_scan = false;
        const ApproxAnswer raw = fx.MustExecute(*stmt, config);
        config.compressed_scan = true;
        config.filter_encoded_views = false;  // decode-then-filter arm
        const ApproxAnswer decoded = fx.MustExecute(*stmt, config);
        config.filter_encoded_views = true;  // operate-on-indices arm
        const ApproxAnswer views = fx.MustExecute(*stmt, config);
        const std::string context = sql + " [threads=" + std::to_string(threads) +
                                    " morsel=" + std::to_string(morsel_rows) + "]";
        ExpectIdentical(decoded.result, raw.result, context + " decode");
        ExpectIdentical(views.result, raw.result, context + " views");
        for (const ApproxAnswer* compressed : {&decoded, &views}) {
          EXPECT_EQ(compressed->report.stopped_early, raw.report.stopped_early)
              << context;
          ASSERT_EQ(compressed->report.pipeline_outcomes.size(),
                    raw.report.pipeline_outcomes.size())
              << context;
          for (size_t p = 0; p < raw.report.pipeline_outcomes.size(); ++p) {
            const PipelineOutcome& r = raw.report.pipeline_outcomes[p];
            const PipelineOutcome& c = compressed->report.pipeline_outcomes[p];
            const std::string at = context + " pipeline " + std::to_string(p);
            EXPECT_EQ(c.blocks_total, r.blocks_total) << at;
            EXPECT_EQ(c.blocks_consumed, r.blocks_consumed) << at;
            EXPECT_EQ(c.rows_consumed, r.rows_consumed) << at;
            EXPECT_EQ(c.rows_matched, r.rows_matched) << at;
            // Raw storage reports physical == logical; §4.4 reuse charges 0.
            EXPECT_TRUE(r.bytes_scanned == r.bytes_decoded ||
                        (r.reused_probe && r.bytes_scanned == 0.0))
                << at;
          }
        }
        // Forced decode materializes every touched column, exactly like raw.
        EXPECT_EQ(decoded.report.bytes_decoded, raw.report.bytes_decoded)
            << context;
        // Encoded views read the same physical bytes but materialize at most
        // as much — strictly less whenever a filter-only column stayed
        // encoded (the pinned dict query guarantees at least one such run).
        EXPECT_EQ(views.report.bytes_scanned, decoded.report.bytes_scanned)
            << context;
        EXPECT_LE(views.report.bytes_decoded, decoded.report.bytes_decoded)
            << context;
        if (views.report.bytes_decoded < decoded.report.bytes_decoded) {
          ++views_skipped_decode;
        }
        if (raw.report.bytes_decoded > 0.0) {
          // Incompressible columns cost at most the 8-byte aligned header
          // per block over raw; a query touching only those may exceed
          // logical size by that sliver — proportionally at scale, plus a
          // fixed few hundred bytes of headers on tiny prefix scans.
          EXPECT_LE(decoded.report.bytes_scanned,
                    raw.report.bytes_decoded * 1.01 + 256.0)
              << context;
          EXPECT_GT(decoded.report.bytes_scanned, 0.0) << context;
          if (decoded.report.bytes_scanned < 0.5 * raw.report.bytes_decoded) {
            ++compressed_wins;
          }
        }
      }
    }
  }
  EXPECT_GT(compressed_wins, 0)
      << "no query ever scanned a column the codecs actually shrank";
  EXPECT_GT(views_skipped_decode, 0)
      << "no query ever served a filter-only column as an encoded view";
}

// --- WITHIN n SECONDS: pooled budgets keep the accounting consistent ---------

TEST(FuzzDifferentialTest, TimeBoundedRunsKeepConsistentAccounting) {
  const Fixture fx;
  Rng rng(90'210);
  int partial_runs = 0;
  for (int q = 0; q < 12; ++q) {
    const int seconds = 2 + static_cast<int>(rng.NextBounded(28));
    const std::string sql = RandomQuery(rng, /*allow_quantile=*/false) + " WITHIN " +
                            std::to_string(seconds) + " SECONDS";
    auto stmt = ParseSelect(sql);
    ASSERT_TRUE(stmt.ok()) << sql;
    std::vector<uint64_t> consumed;
    for (ScheduleMode mode : {ScheduleMode::kUniform, ScheduleMode::kAdaptive}) {
      const ApproxAnswer answer =
          fx.MustExecute(*stmt, StreamingConfig(mode, 1, 512, 2));
      const std::string context = sql + " [" + ScheduleModeName(mode) + "]";
      ExpectConsistentAccounting(answer.report, context);
      EXPECT_GT(answer.report.blocks_consumed, 0u) << context;
      consumed.push_back(answer.report.blocks_consumed);
      if (answer.report.stopped_early) {
        ++partial_runs;
        EXPECT_FALSE(answer.result.rows.empty()) << context;
      }
    }
    // A time bound is one block pool: the schedules differ only in which
    // pipeline gets blocks, never in how many the budget spends.
    EXPECT_EQ(consumed[0], consumed[1]) << sql;
  }
  EXPECT_GE(partial_runs, 2) << "time budgets never truncated a scan; retune bounds";
}

// --- Ingest arm: leveled answers are replay-deterministic --------------------
//
// A seeded script of appends, maintenance ticks, and query checkpoints runs
// against a live BlinkDB. Replaying the same script into a fresh instance
// rebuilds bit-identical runs (family build seeds derive from the store seed
// and run ids), so every replica must produce bit-identical answers at every
// checkpoint — across threads {1, 2, 7} x morsels {64, 1024, 4096} x level
// layouts, streamed or one-shot, uniform or adaptive. Ground truth closes
// the loop: exact answers over the leveled store equal exact answers over a
// flat one-shot rebuild (base + runs flattened into one table).

struct ScriptOp {
  enum Kind { kAppend, kTick, kCheckpoint };
  Kind kind = kAppend;
  Table batch;  // kAppend only
};

struct IngestLayout {
  const char* name;
  LeveledStoreOptions options;
};

std::vector<IngestLayout> IngestLayouts() {
  std::vector<IngestLayout> layouts;
  {
    // Level-0 only: the fanout is never reached, every run is an exact
    // weight-1 write buffer.
    IngestLayout l0{"l0-only", {}};
    l0.options.level_fanout = 64;
    layouts.push_back(std::move(l0));
  }
  {
    // Aggressive compaction with sampled merged runs: merges fire constantly
    // and rebuilt families (seeded per run id) join the union plan.
    IngestLayout sampled{"fanout2-sampled", {}};
    sampled.options.level_fanout = 2;
    sampled.options.sample_min_rows = 512;
    sampled.options.sample.largest_cap = 300;
    sampled.options.sample.max_resolutions = 3;
    sampled.options.sample.uniform_fraction = 0.5;
    layouts.push_back(std::move(sampled));
  }
  {
    // Mixed: moderate fanout, higher sampling threshold — exact runs and
    // sampled runs coexist in one manifest.
    IngestLayout mixed{"mixed", {}};
    mixed.options.level_fanout = 3;
    mixed.options.sample_min_rows = 1'500;
    mixed.options.sample.largest_cap = 400;
    mixed.options.sample.max_resolutions = 3;
    layouts.push_back(std::move(mixed));
  }
  return layouts;
}

// The shared op script: batches are generated ONCE (from the caller's rng)
// so every replica appends bit-identical rows in the same order.
std::vector<ScriptOp> MakeScript(Rng& rng) {
  std::vector<ScriptOp> ops;
  const int appends = 6;
  for (int i = 0; i < appends; ++i) {
    ScriptOp append;
    append.kind = ScriptOp::kAppend;
    append.batch = testgen::MakeArrivalBatch(rng, 200 + rng.NextBounded(600));
    ops.push_back(std::move(append));
    if (rng.NextBernoulli(0.6)) {
      ops.push_back(ScriptOp{ScriptOp::kTick, {}});
    }
    if (i == 2 || i == appends - 1) {
      ops.push_back(ScriptOp{ScriptOp::kCheckpoint, {}});
    }
  }
  return ops;
}

// Replays the script into a fresh live BlinkDB under `config`, answering
// every query at every checkpoint. Returns the answers in script order.
std::vector<ApproxAnswer> ReplayScript(const LeveledStoreOptions& layout,
                                       const RuntimeConfig& config,
                                       const std::vector<ScriptOp>& ops,
                                       const std::vector<std::string>& queries,
                                       BlinkDB* keep_db = nullptr) {
  BlinkDbOptions db_options;
  db_options.runtime = config;
  auto owned = keep_db == nullptr ? std::make_unique<BlinkDB>(db_options) : nullptr;
  BlinkDB& db = keep_db != nullptr ? *keep_db : *owned;
  const Table fact = MakeFact(8'192);
  EXPECT_TRUE(db.RegisterTable("t", fact, /*scale_factor=*/1e4).ok());
  Rng family_rng(17);
  SampleFamilyOptions family_options;
  family_options.uniform_fraction = 0.5;
  family_options.max_resolutions = 6;
  auto uniform = SampleFamily::BuildUniform(fact, family_options, family_rng);
  EXPECT_TRUE(uniform.ok());
  db.samples().AddFamily("t", std::move(uniform.value()));
  EXPECT_TRUE(db.ConfigureIngest("t", layout).ok());

  std::vector<ApproxAnswer> answers;
  for (const ScriptOp& op : ops) {
    switch (op.kind) {
      case ScriptOp::kAppend: {
        auto version = db.Append("t", op.batch);
        EXPECT_TRUE(version.ok()) << version.status().ToString();
        break;
      }
      case ScriptOp::kTick: {
        auto tick = db.MaintenanceTick("t");
        EXPECT_TRUE(tick.ok()) << tick.status().ToString();
        break;
      }
      case ScriptOp::kCheckpoint: {
        for (const std::string& sql : queries) {
          auto answer = db.Query(sql);
          EXPECT_TRUE(answer.ok()) << sql << " -> " << answer.status().ToString();
          answers.push_back(std::move(answer.value()));
        }
        break;
      }
    }
  }
  return answers;
}

TEST(FuzzDifferentialTest, IngestAnswersAreReplayAndScheduleIndependent) {
  Rng rng(777'001);
  for (const IngestLayout& layout : IngestLayouts()) {
    const std::vector<ScriptOp> ops = MakeScript(rng);
    std::vector<std::string> queries;
    for (int q = 0; q < 3; ++q) {
      // No quantiles: ExecuteLeveled rejects them (t-digests do not merge
      // across run-local weights).
      queries.push_back(RandomQuery(rng, /*allow_quantile=*/false) +
                        " ERROR WITHIN 0.0000001% AT CONFIDENCE 95%");
    }
    for (uint32_t morsel_rows : {64u, 1024u, 4096u}) {
      RuntimeConfig oneshot = StreamingConfig(ScheduleMode::kUniform, 1, morsel_rows, 3);
      oneshot.streaming = false;
      const std::vector<ApproxAnswer> reference =
          ReplayScript(layout.options, oneshot, ops, queries);
      ASSERT_EQ(reference.size(), 2 * queries.size()) << layout.name;
      for (size_t threads : {1u, 2u, 7u}) {
        for (ScheduleMode mode : {ScheduleMode::kUniform, ScheduleMode::kAdaptive}) {
          const std::vector<ApproxAnswer> live = ReplayScript(
              layout.options, StreamingConfig(mode, threads, morsel_rows, 3), ops,
              queries);
          ASSERT_EQ(live.size(), reference.size());
          for (size_t i = 0; i < live.size(); ++i) {
            const std::string context =
                std::string(layout.name) + " checkpoint answer " + std::to_string(i) +
                " [" + ScheduleModeName(mode) + " threads=" + std::to_string(threads) +
                " morsel=" + std::to_string(morsel_rows) + "]";
            ExpectIdentical(live[i].result, reference[i].result, context);
            EXPECT_FALSE(live[i].report.stopped_early) << context;
            ExpectConsistentAccounting(live[i].report, context);
            EXPECT_EQ(live[i].report.family, "leveled") << context;
          }
        }
      }
    }
  }
}

TEST(FuzzDifferentialTest, IngestExactAnswersMatchFlatRebuild) {
  Rng rng(777'002);
  for (const IngestLayout& layout : IngestLayouts()) {
    const std::vector<ScriptOp> ops = MakeScript(rng);
    BlinkDB live;
    ReplayScript(layout.options, RuntimeConfig{}, ops, /*queries=*/{}, &live);

    // Flat one-shot rebuild of the final snapshot: base + every pinned run
    // flattened into a single registered table.
    const auto pinned = live.PinLevels("t");
    ASSERT_TRUE(pinned.has_value()) << layout.name;
    const Table fact = MakeFact(8'192);
    Table flat(fact.schema());
    ASSERT_TRUE(LeveledStore::AppendRows(flat, fact).ok());
    for (const auto& run : pinned->snapshot.runs) {
      ASSERT_TRUE(LeveledStore::AppendRows(flat, *run->rows).ok());
    }
    BlinkDB rebuilt;
    ASSERT_TRUE(rebuilt.RegisterTable("t", std::move(flat), /*scale_factor=*/1e4).ok());

    for (int q = 0; q < 4; ++q) {
      const std::string sql = RandomQuery(rng, /*allow_quantile=*/true);
      auto leveled = live.QueryExact(sql);
      auto flat_answer = rebuilt.QueryExact(sql);
      ASSERT_TRUE(leveled.ok()) << sql << " -> " << leveled.status().ToString();
      ASSERT_TRUE(flat_answer.ok()) << sql << " -> " << flat_answer.status().ToString();
      ExpectIdentical(leveled->result, flat_answer->result,
                      std::string(layout.name) + " exact: " + sql);
    }
  }
}

TEST(FuzzDifferentialTest, IngestBoundedAnswersHonorTheBound) {
  Rng rng(777'003);
  const IngestLayout layout = IngestLayouts()[1];  // fanout2-sampled
  const std::vector<ScriptOp> ops = MakeScript(rng);
  // Small morsels: the pinned plan has enough blocks that error stops land
  // mid-scan instead of the scan completing first.
  BlinkDbOptions db_options;
  db_options.runtime = StreamingConfig(ScheduleMode::kAdaptive, 2, 128, 2);
  BlinkDB live(db_options);
  ReplayScript(layout.options, db_options.runtime, ops, /*queries=*/{}, &live);
  const LeveledStore* store = live.Levels("t");
  ASSERT_NE(store, nullptr);
  const size_t runs = store->run_count();
  ASSERT_GT(runs, 0u);

  int early_stops = 0;
  for (int q = 0; q < 24; ++q) {
    const double target = 0.02 + rng.NextDouble() * 0.18;
    char bound[80];
    std::snprintf(bound, sizeof(bound), " ERROR WITHIN %.4f%% AT CONFIDENCE 95%%",
                  target * 100.0);
    const std::string sql = RandomQuery(rng, /*allow_quantile=*/false) + bound;
    auto stmt = ParseSelect(sql);
    ASSERT_TRUE(stmt.ok()) << sql;
    auto answer = live.Query(sql);
    ASSERT_TRUE(answer.ok()) << sql << " -> " << answer.status().ToString();
    const std::string context = sql + " [leveled bounded]";
    ExpectConsistentAccounting(answer->report, context);
    // The leveled plan is base + one pipeline per pinned run, always.
    EXPECT_EQ(answer->report.pipeline_outcomes.size(), runs + 1) << context;
    if (answer->report.stopped_early) {
      ++early_stops;
      const double recomputed = ReportedError(answer->result, stmt->bounds, 0.95);
      EXPECT_LE(recomputed, target * (1.0 + 1e-9)) << context;
      EXPECT_DOUBLE_EQ(answer->report.achieved_error, recomputed) << context;
    }
  }
  EXPECT_GE(early_stops, 5) << "joint stopping rarely fired on the leveled plan";
}

}  // namespace
}  // namespace blink
