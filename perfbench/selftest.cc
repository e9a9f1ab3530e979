// Self-test of the benchmark's own math and inputs:
//   python3 perfbench/run.py --self-test
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "perfbench/metrics.h"
#include "perfbench/ops.h"
#include "src/sql/parser.h"
#include "src/workload/conviva.h"

namespace perfbench {
namespace {

blink::ResultRow Row(std::vector<blink::Value> group, double value, double variance) {
  blink::ResultRow row;
  row.group_values = std::move(group);
  blink::Estimate estimate;
  estimate.value = value;
  estimate.variance = variance;
  row.aggregates.push_back(estimate);
  return row;
}

blink::QueryResult Result(std::vector<blink::ResultRow> rows) {
  blink::QueryResult result;
  result.aggregate_names = {"COUNT(*)"};
  result.rows = std::move(rows);
  return result;
}

TEST(PercentileTest, CarriesCountAndSamplesBeyond) {
  std::vector<double> values;
  for (int i = 1; i <= 1000; ++i) {
    values.push_back(i);
  }
  const Percentile p50 = PercentileOf(values, 0.5);
  EXPECT_EQ(p50.value, 500);
  EXPECT_EQ(p50.n, 1000u);
  EXPECT_EQ(p50.beyond, 500u);
  const Percentile p99 = PercentileOf(values, 0.99);
  EXPECT_EQ(p99.value, 990);
  EXPECT_EQ(p99.beyond, 10u);
  EXPECT_TRUE(p99.Reportable());
  values.pop_back();  // 999 samples leave only 9 beyond the p99
  EXPECT_FALSE(PercentileOf(values, 0.99).Reportable());
  EXPECT_EQ(PercentileOf({}, 0.5).n, 0u);
  EXPECT_FALSE(PercentileOf({}, 0.5).Reportable());
}

TEST(ScoreTest, CoverageCountsMissingGroupsAndSkipsZeroTruth) {
  const blink::QueryResult exact =
      Result({Row({blink::Value(std::string("a"))}, 100, 0),
              Row({blink::Value(std::string("b"))}, 0, 0),
              Row({blink::Value(std::string("c"))}, 50, 0)});
  // "a" is 2 off with a CI half-width of ~19.6 (covered); "b" has exact
  // value 0 (covered, no relative error); "c" is missing.
  const blink::QueryResult answer = Result({Row({blink::Value(std::string("a"))}, 102, 100),
                                            Row({blink::Value(std::string("b"))}, 0, 0)});
  CellScore score;
  EXPECT_EQ(ScoreAnswer(answer, blink::ExecutionReport{}, exact, 0.95, &score), std::nullopt);
  EXPECT_EQ(score.cells, 3u);
  EXPECT_EQ(score.covered, 2u);
  ASSERT_EQ(score.rel_errors.size(), 2u);
  EXPECT_DOUBLE_EQ(score.rel_errors[0], 0.02);
  EXPECT_DOUBLE_EQ(score.rel_errors[1], 1.0);  // the missing group

  // Each answer contributes its median cell error once.
  Accuracy accuracy;
  accuracy.Add(score);
  CellScore scalar;
  scalar.cells = 1;
  scalar.covered = 1;
  scalar.rel_errors = {0.5};
  accuracy.Add(scalar);
  EXPECT_EQ(accuracy.cells, 4u);
  EXPECT_DOUBLE_EQ(accuracy.CoverShare(), (2.0 / 3 + 1.0) / 2);  // per answer, then mean
  ASSERT_EQ(accuracy.answer_rel_errors.size(), 2u);
  EXPECT_DOUBLE_EQ(accuracy.answer_rel_errors[0], 0.02);  // nearest-rank median of {0.02, 1}
  EXPECT_DOUBLE_EQ(accuracy.WithinShare(0.05), 0.5);  // 0.02 is within, 0.5 is not
  EXPECT_DOUBLE_EQ(accuracy.WithinShare(0.5), 1.0);    // the limit is inclusive
}

TEST(ScoreTest, IntervalMustContainTheTruth) {
  const blink::QueryResult exact = Result({Row({}, 100, 0)});
  CellScore score;
  ScoreAnswer(Result({Row({}, 130, 100)}), blink::ExecutionReport{}, exact, 0.95, &score);
  EXPECT_EQ(score.cells, 1u);
  EXPECT_EQ(score.covered, 0u);
}

TEST(ScoreTest, ExtraGroupFailsTheCheck) {
  const blink::QueryResult exact = Result({Row({blink::Value(int64_t{1})}, 10, 0)});
  const blink::QueryResult answer = Result({Row({blink::Value(int64_t{1})}, 10, 0),
                                            Row({blink::Value(int64_t{2})}, 5, 0)});
  CellScore score;
  EXPECT_NE(ScoreAnswer(answer, blink::ExecutionReport{}, exact, 0.95, &score), std::nullopt);
}

TEST(ScoreTest, EarlyStopAboveItsBoundFailsTheCheck) {
  const blink::QueryResult exact = Result({Row({}, 100, 0)});
  blink::ExecutionReport report;
  report.effective_error_bound = 0.05;
  report.achieved_error = 0.08;
  report.stopped_early = true;
  CellScore score;
  EXPECT_NE(ScoreAnswer(Result({Row({}, 101, 4)}), report, exact, 0.95, &score), std::nullopt);
  // A sample that ran out before reaching its bound is honest, not a failure.
  report.stopped_early = false;
  EXPECT_EQ(ScoreAnswer(Result({Row({}, 101, 4)}), report, exact, 0.95, &score), std::nullopt);
  report.stopped_early = true;
  report.achieved_error = 0.049;
  EXPECT_EQ(ScoreAnswer(Result({Row({}, 101, 4)}), report, exact, 0.95, &score), std::nullopt);
}

TEST(ProcTest, ParsesCpuAndPeakRss) {
  // The command name may contain spaces and parentheses.
  const std::string stat =
      "4242 (blinkdb (srv) x) S 1 4242 4242 0 -1 4194560 1234 0 0 0 250 75 0 0 20 0 9 0 "
      "100 200000000 25000 18446744073709551615";
  const auto cpu = ParseStatCpuSeconds(stat, 100);
  ASSERT_TRUE(cpu.has_value());
  EXPECT_DOUBLE_EQ(*cpu, 3.25);
  EXPECT_FALSE(ParseStatCpuSeconds("garbage", 100).has_value());

  const std::string status = "Name:\tblinkdb_server\nVmPeak:\t  999 kB\nVmHWM:\t  102400 kB\n"
                             "VmRSS:\t   51200 kB\n";
  const auto mb = ParseStatusPeakMb(status);
  ASSERT_TRUE(mb.has_value());
  EXPECT_DOUBLE_EQ(*mb, 100.0);
  EXPECT_FALSE(ParseStatusPeakMb("Name:\tx\n").has_value());
}

class StreamTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    blink::ConvivaConfig config;
    config.num_rows = 20'000;
    table_ = new blink::Table(blink::GenerateConvivaTable(config));
  }
  static void TearDownTestSuite() { delete table_; }
  static blink::Table* table_;
};
blink::Table* StreamTest::table_ = nullptr;

TEST_F(StreamTest, SameSeedGivesByteIdenticalStreams) {
  for (Workload w : {Workload::kAdhoc, Workload::kDashboard, Workload::kIngest,
                     Workload::kScatter}) {
    const Streams a = MakeStreams(w, 7, 1, *table_);
    const Streams b = MakeStreams(w, 7, 1, *table_);
    EXPECT_EQ(StreamBytes(a, 7), StreamBytes(b, 7)) << WorkloadName(w);
    const Streams held_out = MakeStreams(w, kHeldOutSeed, 1, *table_);
    if (w != Workload::kDashboard || held_out.conns[0].size() > a.warmup) {
      EXPECT_NE(StreamBytes(a, 7), StreamBytes(held_out, kHeldOutSeed)) << WorkloadName(w);
    }
  }
  EXPECT_GT(MakeStreams(Workload::kIngest, 7, 1, *table_).append_batches, 0u);
}

TEST_F(StreamTest, OpCountDependsOnlyOnSeconds) {
  const Streams one = MakeStreams(Workload::kAdhoc, 3, 1, *table_);
  const Streams two = MakeStreams(Workload::kAdhoc, 3, 2, *table_);
  EXPECT_EQ(two.MeasuredQueries(), 2 * one.MeasuredQueries());
}

TEST_F(StreamTest, AdhocMixMatchesItsDefinition) {
  const Streams s = MakeStreams(Workload::kAdhoc, 11, 20, *table_);
  double n = 0, grouped = 0, disjunctive = 0, timed = 0, drill = 0;
  for (const auto& ops : s.conns) {
    for (const QuerySpec& q : ops) {
      ASSERT_TRUE(blink::ParseSelect(q.Sql()).ok()) << q.Sql();
      ++n;
      grouped += !q.group_by.empty();
      const bool has_or = q.where.find(" OR ") != std::string::npos;
      EXPECT_FALSE(has_or && q.agg == Agg::kAvg) << q.Sql();
      disjunctive += has_or;
      timed += q.time_seconds > 0;
      drill += q.drill_down;
    }
  }
  EXPECT_NEAR(grouped / n, 0.35, 0.15);
  EXPECT_NEAR(disjunctive / n, 0.13, 0.05);
  EXPECT_NEAR(timed / n, 0.18, 0.05);
  EXPECT_NEAR(drill / n, 0.07, 0.04);
}

TEST_F(StreamTest, DashboardAsksOneGroupedMixOnEverySeed) {
  // Panel refresh counts after the warm-up pass, per connection.
  auto counts = [](uint64_t seed) {
    const Streams s = MakeStreams(Workload::kDashboard, seed, 2, *table_);
    std::vector<std::map<std::string, size_t>> out;
    for (const auto& ops : s.conns) {
      auto& c = out.emplace_back();
      for (size_t i = s.warmup; i < ops.size(); ++i) {
        EXPECT_FALSE(ops[i].group_by.empty()) << ops[i].Sql();
        ++c[ops[i].Sql()];
      }
    }
    return out;
  };
  const auto a = counts(1);
  EXPECT_EQ(a, counts(kHeldOutSeed));
  ASSERT_EQ(a[0].size(), 12u);
  size_t top = 0, n = 0;
  for (const auto& [sql, count] : a[0]) {
    top = std::max(top, count);
    n += count;
  }
  // Zipf(1) over 12 panels: the top one gets 1 / H(12) of the refreshes.
  EXPECT_NEAR(static_cast<double>(top) / static_cast<double>(n), 0.3222, 0.001);
}

TEST_F(StreamTest, RestrictedWorkloadsStayInsideWhatTheirPathAccepts) {
  for (Workload w : {Workload::kIngest, Workload::kScatter}) {
    for (const auto& ops : MakeStreams(w, 5, 4, *table_).conns) {
      for (const QuerySpec& q : ops) {
        EXPECT_NE(q.agg, Agg::kQuantile) << q.Sql();
        EXPECT_NE(q.agg, Agg::kAvg) << q.Sql();
        if (w == Workload::kScatter) {
          EXPECT_GT(q.error_pct, 0) << q.Sql();
        }
      }
    }
  }
}

}  // namespace
}  // namespace perfbench
