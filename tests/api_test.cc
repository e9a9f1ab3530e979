#include <gtest/gtest.h>

#include <string>
#include <variant>
#include <vector>

#include "src/api/blinkdb.h"
#include "src/cache/answer_cache.h"
#include "src/server/protocol.h"
#include "src/server/server.h"
#include "src/sql/parser.h"
#include "src/workload/conviva.h"
#include "src/workload/demo_db.h"
#include "src/workload/tpch.h"

namespace blink {
namespace {

ConvivaConfig SmallConviva() {
  ConvivaConfig config;
  config.num_rows = 60'000;
  config.num_cities = 500;
  config.num_urls = 5'000;
  return config;
}

PlannerConfig SmallPlanner() {
  PlannerConfig config;
  config.budget_fraction = 0.5;
  config.cap_k = 500;
  config.max_columns_per_set = 2;
  config.uniform_fraction = 0.1;
  return config;
}

TEST(BlinkDbTest, RegisterAndQueryExact) {
  BlinkDB db;
  ASSERT_TRUE(db.RegisterTable("sessions", GenerateConvivaTable(SmallConviva())).ok());
  auto answer = db.QueryExact("SELECT COUNT(*) FROM sessions");
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_DOUBLE_EQ(answer->result.rows[0].aggregates[0].value, 60'000.0);
}

TEST(BlinkDbTest, DuplicateTableRejected) {
  BlinkDB db;
  ASSERT_TRUE(db.RegisterTable("t", GenerateConvivaTable(SmallConviva())).ok());
  EXPECT_FALSE(db.RegisterTable("T", GenerateConvivaTable(SmallConviva())).ok());
}

TEST(BlinkDbTest, QueryUnknownTableFails) {
  BlinkDB db;
  EXPECT_EQ(db.Query("SELECT COUNT(*) FROM nope").status().code(), StatusCode::kNotFound);
}

TEST(BlinkDbTest, MalformedSqlFails) {
  BlinkDB db;
  EXPECT_EQ(db.Query("SELECT FROM WHERE").status().code(), StatusCode::kInvalidArgument);
}

TEST(BlinkDbTest, BuildSamplesAndQueryWithErrorBound) {
  BlinkDB db;
  const Table table = GenerateConvivaTable(SmallConviva());
  // The 60k-row stand-in represents ~6 TB of data: sampling must clearly win.
  ASSERT_TRUE(db.RegisterTable("sessions", table, /*scale_factor=*/1e6).ok());
  auto plan = db.BuildSamples("sessions", ConvivaTemplates(), SmallPlanner());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_FALSE(plan->families.empty());
  EXPECT_LE(plan->total_bytes, plan->budget_bytes * 1.0001);

  auto answer = db.Query(
      "SELECT COUNT(*) FROM sessions WHERE country = 'country_1' "
      "ERROR WITHIN 10% AT CONFIDENCE 95%");
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  auto exact = db.QueryExact("SELECT COUNT(*) FROM sessions WHERE country = 'country_1'");
  ASSERT_TRUE(exact.ok());
  const double truth = exact->result.rows[0].aggregates[0].value;
  const double got = answer->result.rows[0].aggregates[0].value;
  EXPECT_NEAR(got, truth, truth * 0.15);
  // Sampling must beat the exact scan on simulated latency.
  EXPECT_LT(answer->report.total_latency, exact->report.total_latency);
}

TEST(BlinkDbTest, TimeBoundedQueryMeetsBudget) {
  BlinkDB db;
  const Table table = GenerateConvivaTable(SmallConviva());
  // The 60k-row stand-in represents ~170 GB: the cardinality-to-row ratio of
  // the stand-in is much higher than the real 5.5B-row table, so the smallest
  // stratified resolutions are a larger *fraction* of the data; the modest
  // scale keeps probe costs proportionate.
  ASSERT_TRUE(db.RegisterTable("sessions", table, /*scale_factor=*/2e4).ok());
  ASSERT_TRUE(db.BuildSamples("sessions", ConvivaTemplates(), SmallPlanner()).ok());
  auto answer = db.Query(
      "SELECT AVG(sessiontimems) FROM sessions WHERE dt = 3 WITHIN 5 SECONDS");
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_LE(answer->report.total_latency, 5.0 * 1.2);
  EXPECT_GT(answer->result.rows[0].aggregates[0].value, 0.0);
}

TEST(BlinkDbTest, DimensionJoinQuery) {
  BlinkDB db;
  TpchConfig config;
  config.lineitem_rows = 50'000;
  config.num_orders = 10'000;
  ASSERT_TRUE(db.RegisterTable("lineitem", GenerateLineitem(config)).ok());
  ASSERT_TRUE(db.RegisterDimensionTable("orders", GenerateOrders(config)).ok());
  auto answer = db.Query(
      "SELECT orderpriority, AVG(extendedprice) FROM lineitem "
      "JOIN orders ON orderkey = orderkey GROUP BY orderpriority");
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->result.rows.size(), 5u);  // five priorities
}

TEST(BlinkDbTest, DimensionTablesAreNotSampled) {
  BlinkDB db;
  TpchConfig config;
  config.lineitem_rows = 1'000;
  ASSERT_TRUE(db.RegisterDimensionTable("orders", GenerateOrders(config)).ok());
  EXPECT_EQ(db.BuildSamples("orders", {}, SmallPlanner()).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(BlinkDbTest, MaintenanceRebuildsOnDrift) {
  BlinkDB db;
  ConvivaConfig small = SmallConviva();
  small.num_rows = 20'000;
  const Table table = GenerateConvivaTable(small);
  ASSERT_TRUE(db.RegisterTable("sessions", table).ok());
  PlannerConfig planner = SmallPlanner();
  planner.uniform_fraction = 0.2;
  ASSERT_TRUE(db.BuildSamples("sessions", ConvivaTemplates(), planner).ok());
  const size_t before = db.samples().FamiliesFor("sessions").size();

  // Appending a same-distribution trickle should rebuild nothing.
  ConvivaConfig trickle = small;
  trickle.num_rows = 500;
  trickle.rng_seed = 777;
  auto rebuilt = db.AppendAndMaintain("sessions", GenerateConvivaTable(trickle));
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_EQ(*rebuilt, 0);

  // Doubling the data with a shifted distribution must trigger rebuilds.
  ConvivaConfig shifted = small;
  shifted.num_rows = 40'000;
  shifted.rng_seed = 999;
  shifted.num_cities = 50;  // much more concentrated
  auto rebuilt2 = db.AppendAndMaintain("sessions", GenerateConvivaTable(shifted), 0.05);
  ASSERT_TRUE(rebuilt2.ok()) << rebuilt2.status().ToString();
  EXPECT_GT(*rebuilt2, 0);
  EXPECT_EQ(db.samples().FamiliesFor("sessions").size(), before);
  // Queries still work after maintenance.
  auto answer = db.Query("SELECT COUNT(*) FROM sessions");
  ASSERT_TRUE(answer.ok());
  EXPECT_NEAR(answer->result.rows[0].aggregates[0].value, 60'500.0, 3000.0);
}

// --- The demo serving state ---------------------------------------------------

// The runtime settings of blinkdb_server at its default flags.
BlinkDbOptions ServerDefaults() {
  BlinkDbOptions options;
  options.runtime.exec_threads = 2;
  options.runtime.morsel_rows = 512;
  options.runtime.stream_batch_blocks = 4;
  return options;
}

// Appends one 2000-row arrival batch and runs the maintenance step the
// server runs after every APPEND.
void AppendBatch(BlinkDB& db, Rng& rng) {
  ASSERT_TRUE(
      db.Append("sessions", GenerateConvivaArrivals(ConvivaConfig{}, 2'000, rng)).ok());
  ASSERT_TRUE(db.MaintenanceTick("sessions").ok());
}

// An AVG whose union parts all matched nothing has no mean. It must come
// back as the empty estimate and travel in a FINAL frame that decodes, on
// both union plans: a flat table's DNF disjuncts and a leveled table's runs.
TEST(DemoDbTest, AvgOverEmptyUnionPartsEncodesADecodableFinal) {
  BlinkDB db(ServerDefaults());
  ASSERT_TRUE(BuildConvivaDemo(db).ok());
  const auto expect_empty_round_trip = [&db](const std::string& sql,
                                             const std::string& family) {
    SCOPED_TRACE(sql);
    auto answer = db.Query(sql);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_EQ(answer->report.family, family);
    ASSERT_EQ(answer->result.rows.size(), 1u);
    ASSERT_EQ(answer->result.rows[0].aggregates.size(), 1u);
    EXPECT_EQ(answer->result.rows[0].aggregates[0].value, 0.0);
    EXPECT_EQ(answer->result.rows[0].aggregates[0].variance, 0.0);

    FinalFrame frame;
    frame.id = 1;
    frame.result = answer->result;
    frame.report = answer->report;
    auto decoded = DecodeFrame(EncodeFinal(frame));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ASSERT_TRUE(std::holds_alternative<FinalFrame>(decoded->payload));
    const QueryResult& back = std::get<FinalFrame>(decoded->payload).result;
    ASSERT_EQ(back.rows.size(), 1u);
    EXPECT_EQ(back.rows[0].aggregates[0].value, 0.0);
    EXPECT_EQ(back.rows[0].aggregates[0].variance, 0.0);
  };
  expect_empty_round_trip(
      "SELECT AVG(sessiontimems) FROM sessions WHERE city = 'nope1' OR os = 'nope2' "
      "ERROR WITHIN 10% AT CONFIDENCE 95%",
      "union");
  Rng rng(7);
  AppendBatch(db, rng);
  expect_empty_round_trip(
      "SELECT AVG(sessiontimems) FROM sessions WHERE city = 'nope1' "
      "ERROR WITHIN 10% AT CONFIDENCE 95%",
      "leveled");
}

// The answer cache on a leveled table, driven the way the server drives it:
// entries are final answers keyed by generation plus the pinned level set.
// They serve hits but never resume, and any publication retires them.
TEST(DemoDbTest, LeveledQueriesServeFinalOnlyCacheEntries) {
  BlinkDB db(ServerDefaults());
  ASSERT_TRUE(BuildConvivaDemo(db).ok());
  Rng rng(11);
  for (int i = 0; i < 3; ++i) {
    AppendBatch(db, rng);
  }
  AnswerCache cache(ServerOptions().answer_cache_entries);
  const QueryRuntime runtime(&db.samples(), &db.cluster(), ServerDefaults().runtime);

  struct Run {
    Result<ApproxAnswer> answer = ApproxAnswer{};
    std::vector<StreamProgress> events;
  };
  const auto run = [&](const std::string& sql) {
    Run out;
    auto stmt = ParseSelect(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    auto tables = db.Resolve(*stmt);
    EXPECT_TRUE(tables.ok()) << tables.status().ToString();
    const auto pinned = db.PinLevels("sessions");
    EXPECT_TRUE(pinned.has_value());
    CacheContext cache_ctx;
    cache_ctx.cache = &cache;
    cache_ctx.table_generation = pinned->generation;
    cache_ctx.key_suffix = pinned->fingerprint;
    out.answer = runtime.ExecuteLeveled(
        *stmt, tables->fact->name, tables->fact->table, tables->fact->scale_factor,
        pinned->levels, nullptr,
        [&out](const QueryResult&, const StreamProgress& p) { out.events.push_back(p); },
        nullptr, cache_ctx);
    return out;
  };
  const std::string at_5 =
      "SELECT COUNT(*) FROM sessions WHERE country = 'country_1' "
      "ERROR WITHIN 5% AT CONFIDENCE 95%";

  // Cold: a miss that stops early, and every PARTIAL it streams says so.
  const Run cold = run(at_5);
  ASSERT_TRUE(cold.answer.ok()) << cold.answer.status().ToString();
  EXPECT_EQ(cold.answer->report.family, "leveled");
  EXPECT_EQ(cold.answer->report.cache, "miss");
  EXPECT_EQ(cold.answer->report.num_subqueries, 4u);  // base + 3 runs
  EXPECT_GT(cold.answer->report.blocks_consumed, 0u);
  EXPECT_TRUE(cold.answer->report.stopped_early);
  ASSERT_GT(cold.events.size(), 1u);
  for (const StreamProgress& p : cold.events) {
    EXPECT_EQ(p.cache, "miss");
  }
  EXPECT_TRUE(cold.events.back().final_batch);

  // Repeat: the stored FINAL, zero blocks, one terminal callback.
  const Run hit = run(at_5);
  ASSERT_TRUE(hit.answer.ok()) << hit.answer.status().ToString();
  EXPECT_EQ(hit.answer->report.cache, "hit");
  EXPECT_EQ(hit.answer->report.family, "leveled");
  EXPECT_EQ(hit.answer->report.blocks_consumed, 0u);
  EXPECT_EQ(hit.answer->result.rows[0].aggregates[0].value,
            cold.answer->result.rows[0].aggregates[0].value);
  ASSERT_EQ(hit.events.size(), 1u);
  EXPECT_TRUE(hit.events[0].final_batch);
  EXPECT_EQ(hit.events[0].cache, "hit");
  EXPECT_EQ(hit.events[0].blocks_consumed, 0u);

  // A tighter bound the entry cannot meet re-runs cold: final-only entries
  // carry no resumable prefix.
  const Run tighter = run(
      "SELECT COUNT(*) FROM sessions WHERE country = 'country_1' "
      "ERROR WITHIN 1% AT CONFIDENCE 95%");
  ASSERT_TRUE(tighter.answer.ok()) << tighter.answer.status().ToString();
  EXPECT_EQ(tighter.answer->report.cache, "miss");
  EXPECT_GT(tighter.answer->report.blocks_consumed,
            cold.answer->report.blocks_consumed);
  for (const StreamProgress& p : tighter.events) {
    EXPECT_EQ(p.cache, "miss");
  }
  EXPECT_EQ(cache.stats().resumes, 0u);

  // A publication retires every entry of the old level set.
  AppendBatch(db, rng);
  const Run after_append = run(at_5);
  ASSERT_TRUE(after_append.answer.ok()) << after_append.answer.status().ToString();
  EXPECT_EQ(after_append.answer->report.cache, "miss");
  EXPECT_GT(after_append.answer->report.blocks_consumed, 0u);

  // Quantiles do not recombine across level pipelines.
  const Run quantile = run(
      "SELECT QUANTILE(sessiontimems, 0.5) FROM sessions "
      "ERROR WITHIN 5% AT CONFIDENCE 95%");
  EXPECT_EQ(quantile.answer.status().code(), StatusCode::kUnimplemented);
  EXPECT_EQ(cache.stats().resumes, 0u);
}

TEST(WorkloadTest, ConvivaTableShape) {
  const Table t = GenerateConvivaTable(SmallConviva());
  EXPECT_EQ(t.num_rows(), 60'000u);
  EXPECT_EQ(t.num_columns(), 15u);
  EXPECT_TRUE(t.schema().FindColumn("genre").has_value());
  EXPECT_TRUE(t.schema().FindColumn("jointimems").has_value());
}

TEST(WorkloadTest, ConvivaTemplatesWeightsSumToOne) {
  double total = 0.0;
  for (const auto& tmpl : ConvivaTemplates()) {
    EXPECT_FALSE(tmpl.columns.empty());
    total += tmpl.weight;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(WorkloadTest, InstantiatedQueriesParseAndRun) {
  BlinkDB db;
  const Table table = GenerateConvivaTable(SmallConviva());
  ASSERT_TRUE(db.RegisterTable("sessions", GenerateConvivaTable(SmallConviva())).ok());
  Rng rng(5);
  for (const auto& tmpl : ConvivaTemplates()) {
    const std::string sql =
        InstantiateConvivaQuery(table, tmpl, "ERROR WITHIN 10% AT CONFIDENCE 95%", rng);
    auto answer = db.Query(sql);
    ASSERT_TRUE(answer.ok()) << sql << " -> " << answer.status().ToString();
  }
}

TEST(WorkloadTest, TpchTablesAndTemplates) {
  TpchConfig config;
  config.lineitem_rows = 10'000;
  const Table lineitem = GenerateLineitem(config);
  EXPECT_EQ(lineitem.num_rows(), 10'000u);
  const Table orders = GenerateOrders(config);
  EXPECT_EQ(orders.num_rows(), config.num_orders);
  EXPECT_EQ(TpchTemplates().size(), 6u);  // §6.1: 22 queries -> 6 templates

  // Quantity domain 1..50, discount 0..0.1.
  const auto q = lineitem.schema().FindColumn("quantity").value();
  const auto d = lineitem.schema().FindColumn("discount").value();
  for (uint64_t r = 0; r < 1'000; ++r) {
    EXPECT_GE(lineitem.GetInt(q, r), 1);
    EXPECT_LE(lineitem.GetInt(q, r), 50);
    EXPECT_GE(lineitem.GetDouble(d, r), 0.0);
    EXPECT_LE(lineitem.GetDouble(d, r), 0.10001);
  }
}

TEST(WorkloadTest, TpchQueriesRunOnBlinkDb) {
  BlinkDB db;
  TpchConfig config;
  config.lineitem_rows = 60'000;
  const Table lineitem = GenerateLineitem(config);
  ASSERT_TRUE(db.RegisterTable("lineitem", GenerateLineitem(config)).ok());
  PlannerConfig planner = SmallPlanner();
  planner.cap_k = 200;
  ASSERT_TRUE(db.BuildSamples("lineitem", TpchTemplates(), planner).ok());
  Rng rng(6);
  for (const auto& tmpl : TpchTemplates()) {
    const std::string sql = InstantiateTpchQuery(lineitem, tmpl, "", rng);
    auto answer = db.Query(sql);
    ASSERT_TRUE(answer.ok()) << sql << " -> " << answer.status().ToString();
  }
}

}  // namespace
}  // namespace blink
