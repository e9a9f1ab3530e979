// Scan-throughput microbenchmark for the morsel-driven vectorized engine.
//
// Measures rows/sec over a synthetic fact table for the row-at-a-time seed
// path ("scalar"), the vectorized single-thread morsel path, and the N-thread
// morsel path, at predicate selectivities {0.001, 0.01, 0.1, 1.0}, each over
// raw storage, compressed storage with filter-only encoded views disabled
// ("compressed_decode"), and compressed storage with them on ("compressed",
// the default path). A second section reports the per-column
// compression ratios and raw-vs-compressed query throughput on the synthetic
// Conviva sessions table, whose Zipfian low-cardinality columns are the
// paper-realistic compression case. Emits one JSON object per line for the
// bench trajectory; the committed snapshot lives at BENCH_scan.json.
//
// Usage: bench_scan_throughput [rows] (default 5,000,000)

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/exec/executor.h"
#include "src/sql/parser.h"
#include "src/storage/encoded_table.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "src/workload/conviva.h"

namespace blink {
namespace {

Table MakeFact(uint64_t rows) {
  Table t(Schema({{"id", DataType::kInt64},
                  {"v", DataType::kDouble},
                  {"cat", DataType::kString},
                  {"g", DataType::kInt64}}));
  t.Reserve(rows);
  Rng rng(42);
  std::vector<std::string> cats;
  for (int i = 0; i < 64; ++i) {
    cats.push_back("cat_" + std::to_string(i));
  }
  for (uint64_t i = 0; i < rows; ++i) {
    t.AppendInt(0, static_cast<int64_t>(i));
    t.AppendDouble(1, rng.NextDouble());
    t.AppendString(2, cats[rng.NextBounded(cats.size())]);
    t.AppendInt(3, static_cast<int64_t>(rng.NextBounded(1000)));
    t.CommitRow();
  }
  return t;
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct RunResult {
  double seconds = 0.0;
  double check = 0.0;  // first aggregate, to keep the work observable
};

// Best-of-`reps` wall time for one execution mode.
template <typename Fn>
RunResult TimeBest(int reps, Fn fn) {
  RunResult best;
  best.seconds = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double t0 = Now();
    const double check = fn();
    const double dt = Now() - t0;
    if (dt < best.seconds) {
      best.seconds = dt;
      best.check = check;
    }
  }
  return best;
}

void EmitJson(const char* query_kind, uint64_t rows, double selectivity,
              const char* mode, const char* storage, size_t threads,
              const RunResult& run, double scalar_seconds) {
  std::printf(
      "{\"bench\":\"scan_throughput\",\"query\":\"%s\",\"rows\":%llu,"
      "\"selectivity\":%g,\"mode\":\"%s\",\"storage\":\"%s\",\"threads\":%zu,"
      "\"seconds\":%.6f,\"rows_per_sec\":%.0f,\"speedup_vs_scalar\":%.2f,"
      "\"check\":%.6g}\n",
      query_kind, static_cast<unsigned long long>(rows), selectivity, mode, storage,
      threads, run.seconds, static_cast<double>(rows) / run.seconds,
      scalar_seconds / run.seconds, run.check);
  std::fflush(stdout);
}

// Per-column codec choice and compression ratio of an encoded table.
void EmitColumnStats(const char* table_name, const Table& table) {
  const EncodedTable* encoded = table.encoded_blocks();
  if (encoded == nullptr) {
    return;
  }
  for (size_t c = 0; c < encoded->num_columns(); ++c) {
    const ColumnCodecStats& stats = encoded->stats(c);
    std::printf(
        "{\"bench\":\"scan_compression\",\"table\":\"%s\",\"column\":\"%s\","
        "\"codec\":\"%s\",\"raw_bytes\":%llu,\"encoded_bytes\":%llu,"
        "\"ratio\":%.2f,\"encode_seconds\":%.4f,\"decode_seconds\":%.4f}\n",
        table_name, table.schema().column(c).name.c_str(),
        BlockCodecName(stats.codec),
        static_cast<unsigned long long>(stats.raw_bytes),
        static_cast<unsigned long long>(stats.encoded_bytes), stats.ratio(),
        stats.encode_seconds, stats.decode_seconds);
  }
  std::fflush(stdout);
}

// Benchmarks one query over `fact` in every mode. When the table carries
// encoded blocks, each vectorized/parallel mode runs twice — raw storage and
// compressed storage — distinguished by the "storage" field.
void BenchQuery(const char* query_kind, const std::string& sql, const Table& fact,
                int reps) {
  auto stmt = ParseSelect(sql);
  if (!stmt.ok()) {
    std::fprintf(stderr, "parse failed: %s\n", stmt.status().ToString().c_str());
    std::abort();
  }
  const Dataset ds = Dataset::Exact(fact);
  auto first_agg = [](const QueryResult& r) {
    return r.rows.empty() ? 0.0 : r.rows[0].aggregates[0].value;
  };

  // Extract the selectivity this query's predicate encodes (for the label
  // only): it is baked into the SQL by the caller via the literal on v.
  // Non-numeric predicates (Conviva's string equalities) just label 1.0.
  double selectivity = 1.0;
  if (stmt->where.has_value()) {
    const Value& literal = stmt->where->children.empty()
                               ? stmt->where->literal
                               : stmt->where->children[0].literal;
    if (!literal.is_string()) {
      selectivity = literal.AsNumeric();
    }
  }

  const RunResult scalar = TimeBest(reps, [&] {
    auto r = ExecuteQueryScalar(*stmt, ds);
    return r.ok() ? first_agg(*r) : -1.0;
  });
  EmitJson(query_kind, fact.num_rows(), selectivity, "scalar", "raw", 1, scalar,
           scalar.seconds);

  // Storage modes: raw columns, compressed with the filter-only dict/RLE
  // views disabled (decode-then-filter), and compressed with them on (the
  // default operate-on-compressed path). The _decode mode exists to keep the
  // decode-vs-views trajectory visible in the committed snapshot.
  const int storage_modes = fact.encoded_blocks() != nullptr ? 3 : 1;
  for (int mode = 0; mode < storage_modes; ++mode) {
    const char* storage =
        mode == 0 ? "raw" : (mode == 1 ? "compressed_decode" : "compressed");
    ExecutionOptions options;
    options.compressed_scan = mode != 0;
    options.filter_encoded_views = mode == 2;
    const RunResult vec1 = TimeBest(reps, [&] {
      auto r = ExecuteQuery(*stmt, ds, nullptr, options);
      return r.ok() ? first_agg(*r) : -1.0;
    });
    EmitJson(query_kind, fact.num_rows(), selectivity, "vectorized", storage, 1,
             vec1, scalar.seconds);

    for (size_t threads : {2u, 4u, 8u}) {
      ThreadPool pool(threads);
      options.pool = &pool;
      const RunResult par = TimeBest(reps, [&] {
        auto r = ExecuteQuery(*stmt, ds, nullptr, options);
        return r.ok() ? first_agg(*r) : -1.0;
      });
      EmitJson(query_kind, fact.num_rows(), selectivity, "parallel", storage,
               threads, par, scalar.seconds);
    }
  }
}

void Run(uint64_t rows) {
  std::fprintf(stderr, "building %llu-row table...\n",
               static_cast<unsigned long long>(rows));
  Table fact = MakeFact(rows);
  if (Status s = fact.BuildEncoded(BlockEncodeOptions{}); !s.ok()) {
    std::fprintf(stderr, "encode failed: %s\n", s.ToString().c_str());
    std::abort();
  }
  EmitColumnStats("synthetic", fact);
  const int reps = rows >= 1'000'000 ? 3 : 5;
  for (double selectivity : {0.001, 0.01, 0.1, 1.0}) {
    char sql[256];
    std::snprintf(sql, sizeof(sql), "SELECT COUNT(*) FROM t WHERE v < %g",
                  selectivity);
    BenchQuery("global_count", sql, fact, reps);
  }
  // A grouped aggregate with a value gather, the other hot shape.
  BenchQuery("grouped_sum",
             "SELECT cat, COUNT(*), SUM(v) FROM t WHERE v < 0.1 GROUP BY cat",
             fact, reps);
  // Filter-only dict predicate: `cat` is dict-coded and read by nothing but
  // the WHERE, so the compressed mode evaluates it over 8-bit packed indices
  // without ever decoding the column (compare against compressed_decode).
  BenchQuery("dict_filter_count", "SELECT COUNT(*) FROM t WHERE cat = 'cat_3'",
             fact, reps);

  // The paper-realistic case: Zipfian low-cardinality Conviva columns.
  ConvivaConfig config;
  config.num_rows = rows / 2;
  std::fprintf(stderr, "building %llu-row conviva table...\n",
               static_cast<unsigned long long>(config.num_rows));
  Table conviva = GenerateConvivaTable(config);
  if (Status s = conviva.BuildEncoded(BlockEncodeOptions{}); !s.ok()) {
    std::fprintf(stderr, "encode failed: %s\n", s.ToString().c_str());
    std::abort();
  }
  EmitColumnStats("conviva", conviva);
  BenchQuery("conviva_count",
             "SELECT COUNT(*) FROM sessions WHERE country = 'country_3'", conviva,
             reps);
  BenchQuery("conviva_grouped_avg",
             "SELECT city, AVG(sessiontimems) FROM sessions "
             "WHERE endedflag = 1 GROUP BY city",
             conviva, reps);
}

}  // namespace
}  // namespace blink

int main(int argc, char** argv) {
  const uint64_t rows = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 5'000'000;
  blink::Run(rows);
  return 0;
}
