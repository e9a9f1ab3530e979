// The aggregation executor: scans a Dataset (exact table or sample), applies
// the WHERE predicate and optional equi-join, groups rows, and produces
// unbiased estimates with closed-form error bounds for every aggregate
// (§4.3 of the paper; Table 2 estimators).
//
// Execution is morsel-driven and vectorized: the scan range is carved into
// blocks aligned to the sample-prefix boundaries (src/exec/morsel.h), each
// block is filtered through selection-vector predicate evaluation, and
// per-block partial accumulators (stratum cells) are merged in block-index
// order. The merge order makes results bit-identical across thread counts
// and schedules; a row-at-a-time reference path is kept for differential
// testing.
//
// ExecuteQuery is a 1-pipeline plan driven with a never-stop rule: the plan
// driver (src/plan/query_plan.h) is the single implementation, and bounded
// queries drive it directly to stop the scan as soon as the error bound is
// met.
#ifndef BLINKDB_EXEC_EXECUTOR_H_
#define BLINKDB_EXEC_EXECUTOR_H_

#include <string>
#include <vector>

#include "src/exec/dataset.h"
#include "src/exec/morsel.h"
#include "src/sql/ast.h"
#include "src/stats/estimators.h"
#include "src/storage/table.h"
#include "src/util/status.h"

namespace blink {

class ThreadPool;

// One output row: the group key values plus one estimate per aggregate item.
struct ResultRow {
  std::vector<Value> group_values;
  std::vector<Estimate> aggregates;
};

// The one group order: lexicographic over group values. A strict weak order
// whose equivalence is the executor's group identity (Table::CellKey): ints
// and strings compare by value, doubles by bit pattern — so -0.0 and 0.0 are
// two groups, as are NaNs of different payloads — ordered as IEEE-754
// totalOrder, which is < on every ordinary value. Values of different types
// order int, double, string. Result rows come out sorted by it, and the
// union combiner merges groups under it.
bool GroupValueLess(const std::vector<Value>& a, const std::vector<Value>& b);

// Scan-volume accounting, consumed by the cluster latency model. Volume is
// tracked both in rows and in blocks: the latency model and the §4.4
// intermediate-reuse logic charge whole blocks.
struct ScanStats {
  uint64_t rows_scanned = 0;
  uint64_t rows_matched = 0;
  uint64_t blocks_scanned = 0;  // morsels in the scan decomposition
  uint32_t block_rows = 0;      // target morsel size the scan used
  double bytes_scanned = 0.0;
};

// A complete query answer.
struct QueryResult {
  std::vector<std::string> group_names;
  std::vector<std::string> aggregate_names;
  std::vector<ResultRow> rows;
  ScanStats stats;
  double confidence = 0.95;  // confidence used when rendering error columns

  // Pretty-printed table with +/- error annotations.
  std::string ToString() const;
};

// Flattens every group's aggregates of `result` into one vector — the input
// MaxEstimateError and StopPolicy::Evaluate consume.
std::vector<Estimate> FlattenEstimates(const QueryResult& result);

// Scan-engine knobs for one execution.
struct ExecutionOptions {
  // Target morsel size in rows; carving additionally cuts at sample-prefix
  // boundaries.
  uint32_t morsel_rows = kDefaultMorselRows;
  // The morsel fan-out: a scan runs one worker per pool thread. Null
  // processes blocks inline on the caller's thread (still vectorized);
  // results are identical for every width. Must not be the pool of an
  // enclosing ParallelFor/Wait (the executor waits for its workers).
  ThreadPool* pool = nullptr;
  // Scan compressed block storage (src/storage/encoded_table.h) when the
  // fact table carries it; false forces raw column scans. Answers are
  // bit-identical either way — this is purely a storage-path switch.
  bool compressed_scan = true;
  // On compressed scans, serve filter-only columns as encoded views (dict
  // indices / RLE runs) that the predicate evaluates without decoding; false
  // forces the decode-into-scratch path for them. Like compressed_scan this
  // is a pure storage-path switch — answers and block traces are
  // bit-identical either way — kept as a differential-test arm.
  bool filter_encoded_views = true;
};

// Executes `stmt` against `fact` (optionally joining `dim`, which must be an
// exact in-memory table per §2.1) on the morsel-driven vectorized engine.
// Both conjunctive and disjunctive WHERE clauses are supported here.
Result<QueryResult> ExecuteQuery(const SelectStatement& stmt, const Dataset& fact,
                                 const Table* dim, const ExecutionOptions& options);
Result<QueryResult> ExecuteQuery(const SelectStatement& stmt, const Dataset& fact,
                                 const Table* dim = nullptr);

// Row-at-a-time reference implementation (the original serial path). Kept for
// differential tests and the scan-throughput benchmark baseline; agrees with
// the morsel engine up to floating-point summation order.
Result<QueryResult> ExecuteQueryScalar(const SelectStatement& stmt, const Dataset& fact,
                                       const Table* dim = nullptr);

}  // namespace blink

#endif  // BLINKDB_EXEC_EXECUTOR_H_
