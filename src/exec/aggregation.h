// Internal scan→filter→join→aggregate pipeline shared by the one-shot
// executor (src/exec/executor.cc), the row-at-a-time scalar reference, and
// the plan driver's scan pipelines (src/plan/scan_pipeline.cc). Everything here
// operates on per-block sufficient statistics — per-(group, aggregate,
// stratum) cells of (matched, Σx, Σx²) — which add over any partition of the
// scan, so partials can be folded batch-by-batch without touching the §4.3
// estimator math.
//
// Not part of the public executor API: include only from src/exec/ code and
// tests that exercise pipeline internals.
#ifndef BLINKDB_EXEC_AGGREGATION_H_
#define BLINKDB_EXEC_AGGREGATION_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/exec/dataset.h"
#include "src/exec/executor.h"
#include "src/exec/morsel.h"
#include "src/exec/predicate.h"
#include "src/sql/analyzer.h"
#include "src/sql/ast.h"
#include "src/storage/encoded_table.h"
#include "src/storage/table.h"
#include "src/util/status.h"

namespace blink {
namespace exec_internal {

// Per-(group, aggregate, stratum) running sums.
struct StratumCell {
  double matched = 0.0;
  double sum = 0.0;
  double sum_sq = 0.0;
};

// Per-(group, aggregate) accumulator. Cells are indexed by stratum id, which
// fixes a canonical stratum order for finalization: both the scalar and the
// morsel path sum strata ascending by id. Stratum 0 (the only stratum for
// exact tables and uniform samples) lives inline so the common case costs no
// allocation per (morsel, group, aggregate).
struct AggAccum {
  // For COUNT/SUM/AVG: per-stratum cells; an untouched cell has matched == 0.
  StratumCell cell0;                // stratum 0
  std::vector<StratumCell> higher;  // stratum s >= 1 at higher[s - 1]
  // For QUANTILE: (value, fact row) reservoir (unbounded at our scales). The
  // row index — not the weight — is recorded so finalization can weight each
  // entry by the counts of the scan that actually ran: the full dataset for a
  // complete scan, the consumed prefix for an early-stopped one.
  std::vector<std::pair<double, uint64_t>> values;

  StratumCell& CellFor(uint32_t stratum) {
    if (stratum == 0) {
      return cell0;
    }
    if (stratum > higher.size()) {
      higher.resize(stratum);
    }
    return higher[stratum - 1];
  }
  uint32_t num_strata() const { return static_cast<uint32_t>(higher.size()) + 1; }
  const StratumCell& cell(uint32_t stratum) const {
    return stratum == 0 ? cell0 : higher[stratum - 1];
  }
};

struct GroupState {
  // Fact (and dim) row that first produced this group. Group values are
  // materialized from it at finalize time, so per-morsel partials never copy
  // Values around.
  uint64_t first_row = 0;
  uint64_t first_dim_row = 0;
  std::vector<AggAccum> aggs;
};

using GroupMap = std::unordered_map<std::vector<int64_t>, GroupState, KeyHash>;

// Resolved aggregate argument.
struct BoundAgg {
  AggExpr agg;
  ColumnRef arg;  // unused when count_star
};

// Everything resolved once per query, shared by the scalar and morsel paths.
struct BoundQuery {
  const Table* table = nullptr;
  const Table* dim = nullptr;
  // Compressed block storage of the fact table, or null to scan raw columns.
  // Set by BindQuery when the table carries a current encoding; callers may
  // null it to force the raw path (ExecutionOptions::compressed_scan=false).
  // Either way the morsel path reads ColumnSpans, so answers are bit-identical.
  const EncodedTable* encoded = nullptr;
  // Fact columns the block path touches (predicate leaves, group columns,
  // aggregate arguments, join key), sorted unique — the columns ProcessMorsel
  // prepares spans for, and the columns charged to bytes_scanned/decoded.
  std::vector<size_t> fact_cols;
  // Parallel to fact_cols: nonzero when the scan reads the column ONLY
  // through the predicate (never gathers it for grouping, aggregation, or
  // the join key). Such columns may be served as encoded views
  // (SpanEncoding::kDictIndex / kRleRuns) instead of decoded rows.
  std::vector<uint8_t> fact_col_filter_only;
  // Master switch for those views. ScanPipeline clears it when
  // ExecutionOptions::filter_encoded_views is off (the forced-decode
  // differential arm); answers are bit-identical either way.
  bool use_encoded_views = true;
  std::vector<ColumnRef> group_cols;
  std::vector<std::string> group_names;
  std::vector<BoundAgg> aggs;
  std::vector<std::string> agg_names;
  std::optional<CompiledPredicate> where;
  // Equi-join: dim key (as the fact table's cell key) -> dim row.
  std::unordered_map<int64_t, uint64_t> join_index;
  std::optional<size_t> join_fact_col;
};

Result<BoundQuery> BindQuery(const SelectStatement& stmt, const Dataset& fact,
                             const Table* dim);

// Partial aggregation state of one morsel. Partials are merged in morsel
// index order, which fixes the floating-point summation order independent of
// the thread count or schedule.
struct MorselPartial {
  GroupMap groups;
  uint64_t rows_matched = 0;
  // Logical bytes this block's scan materialized: rows × width summed over
  // the touched columns that were served decoded (raw spans included).
  // Columns served as encoded views charge nothing — the whole point of the
  // filter-only fast path is that their rows never exist.
  double bytes_decoded = 0.0;
  // Rows of the block per stratum — all scanned rows, not just matches —
  // filled only when the caller asked ProcessMorsel to count them. Folded
  // into the running prefix counts n_h(prefix) that make a stopped block
  // prefix a valid stratified sample.
  std::vector<double> stratum_scanned;
};

// Reusable per-worker buffers: selection vector, join side-arrays, per-column
// gather targets, and the compressed-block decode state. All of it persists
// across the worker's morsels, so the steady-state scan allocates nothing.
struct WorkerScratch {
  std::vector<uint32_t> sel;
  std::vector<uint64_t> dim_rows;
  std::vector<int64_t> join_keys;
  std::vector<int64_t> key;
  std::vector<std::vector<int64_t>> group_keys;  // one buffer per group column
  std::vector<std::vector<double>> agg_values;   // one buffer per aggregate
  PredicateScratch predicate;                    // OR-union buffers
  std::vector<ColumnSpan> spans;  // per fact column, rebased every morsel
  DecodeScratch decode;           // compressed-block scratch buffers
  size_t group_hint = 0;  // groups seen in the previous morsel (reserve hint)
};

// Scans one block into `out`. When `count_scanned` is set, also tallies the
// block's rows per stratum into out.stratum_scanned.
void ProcessMorsel(const BoundQuery& bq, const Dataset& fact, const Morsel& m,
                   WorkerScratch& s, MorselPartial& out, bool count_scanned);

// Merges morsel partials into `groups` strictly in morsel index order. When
// `scanned_per_stratum` is non-null, per-block scanned-row tallies accumulate
// into it (resized as needed).
void MergePartials(std::vector<MorselPartial>& partials, size_t num_aggs,
                   GroupMap& groups, ScanStats& stats,
                   std::vector<double>* scanned_per_stratum);

// Turns finished accumulators into the result: estimates per group (strata
// summed ascending by id), HAVING, and the deterministic group sort. When
// `prefix_sampled_rows` is non-null the scan covered only a prefix of the
// dataset; per-stratum sampled-row counts (and quantile weights) then come
// from the prefix tallies instead of the dataset's full-scan counts, which is
// what keeps the §4.3 estimators unbiased on an early-stopped prefix.
// Read-only: the incremental executor finalizes per-batch snapshots off the
// same running accumulators it keeps folding into.
Result<QueryResult> Finalize(const SelectStatement& stmt, const Dataset& fact,
                             const BoundQuery& bq, const GroupMap& groups,
                             ScanStats stats,
                             const std::vector<double>* prefix_sampled_rows);

}  // namespace exec_internal
}  // namespace blink

#endif  // BLINKDB_EXEC_AGGREGATION_H_
