// One pipeline of a physical query plan: the incremental scan state of a
// single conjunctive subquery bound to the dataset the planner chose for it
// (a sample resolution or the exact base table).
//
// A pipeline is the §4.1.2 unit of execution: a disjunctive query becomes one
// pipeline per DNF disjunct, a conjunctive query is a 1-pipeline plan. It is
// the in-process PipelineSource (src/plan/pipeline_source.h): the plan driver
// (src/plan/query_plan.h) advances pipelines batch-by-batch in deterministic
// rounds, and Grant() scans its blocks before it returns. Each pipeline
// consumes its own blocks in prefix order and folds per-block partials
// strictly in block-index order, so a pipeline's running accumulators — and
// therefore any snapshot taken from them — depend only on how many blocks it
// has consumed, never on the thread count, the schedule, or how its batches
// interleave with other pipelines'.
#ifndef BLINKDB_PLAN_SCAN_PIPELINE_H_
#define BLINKDB_PLAN_SCAN_PIPELINE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/exec/aggregation.h"
#include "src/exec/dataset.h"
#include "src/exec/executor.h"
#include "src/plan/pipeline_source.h"
#include "src/sql/ast.h"
#include "src/util/status.h"

namespace blink {

// The consumed-prefix state of one pipeline, exported for cross-query reuse
// (the answer cache, generalizing §4.4 reuse across queries). Because the
// running accumulators depend only on the consumed block count — never on
// threads or schedule — restoring a snapshot and advancing is bit-identical
// to a cold scan that consumed the same prefix. Plain values, freely
// copyable; shared immutably via shared_ptr once exported.
struct PipelineSnapshot {
  uint64_t consumed = 0;       // blocks of the prefix the state covers
  uint64_t rows_consumed = 0;  // rows of that prefix (reuse accounting)
  uint64_t rows_total = 0;     // dataset rows when taken (decomposition guard)
  uint32_t morsel_rows = 0;    // requested morsel size (decomposition guard)
  bool track_prefix = false;   // whether prefix_scanned tallies were kept
  exec_internal::GroupMap groups;
  ScanStats stats;
  std::vector<double> prefix_scanned;  // n_h(prefix) per stratum
  double bytes_scanned = 0.0;  // storage bytes the prefix read
  double bytes_decoded = 0.0;  // logical bytes the prefix materialized
};

// What one pipeline scans and how far it is allowed to go.
struct PipelineSpec {
  // Conjunctive sub-statement (the union path appends a helper COUNT(*) for
  // AVG recombination before constructing the spec).
  SelectStatement stmt;
  Dataset dataset;
  const Table* dim = nullptr;
  // Hard cap on blocks this pipeline may consume (a time bound's per-pipeline
  // block budget); 0 = none. Init floors it at the smallest-resolution
  // boundary and clears it for exact datasets (which never stop early).
  uint64_t max_blocks = 0;
  // §4.4 probe reuse: when set, the pipeline is born complete with this
  // answer (the planner's escalated probe already scanned exactly this
  // dataset) — the driver never advances it and snapshots return the value.
  std::optional<QueryResult> precomputed;
  // Cross-query resume: when set, Init seeds the pipeline with this
  // consumed-prefix state instead of starting at block 0, and the scan
  // streams on from there. The snapshot must have been exported from a
  // pipeline over the same dataset decomposition (same rows, same morsel
  // size); Init rejects mismatches. Mutually exclusive with `precomputed`
  // and with exact datasets.
  std::shared_ptr<const PipelineSnapshot> resume;
};

class ScanPipeline final : public PipelineSource {
 public:
  ScanPipeline() = default;
  ScanPipeline(const ScanPipeline&) = delete;
  ScanPipeline& operator=(const ScanPipeline&) = delete;

  // Binds the spec's statement against its dataset and plans the block
  // decomposition. `may_stop_early` tells the pipeline whether any stop
  // (error or budget) can end its scan before the last block: only then are
  // per-stratum prefix counts n_h(prefix) tallied, which is what makes a
  // stopped prefix finalize as a valid stratified sample.
  Status Init(PipelineSpec spec, const ExecutionOptions& exec, bool may_stop_early);

  // Scans up to `blocks` further blocks (clamped to the budget and the plan)
  // in parallel and folds their partials into the running accumulators in
  // block-index order. No-op once complete.
  void Advance(uint64_t blocks);
  Status Grant(uint64_t blocks) override {
    Advance(blocks);
    return Status::Ok();
  }

  // Finalizes the running accumulators over the consumed prefix. Complete
  // scans finalize against the dataset's own counts (bit-identical to the
  // one-shot executor by construction); stopped prefixes finalize against the
  // tallied n_h(prefix).
  Result<QueryResult> Snapshot() const override;
  PipelineOutcome Outcome() const override;

  // Exports the consumed-prefix state for cross-query reuse via
  // PipelineSpec::resume. Null for precomputed (§4.4 probe reuse carries its
  // own answer) and exact pipelines (prefixes of unshuffled tables are not
  // resumable samples). The returned state is an independent copy.
  std::shared_ptr<const PipelineSnapshot> ExportState() const;

  // The scan has nothing left to do: every block consumed, the block budget
  // exhausted, or a precomputed (§4.4) answer stands in for the scan.
  bool complete() const override {
    return precomputed() || consumed_ == blocks_total() ||
           (spec_.max_blocks > 0 && consumed_ >= spec_.max_blocks);
  }
  // The whole dataset was consumed (or its answer reused); false for budget
  // stops.
  bool exhausted() const override {
    return precomputed() || consumed_ == blocks_total();
  }
  bool precomputed() const { return spec_.precomputed.has_value(); }
  bool exact() const override { return spec_.dataset.is_exact(); }
  // A per-pipeline block budget (PipelineSpec::max_blocks; Init clears it
  // for exact datasets).
  bool capped() const override { return spec_.max_blocks > 0; }

  // An error stop may end the plan only when every pipeline's consumed prefix
  // is statistically sound: past the smallest-resolution boundary (the first
  // prefix guaranteed to hold rows of every stratum) for samples, and fully
  // consumed for exact datasets (a prefix of an unshuffled table is not a
  // random sample).
  bool CanErrorStop() const override {
    return exact() ? complete() : rows_consumed() >= min_stop_rows_;
  }

  // Blocks of the smallest-resolution floor: the shortest block prefix whose
  // rows satisfy CanErrorStop (0 when the dataset has no boundaries). A
  // shared budget pool may be overdrawn up to this floor, never past it.
  uint64_t min_stop_blocks() const override { return min_stop_blocks_; }

  uint64_t blocks_total() const { return plan_.num_blocks(); }
  uint64_t blocks_consumed() const {
    return precomputed() ? blocks_total() : consumed_;
  }
  uint64_t rows_total() const override { return spec_.dataset.NumRows(); }
  uint64_t rows_consumed() const {
    if (precomputed()) {
      return rows_total();
    }
    return consumed_ == 0 ? 0 : plan_.morsels[consumed_ - 1].end;
  }
  uint64_t rows_matched() const {
    return precomputed() ? spec_.precomputed->stats.rows_matched
                         : stats_.rows_matched;
  }

  // Storage-layer accounting over the consumed prefix, charged per whole
  // block like every other block cost. bytes_scanned is what the scan read
  // from storage (encoded bytes on compressed tables); bytes_decoded is the
  // logical bytes the scan actually materialized — equal to rows × width of
  // the touched columns on raw storage, smaller on compressed scans whose
  // filter-only columns stay encoded. Precomputed (§4.4 reuse) pipelines
  // charge nothing. Snapshot() reports the same bytes_scanned value, so
  // PARTIAL/FINAL frames and this accessor can never disagree.
  double bytes_scanned() const;
  double bytes_decoded() const;

  const PipelineSpec& spec() const { return spec_; }

 private:
  PipelineSpec spec_;
  ExecutionOptions exec_;
  exec_internal::BoundQuery bound_;
  MorselPlan plan_;
  exec_internal::GroupMap groups_;
  ScanStats stats_;
  std::vector<double> prefix_scanned_;  // consumed rows per stratum
  std::vector<exec_internal::WorkerScratch> scratches_;
  uint64_t consumed_ = 0;
  uint64_t min_stop_rows_ = 0;
  uint64_t min_stop_blocks_ = 0;
  bool track_prefix_ = false;
  double bytes_decoded_ = 0.0;  // logical bytes materialized so far
};

}  // namespace blink

#endif  // BLINKDB_PLAN_SCAN_PIPELINE_H_
