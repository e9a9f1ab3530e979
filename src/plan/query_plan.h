// Unified physical query plans.
//
// Every query the runtime answers becomes a QueryPlan: a set of scan
// pipelines plus a combination rule. A conjunctive query is a 1-pipeline plan
// over its chosen dataset, a §4.1.2 disjunctive query is an N-pipeline plan
// with one pipeline per DNF disjunct bound to its best-covering sample, and
// the EXACT fallback is a 1-pipeline plan over the base table. One driver —
// ExecutePlan, whose round loop is DriveSources — runs every plan: it
// interleaves block batches across pipelines in scheduler-decided rounds
// (src/plan/scheduler.h: a fixed round-robin, or error-attributed adaptive
// awards), folds per-pipeline snapshots through the union combiner, and
// applies the StopPolicy to the *joint* worst-case error of the combined
// answer, so an ERROR WITHIN disjunctive query stops the moment the union
// estimate meets the bound and a WITHIN n SECONDS query stops when its block
// budget — per-pipeline caps, or one shared pool the scheduler drains
// adaptively — is spent. The loop drives PipelineSources
// (src/plan/pipeline_source.h): a plan's own ScanPipelines, or the remote
// shards of a distributed query, whose coordinator (src/coord/coordinator.h)
// is a planner over the same loop.
//
// Determinism: granted pipelines advance in index order, each consumes its
// own blocks in prefix order, and combination happens only on finished
// snapshots — so the answer is a pure function of the per-pipeline consumed
// prefix lengths, and the schedule itself is a pure function of those
// prefixes' snapshots. With the never-stop policy every pipeline consumes
// everything and the plan reproduces the one-shot answer bit-identically for
// any thread count, morsel size, batch size, pipeline interleave, and
// schedule mode.
#ifndef BLINKDB_PLAN_QUERY_PLAN_H_
#define BLINKDB_PLAN_QUERY_PLAN_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/exec/executor.h"
#include "src/exec/incremental.h"
#include "src/plan/pipeline_source.h"
#include "src/plan/scan_pipeline.h"
#include "src/plan/scheduler.h"
#include "src/plan/union_combiner.h"
#include "src/stats/stopping.h"
#include "src/util/status.h"

namespace blink {

// A physical plan: what to scan (one spec per pipeline) and how to combine.
struct QueryPlan {
  std::vector<PipelineSpec> pipelines;
  // Union combination rule; required when pipelines.size() > 1 (a 1-pipeline
  // plan passes its only snapshot through untouched, bit-identical to the
  // plain executor).
  std::optional<UnionCombiner> combiner;
};

struct PlanOptions {
  ExecutionOptions exec;
  // Blocks each pipeline consumes per round-robin turn (the joint
  // stopping-rule cadence). 0 = each pipeline runs as one batch — the
  // one-shot fast path when the policy never stops and no callback is set.
  uint32_t batch_blocks = 0;
  // Joint stopping rule, evaluated on the combined answer after every round.
  // Its error guards (min_blocks / min_matched) read totals across all
  // pipelines. StopPolicy::max_blocks is a JOINT cap: it folds into
  // budget_pool (the tighter of the two wins), never silently dropped.
  // Default-constructed, the plan never stops early.
  StopPolicy policy;
  // Invoked after every round with the combined partial answer.
  ProgressCallback progress;
  // How rounds are awarded across pipelines (src/plan/scheduler.h).
  // kUniform reproduces the fixed round-robin block-consumption trace
  // exactly; kAdaptive awards rounds to the pipeline dominating the joint
  // error once every pipeline clears the fairness floor. Single-pipeline
  // plans (and plans that can never stop early) degenerate to uniform.
  ScheduleMode schedule = ScheduleMode::kUniform;
  // Shared block-budget pool across the plan's sample pipelines (a WITHIN n
  // SECONDS bound); 0 = none. Grants drain the pool until it is dry, with
  // every sample pipeline floored at its smallest-resolution boundary and
  // exact pipelines always running to completion. Complements (and folds
  // with) per-pipeline PipelineSpec::max_blocks caps.
  uint64_t budget_pool = 0;
  // Cooperative cancellation hook. When non-null, the driver checks the flag
  // at every round boundary; once it reads true, no further blocks are
  // scanned and the plan returns the combined partial answer over the
  // consumed prefixes with PlanResult::cancelled set — exactly the shape of
  // an early stop, so §4.4 accounting downstream charges only consumed
  // blocks. Granularity is one round (batch_blocks per granted pipeline);
  // plans driven as a single maximal batch (never-stop, no progress) are not
  // interruptible mid-scan. The flag is only read, never cleared.
  const std::atomic<bool>* cancel = nullptr;
  // Export each pipeline's consumed-prefix state into PlanResult::states on
  // return, for the cross-query answer cache. Off by default: exporting
  // copies the running accumulators once per pipeline.
  bool export_state = false;
};

struct PlanResult {
  QueryResult result;  // the combined answer
  std::vector<PipelineOutcome> pipelines;
  uint64_t blocks_consumed = 0;  // totals across pipelines
  uint64_t blocks_total = 0;
  uint64_t rows_consumed = 0;
  bool stopped_early = false;  // some pipeline returned before its last block
  bool bound_met = false;      // the error target was met at return
  // PlanOptions::cancel fired: the drive was abandoned at a round boundary
  // and `result` is the partial answer over the consumed prefixes.
  bool cancelled = false;
  // Worst error of `result` at the policy confidence (max over
  // groups/aggregates), computed whenever a stop was possible.
  double achieved_error = 0.0;
  // One entry per pipeline when PlanOptions::export_state was set (empty
  // otherwise); null entries for pipelines with nothing to export
  // (precomputed / exact — see ScanPipeline::ExportState).
  std::vector<std::shared_ptr<const PipelineSnapshot>> states;
};

// Drives `plan` to completion (or to a joint stop): builds one ScanPipeline
// per spec, sizes each pipeline's round share from its block count and the
// thread fan-out, runs DriveSources over them, and exports their states when
// PlanOptions::export_state asks.
Result<PlanResult> ExecutePlan(const QueryPlan& plan, const PlanOptions& options);

// The plan driver's round loop over already-built sources, in-process scans
// and remote shards alike: each round the scheduler grants blocks, every
// grant goes out before any source is awaited, and the snapshots are cached,
// combined, evaluated against the joint policy, attributed, and reported to
// PlanOptions::progress (the last round as the one final_batch event).
// `combiner` may be null only for a single source, whose snapshot then
// passes through untouched. `round_shares[i]` is source i's blocks per
// granted round. PlanOptions::exec, batch_blocks and export_state belong to
// ExecutePlan and are ignored here.
Result<PlanResult> DriveSources(const std::vector<PipelineSource*>& sources,
                                const UnionCombiner* combiner,
                                const PlanOptions& options,
                                std::vector<uint64_t> round_shares);

}  // namespace blink

#endif  // BLINKDB_PLAN_QUERY_PLAN_H_
