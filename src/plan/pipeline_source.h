// The seam the plan driver (src/plan/query_plan.h) drives: one part of a
// plan that advances to block grants and reports its consumed prefix as a
// snapshot answer plus a PipelineOutcome.
//
// Two kinds implement it. A ScanPipeline (src/plan/scan_pipeline.h) scans
// its grant in-process, inside Grant(). A RemoteShard
// (src/coord/remote_shard.h) only sends the grant to its worker there and
// reads the worker's answer in Await(). The driver hands out every grant of
// a round before it awaits any source, so shards granted in the same round
// scan at the same time.
#ifndef BLINKDB_PLAN_PIPELINE_SOURCE_H_
#define BLINKDB_PLAN_PIPELINE_SOURCE_H_

#include <cstdint>

#include "src/exec/executor.h"
#include "src/util/status.h"

namespace blink {

// Per-pipeline outcome, for the runtime's §4.4/latency accounting and the
// scheduling diagnostics surfaced through ExecutionReport.
struct PipelineOutcome {
  uint64_t blocks_total = 0;
  uint64_t blocks_consumed = 0;
  uint64_t rows_consumed = 0;
  uint64_t rows_matched = 0;
  // Storage bytes the scan read (encoded bytes of the consumed blocks'
  // touched columns on compressed tables) and the logical bytes those blocks
  // decoded to. Equal on raw storage; their ratio is the realized compression
  // win. 0 for reused probes, which scan nothing.
  double bytes_scanned = 0.0;
  double bytes_decoded = 0.0;
  bool reused_probe = false;  // §4.4: nothing was scanned, the probe answered
  // Rounds in which the scheduler granted this pipeline blocks (floor rounds
  // included); 0 for precomputed pipelines, which never advance.
  uint64_t scheduled_rounds = 0;
  // This pipeline's normalized share of the joint error at return: its
  // fraction of the dominating cell's variance, attributed through the union
  // combiner's recombination rule. Shares sum to 1 across pipelines when a
  // cell dominates; all 0 for single-pipeline plans, plans that could never
  // stop, exact answers, and drives that never materialized per-round
  // partials (a bare uniform budget with no error target or progress).
  double error_contribution = 0.0;
  // Distributed execution only (src/coord/): the shard behind this pipeline
  // failed or stalled mid-query and was finalized at its last valid consumed
  // prefix, so the combined answer carries a wider CI than a fault-free run
  // would. Always false for in-process plans.
  bool degraded = false;
};

class PipelineSource {
 public:
  virtual ~PipelineSource() = default;

  // Lets the source consume up to `blocks` further blocks. A non-OK status
  // fails the plan.
  virtual Status Grant(uint64_t blocks) = 0;
  // Returns once every block granted so far is consumed, the source has
  // finished, or it froze; at once when nothing is outstanding. A non-OK
  // status fails the plan.
  virtual Status Await() { return Status::Ok(); }

  // The answer over the consumed prefix.
  virtual Result<QueryResult> Snapshot() const = 0;
  // Accounting over the consumed prefix. The driver fills in
  // scheduled_rounds and error_contribution.
  virtual PipelineOutcome Outcome() const = 0;
  // Rows of the whole dataset, for progress events; 0 when unknown.
  virtual uint64_t rows_total() const = 0;

  // Nothing is left to grant: the whole dataset was consumed, a reused
  // answer stands in for it, or the source froze at its last snapshot. A
  // plan that returns with an incomplete source stopped early.
  virtual bool complete() const = 0;

  // The defaults below describe a source that cannot see its dataset's
  // resolution boundaries (a remote shard): a sample with no per-source
  // floor, so every prefix may end an error stop.
  //
  // Scans an exact table, which never stops early and ignores budget pools.
  virtual bool exact() const { return false; }
  // The consumed prefix is sound enough for an error stop.
  virtual bool CanErrorStop() const { return true; }
  // Blocks of the smallest-resolution floor: a shared budget pool may be
  // overdrawn up to it, never past it.
  virtual uint64_t min_stop_blocks() const { return 0; }
};

}  // namespace blink

#endif  // BLINKDB_PLAN_PIPELINE_SOURCE_H_
