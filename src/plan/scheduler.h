// Error-attribution-driven scheduling of plan pipelines.
//
// The plan driver (src/plan/query_plan.h) consumes blocks in rounds; this
// module decides, each round, which pipelines advance and by how many blocks.
// Two modes:
//
//  - kUniform reproduces the fixed round-robin the driver always used: every
//    incomplete pipeline advances its round share each round, in index order.
//  - kAdaptive exploits the structure of the joint §4.1.2 union error: the
//    combined answer's worst cell has variance equal to a sum of per-pipeline
//    contributions (COUNT/SUM variances add; AVG recombines through
//    value*count), so blocks granted to a pipeline whose contribution is
//    already small barely move the joint error. Past a fairness floor, the
//    scheduler awards each round's batch to the single pipeline whose
//    attributed contribution to the dominating cell — discounted by the
//    marginal shrink the batch can still buy, contribution * grant /
//    (consumed + grant), since a pipeline's variance contracts like
//    1/consumed — is largest. Greedily equalizing these marginal scores
//    converges to the Neyman-style allocation (consumed_i proportional to the
//    contribution scale), which uniform round-robin cannot reach.
//
// Determinism: every decision is a pure function of the pipelines'
// consumed-prefix snapshots (themselves pure functions of prefix lengths) and
// fixed configuration — never of wall clock or thread timing. Ties break
// toward the lowest pipeline index. Under a never-stop policy the schedule
// cannot affect the answer at all: every pipeline consumes everything and the
// final combine sees identical snapshots in either mode.
//
// Fairness floor: before any adaptive award, every incomplete pipeline must
// clear the stop policy's guards on its own — min_blocks consumed, min_matched
// rows matched, and past its smallest-resolution boundary (CanErrorStop) — so
// attribution is computed from statistically meaningful snapshots and no
// pipeline is starved into a noise-dominated estimate. Until the floor clears,
// rounds stay uniform.
//
// Block-budget pool: a WITHIN n SECONDS plan carries one pool of blocks (what
// the time window affords the plan as a whole), whatever its pipeline count
// and schedule mode. Grants drain the pool — round-robin under kUniform,
// toward the worst contributor under kAdaptive — so the two modes differ in
// which pipeline gets blocks, never in how many the budget spends. Sample
// pipelines that have not yet reached their smallest-resolution boundary may
// overdraw the pool, but only up to that boundary (the smallest resolution
// is the minimum statistically meaningful answer), never a whole batch past
// it. Exact pipelines neither charge nor respect the pool — a prefix of an
// unshuffled table is not a sample, so an exact scan always runs to
// completion.
#ifndef BLINKDB_PLAN_SCHEDULER_H_
#define BLINKDB_PLAN_SCHEDULER_H_

#include <cstdint>
#include <vector>

#include "src/exec/executor.h"
#include "src/plan/pipeline_source.h"
#include "src/plan/union_combiner.h"
#include "src/stats/stopping.h"

namespace blink {

enum class ScheduleMode { kUniform, kAdaptive };

const char* ScheduleModeName(ScheduleMode mode);

// Per-pipeline UNNORMALIZED variance contributions to the dominating cell of
// the combined answer: finds the (group, aggregate) cell whose error
// dominates MaxEstimateError over `combined`, then attributes that cell's
// variance across `parts` via the combiner's recombination rule
// (UnionCombiner::CellContribution). Pipelines whose snapshot lacks the
// dominating group contribute 0. Returns an all-zero vector when no cell
// dominates (every error is zero). `parts` must be the per-pipeline snapshots
// `combined` was combined from, in pipeline order.
std::vector<double> AttributeJointError(const UnionCombiner& combiner,
                                        const QueryResult& combined,
                                        const std::vector<const QueryResult*>& parts,
                                        bool relative, double confidence);

// One pipeline's grant for the coming round.
struct ScheduleGrant {
  size_t pipeline = 0;
  uint64_t blocks = 0;
};

class PipelineScheduler {
 public:
  // `combiner` may be null (single-pipeline plans have none); adaptive mode
  // degenerates to uniform without one. `budget_pool` of 0 means no pool.
  // `round_shares[i]` is pipeline i's fixed per-round block share.
  PipelineScheduler(ScheduleMode mode, const UnionCombiner* combiner,
                    const StopPolicy& policy, uint64_t budget_pool,
                    std::vector<uint64_t> round_shares);

  // Grants for the next round — a pure function of the pipelines' current
  // consumed-prefix state plus, for adaptive awards, the previous round's
  // combined answer and per-pipeline snapshots (null on the first round,
  // which is always uniform). Returns an empty vector when nothing can
  // advance: every pipeline complete, or the pool is dry and every sample
  // pipeline is past its floor.
  std::vector<ScheduleGrant> NextRound(const std::vector<PipelineSource*>& pipes,
                                       const QueryResult* combined,
                                       const std::vector<const QueryResult*>* parts);

  // Driver callback after advancing a granted pipeline: charges the consumed
  // delta against the pool (sample pipelines only) and tallies the round.
  void OnAdvanced(size_t pipeline, uint64_t consumed_delta, bool exact);

  // True when no further grant is possible even though pipelines remain
  // incomplete: the pool is dry, and every incomplete pipeline is a sample
  // past its smallest-resolution floor. The driver returns (a budget stop)
  // instead of idling.
  bool Stalled(const std::vector<PipelineSource*>& pipes) const;

  bool pooled() const { return pool_ > 0; }
  uint64_t pool_remaining() const { return spent_ >= pool_ ? 0 : pool_ - spent_; }
  // Rounds in which pipeline i received (and consumed) a nonzero grant.
  uint64_t rounds(size_t pipeline) const { return rounds_[pipeline]; }

 private:
  // The fairness floor: a pipeline is seeded once its own snapshot clears the
  // policy guards (or it has nothing left to scan).
  bool Seeded(const PipelineSource& pipe) const;
  std::vector<ScheduleGrant> UniformRound(
      const std::vector<PipelineSource*>& pipes) const;

  ScheduleMode mode_;
  const UnionCombiner* combiner_;
  StopPolicy policy_;
  uint64_t pool_ = 0;
  uint64_t spent_ = 0;
  std::vector<uint64_t> shares_;
  std::vector<uint64_t> rounds_;
};

}  // namespace blink

#endif  // BLINKDB_PLAN_SCHEDULER_H_
