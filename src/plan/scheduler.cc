#include "src/plan/scheduler.h"

#include <utility>

namespace blink {

const char* ScheduleModeName(ScheduleMode mode) {
  switch (mode) {
    case ScheduleMode::kUniform:
      return "uniform";
    case ScheduleMode::kAdaptive:
      return "adaptive";
  }
  return "unknown";
}

std::vector<double> AttributeJointError(const UnionCombiner& combiner,
                                        const QueryResult& combined,
                                        const std::vector<const QueryResult*>& parts,
                                        bool relative, double confidence) {
  std::vector<double> contributions(parts.size(), 0.0);
  if (combined.rows.empty()) {
    return contributions;
  }
  // Combined rows all share the original aggregate shape, so the flattened
  // estimate index maps back to (row, aggregate) by division.
  const size_t num_aggs = combined.rows.front().aggregates.size();
  if (num_aggs == 0) {
    return contributions;
  }
  const size_t idx =
      DominatingEstimate(FlattenEstimates(combined), relative, confidence);
  if (idx >= combined.rows.size() * num_aggs) {
    return contributions;  // every error is zero: nothing dominates
  }
  const size_t agg = idx % num_aggs;
  const std::string key = UnionCombiner::GroupKey(combined.rows[idx / num_aggs]);
  for (size_t i = 0; i < parts.size(); ++i) {
    for (const auto& row : parts[i]->rows) {
      if (UnionCombiner::GroupKey(row) == key) {
        contributions[i] = combiner.CellContribution(row, agg);
        break;
      }
    }
  }
  return contributions;
}

PipelineScheduler::PipelineScheduler(ScheduleMode mode, const UnionCombiner* combiner,
                                     const StopPolicy& policy, uint64_t budget_pool,
                                     std::vector<uint64_t> round_shares)
    : mode_(mode),
      combiner_(combiner),
      policy_(policy),
      pool_(budget_pool),
      shares_(std::move(round_shares)),
      rounds_(shares_.size(), 0) {}

bool PipelineScheduler::Seeded(const PipelineSource& pipe) const {
  if (pipe.complete()) {
    return true;
  }
  const PipelineOutcome outcome = pipe.Outcome();
  return pipe.CanErrorStop() && outcome.blocks_consumed >= policy_.min_blocks &&
         static_cast<double>(outcome.rows_matched) >= policy_.min_matched;
}

std::vector<ScheduleGrant> PipelineScheduler::UniformRound(
    const std::vector<PipelineSource*>& pipes) const {
  std::vector<ScheduleGrant> grants;
  uint64_t remaining = pool_remaining();
  for (size_t i = 0; i < pipes.size(); ++i) {
    const PipelineSource& pipe = *pipes[i];
    if (pipe.complete()) {
      continue;
    }
    uint64_t grant = shares_[i];
    // Sample pipelines past their smallest-resolution floor draw from the
    // pool; below the floor a grant may overdraw it, but only up to the
    // floor itself (the budget floors there — never a whole batch past the
    // boundary). Exact scans ignore the pool.
    if (pooled() && !pipe.exact()) {
      if (pipe.CanErrorStop()) {
        grant = std::min(grant, remaining);
      } else {
        const uint64_t floor_blocks = pipe.min_stop_blocks();
        const uint64_t consumed = pipe.Outcome().blocks_consumed;
        const uint64_t to_floor = floor_blocks > consumed ? floor_blocks - consumed : 1;
        grant = std::min(grant, std::max(remaining, to_floor));
      }
      remaining -= std::min(grant, remaining);
    }
    if (grant > 0) {
      grants.push_back({i, grant});
    }
  }
  return grants;
}

std::vector<ScheduleGrant> PipelineScheduler::NextRound(
    const std::vector<PipelineSource*>& pipes, const QueryResult* combined,
    const std::vector<const QueryResult*>* parts) {
  bool any_incomplete = false;
  bool all_seeded = true;
  for (const PipelineSource* pipe : pipes) {
    any_incomplete = any_incomplete || !pipe->complete();
    all_seeded = all_seeded && Seeded(*pipe);
  }
  if (!any_incomplete) {
    return {};
  }
  const bool adaptive =
      mode_ == ScheduleMode::kAdaptive && combiner_ != nullptr && pipes.size() > 1;
  if (adaptive && all_seeded && combined != nullptr && parts != nullptr) {
    const std::vector<double> contributions = AttributeJointError(
        *combiner_, *combined, *parts, policy_.relative, policy_.confidence);
    // Award the round to the worst attributed contributor, discounted by the
    // marginal shrink a grant can still buy (variance contracts ~1/consumed).
    // Strict > breaks ties toward the lowest pipeline index.
    size_t best = pipes.size();
    double best_score = 0.0;
    for (size_t i = 0; i < pipes.size(); ++i) {
      const PipelineSource& pipe = *pipes[i];
      if (pipe.complete()) {
        continue;
      }
      const bool pool_capped = pooled() && !pipe.exact() && pipe.CanErrorStop();
      if (pool_capped && pool_remaining() == 0) {
        continue;
      }
      const double grant = static_cast<double>(shares_[i]);
      const double consumed = static_cast<double>(pipe.Outcome().blocks_consumed);
      const double score = contributions[i] * grant / (consumed + grant);
      if (score > best_score) {
        best_score = score;
        best = i;
      }
    }
    if (best < pipes.size()) {
      uint64_t grant = shares_[best];
      if (pooled() && !pipes[best]->exact() && pipes[best]->CanErrorStop()) {
        grant = std::min(grant, pool_remaining());
      }
      if (grant > 0) {
        return {{best, grant}};
      }
    }
    // No attributable contributor can advance (zero contributions, or the
    // dominating cell is fed only by complete pipelines): run uniform.
  }
  return UniformRound(pipes);
}

void PipelineScheduler::OnAdvanced(size_t pipeline, uint64_t consumed_delta,
                                   bool exact) {
  if (consumed_delta == 0) {
    return;
  }
  ++rounds_[pipeline];
  if (!exact) {
    spent_ += consumed_delta;
  }
}

bool PipelineScheduler::Stalled(const std::vector<PipelineSource*>& pipes) const {
  if (!pooled() || pool_remaining() > 0) {
    return false;
  }
  bool any_incomplete = false;
  for (const PipelineSource* pipe : pipes) {
    if (pipe->complete()) {
      continue;
    }
    if (pipe->exact() || !pipe->CanErrorStop()) {
      return false;  // still owed blocks regardless of the pool
    }
    any_incomplete = true;
  }
  return any_incomplete;
}

}  // namespace blink
