#include "src/plan/query_plan.h"

#include <algorithm>
#include <memory>
#include <utility>

namespace blink {
namespace {

// What may end a plan early and what its drive must materialize, from the
// options and the kinds of the plan's parts. ExecutePlan needs these before
// it builds its pipelines (prefix tallies, round shares); DriveSources
// derives the same from the built sources.
struct DriveRules {
  StopPolicy policy;  // PlanOptions::policy with max_blocks folded into `pool`
  uint64_t pool = 0;
  bool error_stopping = false;
  bool may_stop_early = false;
  bool adaptive = false;
  bool needs_partials = false;
};

DriveRules RulesFor(const PlanOptions& options, size_t parts, bool combined,
                    bool any_sample, bool any_capped) {
  DriveRules rules;
  rules.policy = options.policy;
  rules.pool = options.budget_pool;
  if (rules.policy.max_blocks > 0) {
    // StopPolicy::max_blocks is a joint cap across pipelines: fold it into
    // the shared pool (the tighter budget wins) instead of dropping it.
    rules.pool = rules.pool == 0 ? rules.policy.max_blocks
                                 : std::min(rules.pool, rules.policy.max_blocks);
    rules.policy.max_blocks = 0;
  }
  // An error stop is only meaningful when some pipeline scans a sample; a
  // plan made purely of exact scans (the EXACT fallback) never stops early.
  const bool any_budget = any_capped || (rules.pool > 0 && any_sample);
  rules.error_stopping = rules.policy.target_error > 0.0 && any_sample;
  // Stops the driver itself may take (error bound met, budget spent) versus
  // an externally requested cancel. Both can end a scan on a partial prefix,
  // so both require the per-stratum prefix tallies that make a stopped
  // prefix finalize as a valid stratified sample.
  const bool stop_rules = rules.error_stopping || any_budget;
  rules.may_stop_early = stop_rules || options.cancel != nullptr;
  // Adaptive awards only matter when there is more than one pipeline to
  // choose between and some stop can actually end the plan early; a merely
  // cancellable plan keeps the uniform round-robin (cancellation should not
  // perturb the schedule of a plan that would otherwise run to completion).
  rules.adaptive = options.schedule == ScheduleMode::kAdaptive && parts > 1 &&
                   combined && stop_rules;
  // Combined partial answers must be materialized between rounds for the
  // joint error rule, for progress callbacks, and for adaptive attribution;
  // bare uniform budgets only need the final snapshots, so they skip the
  // per-round re-finalization entirely.
  rules.needs_partials =
      rules.error_stopping || options.progress != nullptr || rules.adaptive;
  return rules;
}

// Aggregate progress over the whole plan (all sources).
StreamProgress ProgressOver(const std::vector<PipelineSource*>& sources,
                            const StopPolicy::Decision& decision, bool final_batch) {
  StreamProgress p;
  for (const PipelineSource* source : sources) {
    const PipelineOutcome outcome = source->Outcome();
    p.blocks_consumed += outcome.blocks_consumed;
    p.blocks_total += outcome.blocks_total;
    p.rows_consumed += outcome.rows_consumed;
    p.rows_total += source->rows_total();
    p.bytes_scanned += outcome.bytes_scanned;
    p.bytes_decoded += outcome.bytes_decoded;
  }
  p.achieved_error = decision.achieved_error;
  p.bound_met = decision.bound_met;
  p.final_batch = final_batch;
  return p;
}

}  // namespace

Result<PlanResult> ExecutePlan(const QueryPlan& plan, const PlanOptions& options) {
  bool any_sample = false;
  bool any_capped = false;
  for (const auto& spec : plan.pipelines) {
    any_sample = any_sample || !spec.dataset.is_exact();
    any_capped = any_capped || (!spec.dataset.is_exact() && spec.max_blocks > 0);
  }
  const DriveRules rules = RulesFor(options, plan.pipelines.size(),
                                    plan.combiner.has_value(), any_sample, any_capped);

  std::vector<std::unique_ptr<ScanPipeline>> pipes;
  std::vector<PipelineSource*> sources;
  pipes.reserve(plan.pipelines.size());
  for (const auto& spec : plan.pipelines) {
    auto pipe = std::make_unique<ScanPipeline>();
    BLINK_RETURN_IF_ERROR(pipe->Init(spec, options.exec, rules.may_stop_early));
    sources.push_back(pipe.get());
    pipes.push_back(std::move(pipe));
  }

  // Per-pipeline round share: at least one batch's worth of work per worker
  // so every round saturates the thread fan-out. 0 (or no partials needed)
  // drives each pipeline in one maximal batch — a pool still clamps such a
  // grant to exactly the remaining budget (floored at the smallest
  // resolution), so bounded rounds are never needed just to meet a budget.
  std::vector<uint64_t> shares;
  shares.reserve(pipes.size());
  for (const auto& pipe : pipes) {
    if (!rules.needs_partials || options.batch_blocks == 0) {
      shares.push_back(pipe->blocks_total());
      continue;
    }
    const uint64_t workers = std::max<uint64_t>(
        1, std::min<uint64_t>(options.exec.num_threads, pipe->blocks_total()));
    shares.push_back(std::max<uint64_t>(options.batch_blocks, workers));
  }
  auto run = DriveSources(sources, plan.combiner.has_value() ? &*plan.combiner : nullptr,
                          options, std::move(shares));
  if (run.ok() && options.export_state) {
    for (const auto& pipe : pipes) {
      run->states.push_back(pipe->ExportState());
    }
  }
  return run;
}

Result<PlanResult> DriveSources(const std::vector<PipelineSource*>& sources,
                                const UnionCombiner* combiner,
                                const PlanOptions& options,
                                std::vector<uint64_t> round_shares) {
  if (sources.empty()) {
    return Status::InvalidArgument("plan has no pipelines");
  }
  if (sources.size() > 1 && combiner == nullptr) {
    return Status::InvalidArgument("multi-pipeline plan has no union combiner");
  }
  const size_t n = sources.size();
  bool any_sample = false;
  bool any_capped = false;
  for (const PipelineSource* source : sources) {
    any_sample = any_sample || !source->exact();
    any_capped = any_capped || source->capped();
  }
  const DriveRules rules =
      RulesFor(options, n, combiner != nullptr, any_sample, any_capped);
  const StopPolicy& policy = rules.policy;
  PipelineScheduler scheduler(rules.adaptive ? ScheduleMode::kAdaptive
                                             : ScheduleMode::kUniform,
                              combiner, policy, rules.pool, std::move(round_shares));

  // Each source's consumed blocks as of the last round, so the scheduler is
  // charged exactly what a round consumed.
  std::vector<uint64_t> consumed(n);
  for (size_t i = 0; i < n; ++i) {
    consumed[i] = sources[i]->Outcome().blocks_consumed;
  }

  // A source's snapshot is a pure function of its consumed prefix, so
  // snapshots are cached keyed on the consumed block count: each round only
  // the sources the scheduler actually advanced re-finalize (an adaptive
  // round advances one), and completed sources are combined by reference
  // forever after, never re-copied.
  std::vector<std::optional<QueryResult>> cached(n);
  std::vector<uint64_t> cached_consumed(n, UINT64_MAX);
  auto snapshot_all = [&]() -> Result<std::vector<const QueryResult*>> {
    std::vector<const QueryResult*> parts;
    parts.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      if (!cached[i].has_value() || cached_consumed[i] != consumed[i]) {
        auto snap = sources[i]->Snapshot();
        if (!snap.ok()) {
          return snap.status();
        }
        cached[i] = std::move(snap.value());
        cached_consumed[i] = consumed[i];
      }
      parts.push_back(&*cached[i]);
    }
    return parts;
  };
  // The combined answer of the current round. A 1-source plan without a
  // combiner hands its only snapshot through untouched; moving out of the
  // cache is safe because the entry is invalidated, so any later round
  // re-finalizes it.
  auto combine = [&](const std::vector<const QueryResult*>& parts) {
    if (combiner != nullptr) {
      return combiner->Combine(parts, policy.confidence);
    }
    QueryResult out = std::move(*cached.front());
    cached.front().reset();
    return out;
  };
  // Normalized per-source shares of the joint error, for PipelineOutcome.
  auto contributions_over = [&](const QueryResult& combined,
                                const std::vector<const QueryResult*>& parts) {
    std::vector<double> shares_of_error(n, 0.0);
    if (combiner == nullptr || !rules.may_stop_early) {
      return shares_of_error;
    }
    shares_of_error = AttributeJointError(*combiner, combined, parts, policy.relative,
                                          policy.confidence);
    double total = 0.0;
    for (double c : shares_of_error) {
      total += c;
    }
    if (total > 0.0) {
      for (double& c : shares_of_error) {
        c /= total;
      }
    }
    return shares_of_error;
  };

  // Set once PlanOptions::cancel reads true at a round boundary; the round
  // that observes it advances nothing and returns the consumed-prefix answer.
  bool cancel_seen = false;

  auto finish = [&](QueryResult result, const StopPolicy::Decision& decision,
                    bool evaluated, const std::vector<double>& contributions) {
    PlanResult out;
    out.result = std::move(result);
    out.cancelled = cancel_seen;
    out.pipelines.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      PipelineOutcome stats = sources[i]->Outcome();
      stats.scheduled_rounds = scheduler.rounds(i);
      stats.error_contribution = i < contributions.size() ? contributions[i] : 0.0;
      out.pipelines.push_back(stats);
      out.blocks_consumed += stats.blocks_consumed;
      out.blocks_total += stats.blocks_total;
      out.rows_consumed += stats.rows_consumed;
      out.stopped_early = out.stopped_early || !sources[i]->exhausted();
    }
    if (evaluated) {
      out.bound_met = decision.bound_met;
      out.achieved_error = decision.achieved_error;
    } else if (rules.may_stop_early) {
      out.achieved_error = MaxEstimateError(FlattenEstimates(out.result),
                                            policy.relative, policy.confidence);
    }
    return out;
  };

  // Previous round's combined answer and snapshots, the scheduler's
  // attribution input. `parts` points into `cached` entries, which only
  // snapshot_all() overwrites (in place) — except the single-source
  // combine() move-out, a path on which `parts` is never read again.
  QueryResult combined;
  std::vector<const QueryResult*> parts;
  bool have_combined = false;
  for (;;) {
    // Cancellation is observed only here, at the round boundary: a fired flag
    // grants nothing this round, so the plan returns the partial answer over
    // exactly the blocks consumed so far (the §4.4 charge downstream).
    cancel_seen = cancel_seen ||
                  (options.cancel != nullptr &&
                   options.cancel->load(std::memory_order_relaxed));
    // One round: the scheduler decides who advances (uniform: every
    // unfinished source in index order; adaptive past the fairness floor:
    // the worst joint-error contributor). The interleave is a pure function
    // of the round shares, the sources' block counts, and the consumed-prefix
    // snapshots — never of thread scheduling.
    const std::vector<ScheduleGrant> grants =
        cancel_seen ? std::vector<ScheduleGrant>{}
                    : scheduler.NextRound(sources, have_combined ? &combined : nullptr,
                                          have_combined ? &parts : nullptr);
    // Every grant of the round goes out before any source is awaited, so
    // remote sources granted together scan at the same time. Awaiting every
    // source also collects work granted outside this round (a shard's first
    // round rides its QUERY); it returns at once for a source with nothing
    // outstanding.
    for (const ScheduleGrant& grant : grants) {
      BLINK_RETURN_IF_ERROR(sources[grant.pipeline]->Grant(grant.blocks));
    }
    bool all_complete = true;
    uint64_t total_consumed = 0;
    double total_matched = 0.0;
    for (size_t i = 0; i < n; ++i) {
      PipelineSource& source = *sources[i];
      BLINK_RETURN_IF_ERROR(source.Await());
      const PipelineOutcome outcome = source.Outcome();
      scheduler.OnAdvanced(i, outcome.blocks_consumed - consumed[i], source.exact());
      consumed[i] = outcome.blocks_consumed;
      all_complete = all_complete && source.complete();
      total_consumed += outcome.blocks_consumed;
      total_matched += static_cast<double>(outcome.rows_matched);
    }
    const bool advanced = !grants.empty();
    // A dry pool stalls the plan: no sample source may draw further blocks
    // and every one is past its smallest-resolution floor — a budget stop.
    const bool stalled = scheduler.Stalled(sources);

    if (!rules.needs_partials) {
      if (advanced && !all_complete && !stalled) {
        continue;
      }
      auto snaps = snapshot_all();
      if (!snaps.ok()) {
        return snaps.status();
      }
      return finish(combine(*snaps), StopPolicy::Decision{}, /*evaluated=*/false,
                    {});
    }

    // Materialize the combined partial answer over every source's consumed
    // prefix and evaluate the joint stopping rule on it.
    auto snaps = snapshot_all();
    if (!snaps.ok()) {
      return snaps.status();
    }
    parts = std::move(snaps.value());
    combined = combine(parts);
    have_combined = true;
    const StopPolicy::Decision decision =
        policy.Evaluate(FlattenEstimates(combined), total_consumed, total_matched);
    // The joint stop guard: every source's prefix must be statistically
    // sound (past its smallest-resolution boundary; exact pipelines must have
    // run to completion) before the union bound may end the plan.
    bool can_stop = rules.error_stopping;
    for (const PipelineSource* source : sources) {
      can_stop = can_stop && source->CanErrorStop();
    }
    const bool error_stop = decision.stop && can_stop;
    const bool returning = all_complete || error_stop || stalled || !advanced;

    if (options.progress) {
      options.progress(combined, ProgressOver(sources, decision, returning));
    }
    if (returning) {
      const std::vector<double> contributions = contributions_over(combined, parts);
      return finish(std::move(combined), decision, /*evaluated=*/true, contributions);
    }
  }
}

}  // namespace blink
