#include "src/coord/coordinator.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "src/coord/sql_render.h"
#include "src/plan/scheduler.h"
#include "src/plan/union_combiner.h"
#include "src/sql/parser.h"
#include "src/stats/stopping.h"

namespace blink {
namespace {

// Per-shard gather state layered over the RemoteShard handle.
struct ShardState {
  bool live = true;       // still advancing (not finished, failed, or frozen)
  bool degraded = false;  // frozen at its last snapshot after a fault/stall
  uint64_t rounds = 0;    // rounds this shard was pumped in
};

// A shard's dataset size in blocks: live shards report it in every PARTIAL;
// a shard that finished without streaming (precomputed probe answer) only
// reveals it through its FINAL report.
uint64_t ShardBlocksTotal(const RemoteShard& shard) {
  if (shard.progress().blocks_total > 0) {
    return shard.progress().blocks_total;
  }
  uint64_t total = 0;
  for (const auto& outcome : shard.final_report().pipeline_outcomes) {
    total += outcome.blocks_total;
  }
  return total > 0 ? total : shard.final_report().blocks_read;
}

}  // namespace

Result<std::vector<std::string>> Coordinator::FetchTables() {
  if (options_.workers.empty()) {
    return Status::InvalidArgument("coordinator has no workers configured");
  }
  RemoteShard shard;
  BLINK_RETURN_IF_ERROR(shard.Connect(options_.workers[0].host,
                                      options_.workers[0].port, 0,
                                      options_.workers.size()));
  return shard.hello().tables;
}

Result<ApproxAnswer> Coordinator::Execute(const std::string& sql,
                                          ProgressCallback progress,
                                          const std::atomic<bool>* cancel) {
  const size_t n = options_.workers.size();
  if (n == 0) {
    return Status::InvalidArgument("coordinator has no workers configured");
  }
  auto stmt = ParseSelect(sql);
  if (!stmt.ok()) {
    return stmt.status();
  }
  for (const auto& item : stmt->items) {
    if (item.is_aggregate && item.agg.func == AggFunc::kQuantile) {
      return Status::Unimplemented(
          "quantile aggregates are not recombinable across shards");
    }
  }
  if (stmt->having.has_value()) {
    return Status::Unimplemented(
        "HAVING filters groups on partial per-shard answers; not supported "
        "in distributed execution");
  }
  if (stmt->bounds.kind == QueryBounds::Kind::kTime) {
    return Status::Unimplemented(
        "time bounds are not supported in distributed execution (the "
        "coordinator cannot apportion one latency budget across shards)");
  }
  const bool paced = stmt->bounds.kind == QueryBounds::Kind::kError;
  const double confidence = ConfidenceFor(stmt->bounds);

  // The scattered worker statement: bounds stripped (the coordinator owns
  // the joint stopping decision) plus the hidden helper COUNT(*) the AVG
  // recombination needs, rendered with bit-faithful literals.
  UnionCombiner combiner(*stmt);
  SelectStatement worker_stmt = *stmt;
  worker_stmt.bounds = QueryBounds{};
  combiner.PrepareSubquery(worker_stmt);
  const std::string worker_sql = RenderSelect(worker_stmt);

  std::vector<RemoteShard> shards(n);
  for (size_t i = 0; i < n; ++i) {
    Status s = shards[i].Connect(options_.workers[i].host, options_.workers[i].port,
                                 i, n);
    if (!s.ok()) {
      return Status::Internal("shard " + std::to_string(i) +
                              " connect failed: " + s.ToString());
    }
  }
  const uint64_t qid = next_query_id_++;
  for (size_t i = 0; i < n; ++i) {
    Status s = shards[i].StartQuery(qid, worker_sql,
                                    paced ? options_.round_blocks : 0,
                                    paced ? options_.round_blocks : 0, confidence);
    if (!s.ok()) {
      return Status::Internal("shard " + std::to_string(i) +
                              " scatter failed: " + s.ToString());
    }
  }

  std::vector<ShardState> st(n);
  // The in-process joint stopping rule, its guards totalled across shards.
  const StopPolicy policy = StopPolicyFor(stmt->bounds);

  // A fault on shard i: freeze it at its last snapshot (a valid consumed
  // prefix) when one exists, or fail the query when its strata were never
  // observed at all.
  auto degrade = [&](size_t i) -> Status {
    st[i].live = false;
    if (!shards[i].snapshot().has_value()) {
      return Status::Internal("shard " + std::to_string(i) +
                              " failed before its first answer (" +
                              shards[i].fault() + "); its strata are unobserved");
    }
    st[i].degraded = true;
    return Status::Ok();
  };

  auto pump_shard = [&](size_t i, double deadline) -> Status {
    ++st[i].rounds;
    auto state = shards[i].Pump(deadline);
    if (!state.ok()) {
      return state.status();  // programming error (not connected), not a fault
    }
    switch (*state) {
      case RemoteShard::PumpState::kPaused:
        return Status::Ok();
      case RemoteShard::PumpState::kFinished:
        st[i].live = false;
        return Status::Ok();
      case RemoteShard::PumpState::kFailed:
      case RemoteShard::PumpState::kStalled:
        return degrade(i);
    }
    return Status::Ok();
  };

  const bool want_rounds = paced;
  bool stopped_early = false;
  bool cancelled = false;
  uint64_t round = 0;
  // Shards to pump this round. Round 1 pumps everyone (every worker holds
  // its initial grant); later rounds pump only the awarded shard.
  std::vector<size_t> pending(n);
  for (size_t i = 0; i < n; ++i) {
    pending[i] = i;
  }

  std::vector<const QueryResult*> parts(n, nullptr);
  auto collect_parts = [&]() {
    for (size_t i = 0; i < n; ++i) {
      parts[i] = &*shards[i].snapshot();
    }
  };
  while (true) {
    const double deadline =
        want_rounds ? options_.round_deadline_seconds : options_.final_deadline_seconds;
    for (size_t i : pending) {
      if (!st[i].live) {
        continue;
      }
      BLINK_RETURN_IF_ERROR(pump_shard(i, deadline));
    }
    ++round;
    if (options_.after_round_hook) {
      options_.after_round_hook(round);
    }
    if (!want_rounds) {
      // One-shot scatter: every shard pumped straight to its FINAL (or was
      // frozen by degrade, which for a one-shot means it never answered and
      // already failed the query above).
      break;
    }
    collect_parts();
    QueryResult combined = combiner.Combine(parts, confidence);
    StreamProgress sp;
    double matched = 0;
    for (size_t i = 0; i < n; ++i) {
      sp.blocks_consumed += shards[i].progress().blocks_consumed;
      sp.blocks_total += ShardBlocksTotal(shards[i]);
      sp.rows_consumed += shards[i].progress().rows_consumed;
      matched += static_cast<double>(shards[i].snapshot()->stats.rows_matched);
    }
    const StopPolicy::Decision decision =
        policy.Evaluate(FlattenEstimates(combined), sp.blocks_consumed, matched);
    if (progress) {
      sp.achieved_error = decision.achieved_error;
      sp.bound_met = decision.bound_met;
      progress(combined, sp);
    }
    cancelled = cancel != nullptr && cancel->load();
    const bool any_live =
        std::any_of(st.begin(), st.end(), [](const ShardState& s) { return s.live; });
    if (decision.stop || cancelled || !any_live) {
      stopped_early = (decision.stop || cancelled) && any_live;
      break;
    }
    // Award the next round to the live shard dominating the joint error —
    // the cross-machine form of the adaptive scheduler. All-zero attribution
    // (or a dominating cell no live shard contributes to) falls back to the
    // least-consumed live shard, lowest index on ties: deterministic, and it
    // keeps thin shards from starving.
    const std::vector<double> contribs = AttributeJointError(
        combiner, combined, parts, policy.relative, confidence);
    size_t target = n;
    for (size_t i = 0; i < n; ++i) {
      if (!st[i].live) {
        continue;
      }
      if (target == n ||
          (contribs[i] > contribs[target]) ||
          (contribs[i] == contribs[target] &&
           shards[i].progress().blocks_consumed <
               shards[target].progress().blocks_consumed)) {
        target = i;
      }
    }
    Status granted = shards[target].Grant(shards[target].progress().blocks_consumed +
                                          options_.round_blocks);
    if (!granted.ok()) {
      BLINK_RETURN_IF_ERROR(degrade(target));
      if (std::none_of(st.begin(), st.end(),
                       [](const ShardState& s) { return s.live; })) {
        break;
      }
      pending.clear();  // re-evaluate the award next iteration, nothing pumps
      continue;
    }
    pending.assign(1, target);
  }

  // Finalize: cancel still-live shards and gather their frozen FINALs (the
  // worker's FINAL after CANCEL is bit-identical to its last PARTIAL).
  for (size_t i = 0; i < n; ++i) {
    if (!st[i].live) {
      continue;
    }
    if (Status s = shards[i].Cancel(); !s.ok()) {
      BLINK_RETURN_IF_ERROR(degrade(i));
    }
  }
  for (size_t i = 0; i < n; ++i) {
    while (st[i].live && !shards[i].finished()) {
      BLINK_RETURN_IF_ERROR(pump_shard(i, options_.final_deadline_seconds));
    }
  }

  collect_parts();
  ApproxAnswer answer;
  answer.result = combiner.Combine(parts, confidence);
  ExecutionReport& report = answer.report;
  report.family = "sharded";
  report.schedule = ScheduleMode::kAdaptive;
  report.num_subqueries = n;
  report.stopped_early = stopped_early;
  report.cancelled = cancelled;
  report.effective_error_bound = paced ? stmt->bounds.error : 0.0;
  report.achieved_error = ReportedError(answer.result, stmt->bounds, confidence);
  const std::vector<double> contribs = AttributeJointError(
      combiner, answer.result, parts, policy.relative, confidence);
  const double contrib_sum =
      std::max(1e-300, std::accumulate(contribs.begin(), contribs.end(), 0.0));
  report.pipeline_outcomes.resize(n);
  for (size_t i = 0; i < n; ++i) {
    PipelineOutcome& out = report.pipeline_outcomes[i];
    out.blocks_total = ShardBlocksTotal(shards[i]);
    out.blocks_consumed = shards[i].progress().blocks_consumed;
    out.rows_consumed = shards[i].progress().rows_consumed;
    out.rows_matched = shards[i].snapshot()->stats.rows_matched;
    out.bytes_scanned = shards[i].progress().bytes_scanned;
    out.bytes_decoded = shards[i].progress().bytes_decoded;
    out.scheduled_rounds = st[i].rounds;
    out.degraded = st[i].degraded;
    out.error_contribution = contribs[i] / contrib_sum;
    report.blocks_consumed += out.blocks_consumed;
    report.blocks_read += out.blocks_consumed;
    report.rows_read += out.rows_consumed;
    report.bytes_scanned += out.bytes_scanned;
    report.bytes_decoded += out.bytes_decoded;
  }
  if (progress) {
    // The in-process contract: exactly one final_batch call with the answer.
    progress(answer.result, TerminalProgress(answer, stmt->bounds));
  }
  return answer;
}

}  // namespace blink
