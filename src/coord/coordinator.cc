#include "src/coord/coordinator.h"

#include <algorithm>
#include <utility>

#include "src/client/blink_client.h"
#include "src/coord/sql_render.h"
#include "src/plan/query_plan.h"
#include "src/plan/union_combiner.h"
#include "src/sql/parser.h"

namespace blink {

Result<std::vector<std::string>> Coordinator::FetchTables() {
  if (options_.workers.empty()) {
    return Status::InvalidArgument("coordinator has no workers configured");
  }
  BlinkClient worker;
  BLINK_RETURN_IF_ERROR(worker.Connect(options_.workers[0].host,
                                       options_.workers[0].port, kCoordinatorName));
  return worker.server().tables;
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
  std::vector<PipelineSource*> sources;
  for (size_t i = 0; i < n; ++i) {
    Status s = shards[i].Connect(options_.workers[i].host, options_.workers[i].port,
                                 i, n);
    if (!s.ok()) {
      return Status::Internal("shard " + std::to_string(i) +
                              " connect failed: " + s.ToString());
    }
    sources.push_back(&shards[i]);
  }
  const uint64_t qid = next_query_id_++;
  for (size_t i = 0; i < n; ++i) {
    Status s = shards[i].StartQuery(
        qid, worker_sql, paced ? options_.round_blocks : 0, confidence,
        paced ? options_.round_deadline_seconds : options_.final_deadline_seconds);
    if (!s.ok()) {
      return Status::Internal("shard " + std::to_string(i) +
                              " scatter failed: " + s.ToString());
    }
  }

  // The in-process joint stopping rule, its guards totalled across shards,
  // and the adaptive scheduler's awards. Every shard's round share is one
  // round of the worker's cadence.
  PlanOptions plan;
  plan.policy = StopPolicyFor(stmt->bounds);
  plan.progress = std::move(progress);
  plan.schedule = ScheduleMode::kAdaptive;
  plan.cancel = cancel;
  auto run = DriveSources(sources, &combiner, plan,
                          std::vector<uint64_t>(n, options_.round_blocks));
  if (!run.ok()) {
    return run.status();
  }

  // Live shards are paused at their grants: cancel them all, then gather
  // their FINALs, each bit-identical to the shard's last PARTIAL, so the
  // driver's answer stands. A shard that faults here freezes.
  for (RemoteShard& shard : shards) {
    BLINK_RETURN_IF_ERROR(shard.Cancel(options_.final_deadline_seconds));
  }
  for (RemoteShard& shard : shards) {
    BLINK_RETURN_IF_ERROR(shard.Await());
  }

  ApproxAnswer answer;
  answer.result = std::move(run->result);
  ExecutionReport& report = answer.report;
  report.family = "sharded";
  report.schedule = ScheduleMode::kAdaptive;
  report.num_subqueries = n;
  report.stopped_early = run->stopped_early;
  report.cancelled = run->cancelled;
  report.effective_error_bound = paced ? stmt->bounds.error : 0.0;
  report.achieved_error = ReportedError(answer.result, stmt->bounds, confidence);
  report.pipeline_outcomes = std::move(run->pipelines);
  for (size_t i = 0; i < n; ++i) {
    PipelineOutcome& out = report.pipeline_outcomes[i];
    out.degraded = shards[i].Outcome().degraded;
    report.blocks_consumed += out.blocks_consumed;
    report.blocks_read += out.blocks_consumed;
    report.rows_read += out.rows_consumed;
    report.bytes_scanned += out.bytes_scanned;
    report.bytes_decoded += out.bytes_decoded;
    // Shards scan at the same time, so each modeled latency is the slowest
    // shard's. A shard frozen without a FINAL reports zeros.
    const ExecutionReport& shard = shards[i].final_report();
    report.execution_latency =
        std::max(report.execution_latency, shard.execution_latency);
    report.probe_latency = std::max(report.probe_latency, shard.probe_latency);
    report.total_latency = std::max(report.total_latency, shard.total_latency);
  }
  return answer;
}

}  // namespace blink
