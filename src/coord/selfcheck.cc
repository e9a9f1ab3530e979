#include "src/coord/selfcheck.h"

#include <atomic>
#include <cstdio>

#include "src/coord/coordinator.h"
#include "src/plan/union_combiner.h"
#include "src/server/protocol.h"
#include "src/sql/parser.h"

namespace blink {
namespace {

void AppendDouble(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

}  // namespace

Result<QueryResult> RunShardedReference(const std::string& sql,
                                        const std::vector<ShardReference>& shards,
                                        const RuntimeConfig& runtime_config,
                                        uint64_t round_blocks) {
  if (shards.empty()) {
    return Status::InvalidArgument("reference needs at least one shard");
  }
  auto stmt = ParseSelect(sql);
  if (!stmt.ok()) {
    return stmt.status();
  }
  const bool paced = stmt->bounds.kind == QueryBounds::Kind::kError;
  const double confidence = ConfidenceFor(stmt->bounds);

  // Re-parse the coordinator's scatter text, the round trip the worker saw,
  // so literal bit patterns match.
  const UnionCombiner combiner(*stmt);
  auto reparsed = ParseSelect(ScatterSql(*stmt));
  if (!reparsed.ok()) {
    return Status::Internal("scatter SQL failed to re-parse: " +
                            reparsed.status().ToString());
  }
  SelectStatement shard_stmt = *reparsed;
  // The worker session's paced override, applied to the QUERY the
  // coordinator sends; the prefix cancel below is the only stop.
  QueryFrame paced_query;
  paced_query.round_blocks = round_blocks;
  paced_query.confidence = confidence;
  const uint32_t batch_override =
      paced ? PaceWorkerStatement(paced_query, shard_stmt) : 0;

  std::vector<QueryResult> snapshots;
  snapshots.reserve(shards.size());
  for (size_t i = 0; i < shards.size(); ++i) {
    const BlinkDB& db = *shards[i].db;
    auto tables = db.Resolve(shard_stmt);
    if (!tables.ok()) {
      return tables.status();
    }
    QueryRuntime runtime(&db.samples(), &db.cluster(), runtime_config);
    std::atomic<bool> cancel{false};
    const uint64_t prefix = shards[i].consumed_blocks;
    // The consumption trace is a pure function of (statement, shard state,
    // runtime config, batch size), so the distributed run and this one pass
    // through identical round boundaries — the >= cancel lands exactly on
    // the recorded prefix.
    ProgressCallback freeze = [&cancel, prefix](const QueryResult&,
                                                const StreamProgress& p) {
      if (!p.final_batch && p.blocks_consumed >= prefix) {
        cancel.store(true);
      }
    };
    auto answer = runtime.Execute(shard_stmt, tables->fact->name, tables->fact->table,
                                  tables->fact->scale_factor,
                                  tables->dim != nullptr ? &tables->dim->table : nullptr,
                                  std::move(freeze), &cancel, CacheContext{},
                                  batch_override);
    if (!answer.ok()) {
      return answer.status();
    }
    snapshots.push_back(std::move(answer->result));
  }
  return combiner.Combine(snapshots, confidence);
}

std::string ResultFingerprint(const QueryResult& result) {
  std::string out;
  for (const auto& row : result.rows) {
    for (const auto& v : row.group_values) {
      out += v.ToString();
      out += "|";
    }
    for (const auto& agg : row.aggregates) {
      AppendDouble(out, agg.value);
      out += "±";
      AppendDouble(out, agg.variance);
      out += "|";
    }
    out += "\n";
  }
  return out;
}

}  // namespace blink
