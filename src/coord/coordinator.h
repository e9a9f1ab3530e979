// Distributed scatter/gather coordinator (docs/ARCHITECTURE.md "Distributed
// scatter/gather").
//
// A table is split into N stratified shards by deterministic row striping
// (src/workload/demo_db.h): each worker holds shard i of N and builds its own
// sample families on its slice, so every worker's block prefix is a valid
// stratified sample of its rows. The coordinator is a planner over the one
// plan driver (DriveSources, src/plan/query_plan.h): it scatters one
// bounds-stripped query to all N workers over the wire protocol's
// paced-execution extension (docs/PROTOCOL.md "Paced execution") and drives
// one RemoteShard source per worker. The driver folds the per-shard snapshots
// into one combined estimate with the same §4.3 recombination the
// in-process union plan uses (COUNT/SUM add values and variances, AVG
// recombines through value·count via UnionCombiner), applies the JOINT
// stopping rule to the combined answer — the cross-machine generalization of
// the §4.1.2 joint stop — and awards grants with the adaptive pipeline
// scheduler: uniform rounds until every shard clears the fairness floor,
// then each round to the shard with the largest marginal error score.
//
// Degrade, never hang: a shard that misses its round deadline, drops its
// connection, or answers ERROR after producing at least one snapshot is
// frozen at its last consumed prefix and keeps contributing that snapshot
// (src/coord/remote_shard.h). The query completes with a wider confidence
// interval and per-shard attribution (PipelineOutcome::degraded) instead of
// blocking. Only a shard that dies before its FIRST snapshot fails the
// query: its strata are entirely unobserved, so no unbiased combined
// estimate exists.
#ifndef BLINKDB_COORD_COORDINATOR_H_
#define BLINKDB_COORD_COORDINATOR_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/coord/remote_shard.h"
#include "src/runtime/query_runtime.h"

namespace blink {

struct ShardAddress {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

struct CoordinatorOptions {
  // Worker addresses, in shard order: workers[i] must announce shard i of
  // workers.size() in its HELLO (validated at connect).
  std::vector<ShardAddress> workers;
  // Blocks per scheduling round — the grant quantum, and the worker's
  // streamed round cadence (QUERY round_blocks). Must match the selfcheck
  // reference's batch override for bit-identical prefixes.
  uint64_t round_blocks = 4;
  // A shard that produces no frame for this long within a round is a
  // straggler: frozen at its last snapshot, never waited on again.
  double round_deadline_seconds = 5.0;
  // Deadline for one-shot (unbounded) scatters and the final CANCEL→FINAL
  // gather, which cover a whole execution rather than one round.
  double final_deadline_seconds = 30.0;
};

// The SQL the coordinator scatters to every worker for `stmt`: bounds
// stripped (the coordinator owns the joint stopping decision) plus the hidden
// helper COUNT(*) the AVG recombination needs, rendered with bit-faithful
// literals. Coordinator::Execute and the --selfcheck reference
// (src/coord/selfcheck.h) both call it, so the reference re-parses exactly
// the text the workers saw.
std::string ScatterSql(const SelectStatement& stmt);

class Coordinator {
 public:
  explicit Coordinator(CoordinatorOptions options) : options_(std::move(options)) {}

  // Scatters `sql` to every worker and gathers the combined answer. Error
  // bounds drive paced rounds with joint stopping; unbounded queries scatter
  // one-shot. Time bounds, quantile aggregates, and HAVING are not
  // recombinable across shards and return kUnimplemented. `progress`, when
  // set, fires after every gathered round with the combined partial answer,
  // the last round as the one final_batch event. `cancel`, when non-null, is
  // checked at round boundaries; once true the scatter finalizes early
  // exactly like a joint stop, with ExecutionReport::cancelled set. Shards
  // scan at the same time, so each of the report's modeled latencies is the
  // maximum over the shards' FINAL reports. Connections are per-query:
  // Execute connects, runs, and closes, so a degraded worker never poisons
  // the next query.
  Result<ApproxAnswer> Execute(const std::string& sql,
                               ProgressCallback progress = {},
                               const std::atomic<bool>* cancel = nullptr);

  // Table names announced by worker 0 (for protocol-front introspection).
  Result<std::vector<std::string>> FetchTables();

  const CoordinatorOptions& options() const { return options_; }

 private:
  CoordinatorOptions options_;
  uint64_t next_query_id_ = 1;
};

}  // namespace blink

#endif  // BLINKDB_COORD_COORDINATOR_H_
