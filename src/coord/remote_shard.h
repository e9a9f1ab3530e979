// Coordinator-side handle for one worker shard (docs/PROTOCOL.md "Paced
// execution", docs/ARCHITECTURE.md "Distributed scatter/gather").
//
// A RemoteShard owns a BlinkClient session with one blinkdb_server worker
// playing shard role i-of-N, and is the plan driver's PipelineSource for that
// worker's part of one scattered query (src/plan/pipeline_source.h): the
// QUERY carries round 1's grant, Grant() raises the worker's cumulative grant
// with a GRANT frame, and Await() reads the worker's frames until it pauses
// at its grant, finishes, fails, or stalls past the deadline. The handle
// keeps the worker's last combinable snapshot and the consumed-prefix
// progress behind it.
//
// Degrade, never hang: a shard that stalls, drops its connection, or answers
// ERROR after producing at least one snapshot freezes at that snapshot — a
// valid block-prefix answer, as a cancelled query's is. A frozen shard is
// complete: it is never granted again, keeps contributing its
// snapshot to every combine, and does not make the query count as stopped
// early. A shard that fails before its FIRST snapshot fails the query: its
// strata are entirely unobserved, so no unbiased combined estimate exists.
//
// The coordinator cannot see a worker's resolution boundaries, so a shard
// keeps PipelineSource's defaults: a sample with no per-shard floor
// (CanErrorStop() true, min_stop_blocks() 0); the joint guards of the stop
// policy still apply to totals across shards.
#ifndef BLINKDB_COORD_REMOTE_SHARD_H_
#define BLINKDB_COORD_REMOTE_SHARD_H_

#include <cstdint>
#include <optional>
#include <string>

#include "src/client/blink_client.h"
#include "src/plan/pipeline_source.h"
#include "src/server/protocol.h"

namespace blink {

// The coordinator's peer name: in its HELLO to every worker and in its
// front's HELLO reply.
inline constexpr char kCoordinatorName[] = "blinkdb-coord/1";

class RemoteShard final : public PipelineSource {
 public:
  RemoteShard() = default;
  RemoteShard(const RemoteShard&) = delete;
  RemoteShard& operator=(const RemoteShard&) = delete;

  // Connects and performs the HELLO handshake, validating the worker's
  // announced shard role: expect_count == 0 accepts any role; otherwise the
  // worker must announce exactly (expect_index, expect_count) — scattering
  // to a mis-sharded worker would double- or under-count strata.
  Status Connect(const std::string& host, uint16_t port, uint64_t expect_index,
                 uint64_t expect_count);

  // Sends the scattered QUERY, once per handle. round_blocks > 0 is the
  // paced form: the worker streams rounds of round_blocks and pauses at its
  // cumulative grant, which the QUERY sets to one round. 0 is a classic
  // one-shot scatter (unbounded queries) that ignores grants. Each later
  // wait for the worker's next frame gives up after `deadline_seconds`.
  Status StartQuery(uint64_t id, const std::string& sql, uint64_t round_blocks,
                    double confidence, double deadline_seconds);

  // Ends a live query: CANCEL, after which the next Await() reads the
  // worker's FINAL, frozen at its consumed prefix and bit-identical to its
  // last PARTIAL, waiting up to `deadline_seconds` per frame. No-op for a
  // complete shard.
  Status Cancel(double deadline_seconds);

  // The FINAL's report (default-constructed until the FINAL arrives).
  const ExecutionReport& final_report() const { return final_report_; }

  // PipelineSource: a grant raises the worker's cumulative grant to its
  // consumed blocks plus `blocks`; round 1's already rides the QUERY. Await
  // reads frames, keeping the snapshot of every PARTIAL, until the worker
  // pauses at its grant (never after a CANCEL) or finishes; an ERROR frame,
  // a dropped connection, a corrupt stream, or no frame within the deadline
  // (a straggler) freezes the shard.
  Status Grant(uint64_t blocks) override;
  Status Await() override;
  Result<QueryResult> Snapshot() const override;
  PipelineOutcome Outcome() const override;
  uint64_t rows_total() const override { return progress_.rows_total; }
  // Inside a drive a FINAL only ends a worker's data (or reuses a probe
  // answer), so a complete shard did not stop early.
  bool complete() const override { return finished_ || degraded_; }

 private:
  // After a fault: closes the connection (after a timeout or a mid-frame
  // drop the stream cannot be trusted to re-sync) and freezes the shard at
  // its last snapshot, or fails the query when there is none.
  Status Freeze();

  BlinkClient client_;
  uint64_t index_ = 0;
  uint64_t query_id_ = 0;
  uint64_t granted_ = 0;
  double deadline_seconds_ = 0.0;
  bool paced_ = false;
  bool pending_ = false;    // a grant or CANCEL awaits the worker's answer
  bool cancelled_ = false;  // CANCEL sent: only the FINAL ends the wait
  bool finished_ = false;
  bool degraded_ = false;  // frozen at its last snapshot after a fault
  std::optional<QueryResult> snapshot_;
  StreamProgress progress_;
  ExecutionReport final_report_;
  std::string fault_;
};

}  // namespace blink

#endif  // BLINKDB_COORD_REMOTE_SHARD_H_
