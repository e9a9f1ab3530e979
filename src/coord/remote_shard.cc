#include "src/coord/remote_shard.h"

#include <utility>

namespace blink {

Status RemoteShard::Connect(const std::string& host, uint16_t port,
                            uint64_t expect_index, uint64_t expect_count) {
  index_ = expect_index;
  BLINK_RETURN_IF_ERROR(client_.Connect(host, port, kCoordinatorName));
  const HelloFrame& hello = client_.server();
  if (expect_count > 0 &&
      (hello.shard_index != expect_index || hello.shard_count != expect_count)) {
    client_.Close();
    return Status::FailedPrecondition(
        "worker announced shard " + std::to_string(hello.shard_index) + "/" +
        std::to_string(hello.shard_count) + ", expected " +
        std::to_string(expect_index) + "/" + std::to_string(expect_count));
  }
  return Status::Ok();
}

Status RemoteShard::StartQuery(uint64_t id, const std::string& sql,
                               uint64_t round_blocks, double confidence,
                               double deadline_seconds) {
  query_id_ = id;
  granted_ = round_blocks;
  deadline_seconds_ = deadline_seconds;
  paced_ = round_blocks > 0;
  pending_ = true;  // round 1 (or the whole one-shot scan) rides the QUERY
  QueryFrame query;
  query.id = id;
  query.sql = sql;
  query.round_blocks = round_blocks;
  query.grant_blocks = round_blocks;
  query.confidence = confidence;
  return client_.SendRaw(EncodeQuery(query));
}

Status RemoteShard::Grant(uint64_t blocks) {
  const uint64_t target = progress_.blocks_consumed + blocks;
  if (!paced_ || target <= granted_) {
    return Status::Ok();  // one-shot scans ignore grants; round 1's rode the QUERY
  }
  granted_ = target;
  GrantFrame grant;
  grant.id = query_id_;
  grant.blocks = target;
  if (Status s = client_.SendRaw(EncodeGrant(grant)); !s.ok()) {
    fault_ = s.ToString();
    return Freeze();
  }
  pending_ = true;
  return Status::Ok();
}

Status RemoteShard::Cancel(double deadline_seconds) {
  if (complete()) {
    return Status::Ok();
  }
  CancelFrame cancel;
  cancel.id = query_id_;
  if (Status s = client_.SendRaw(EncodeCancel(cancel)); !s.ok()) {
    fault_ = s.ToString();
    return Freeze();
  }
  deadline_seconds_ = deadline_seconds;
  cancelled_ = true;
  pending_ = true;
  return Status::Ok();
}

Status RemoteShard::Freeze() {
  client_.Close();
  if (!snapshot_.has_value()) {
    return Status::Internal("shard " + std::to_string(index_) +
                            " failed before its first answer (" + fault_ +
                            "); its strata are unobserved");
  }
  degraded_ = true;
  return Status::Ok();
}

Result<QueryResult> RemoteShard::Snapshot() const {
  if (!snapshot_.has_value()) {
    return Status::FailedPrecondition("shard " + std::to_string(index_) +
                                      " has not answered yet");
  }
  return *snapshot_;
}

PipelineOutcome RemoteShard::Outcome() const {
  PipelineOutcome out;
  out.blocks_total = progress_.blocks_total;
  out.blocks_consumed = progress_.blocks_consumed;
  out.rows_consumed = progress_.rows_consumed;
  out.rows_matched = snapshot_.has_value() ? snapshot_->stats.rows_matched : 0;
  out.bytes_scanned = progress_.bytes_scanned;
  out.bytes_decoded = progress_.bytes_decoded;
  out.degraded = degraded_;
  return out;
}

Status RemoteShard::Await() {
  if (!pending_ || complete()) {
    return Status::Ok();
  }
  pending_ = false;
  BLINK_RETURN_IF_ERROR(client_.SetReadTimeout(deadline_seconds_));
  for (;;) {
    auto frame = client_.ReadOne();
    if (!frame.ok()) {
      // A timeout is the straggler case; a dropped connection or a corrupt
      // frame a hard failure. Each untrusts the stream.
      fault_ = frame.status().ToString();
      return Freeze();
    }
    switch (frame->type) {
      case FrameType::kPartial: {
        auto& partial = std::get<PartialFrame>(frame->payload);
        if (partial.id != query_id_) {
          continue;  // stale frame of a previous query on this connection
        }
        snapshot_ = std::move(partial.result);
        progress_ = partial.progress;
        if (progress_.blocks_consumed >= progress_.blocks_total) {
          continue;  // dataset exhausted: the FINAL is already in flight
        }
        if (paced_ && !cancelled_ && progress_.blocks_consumed >= granted_) {
          return Status::Ok();  // worker is waiting at its grant gate
        }
        continue;  // mid-grant partial (multi-pipeline rounds); keep reading
      }
      case FrameType::kFinal: {
        auto& final_frame = std::get<FinalFrame>(frame->payload);
        if (final_frame.id != query_id_) {
          continue;
        }
        snapshot_ = std::move(final_frame.result);
        final_report_ = std::move(final_frame.report);
        progress_.blocks_consumed = final_report_.blocks_consumed;
        progress_.rows_consumed = final_report_.rows_read;
        progress_.bytes_scanned = final_report_.bytes_scanned;
        progress_.bytes_decoded = final_report_.bytes_decoded;
        progress_.achieved_error = final_report_.achieved_error;
        if (progress_.blocks_total == 0) {
          // A worker that finished without streaming (a reused probe answer)
          // reveals its dataset's size only here.
          for (const auto& outcome : final_report_.pipeline_outcomes) {
            progress_.blocks_total += outcome.blocks_total;
          }
          if (progress_.blocks_total == 0) {
            progress_.blocks_total = final_report_.blocks_read;
          }
        }
        finished_ = true;
        return Status::Ok();
      }
      case FrameType::kError: {
        const auto& error = std::get<ErrorFrame>(frame->payload);
        fault_ = error.code + ": " + error.message;
        return Freeze();
      }
      default:
        // A worker never legitimately sends HELLO/QUERY/CANCEL/GRANT
        // mid-query; treat the stream as corrupt.
        fault_ = std::string("unexpected ") + FrameTypeName(frame->type) +
                 " frame from worker";
        return Freeze();
    }
  }
}

}  // namespace blink
