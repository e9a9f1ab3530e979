#include "src/client/blink_client.h"

#include <utility>

namespace blink {
namespace {

// Maps a wire ERROR frame onto the Status a local call would have produced.
Status StatusFromWire(const ErrorFrame& error) {
  const std::string what = error.code + ": " + error.message;
  if (error.code == wire_error::kQueryFailed ||
      error.code == wire_error::kAppendFailed) {
    return Status::InvalidArgument(what);
  }
  if (error.code == wire_error::kBusy) {
    return Status::FailedPrecondition(what);
  }
  if (error.code == wire_error::kUnsupportedProtocol) {
    return Status::FailedPrecondition(what);
  }
  return Status::Internal(what);
}

}  // namespace

Status BlinkClient::Connect(const std::string& host, uint16_t port,
                            const std::string& client_name) {
  if (connected()) {
    return Status::FailedPrecondition("already connected");
  }
  auto fd = ConnectTcp(host, port);
  if (!fd.ok()) {
    return fd.status();
  }
  fd_ = std::move(fd.value());

  HelloFrame hello;
  hello.protocol_version = kProtocolVersion;
  hello.peer = client_name;
  BLINK_RETURN_IF_ERROR(SendRaw(EncodeHello(hello)));

  auto reply = ReadOne();
  if (!reply.ok()) {
    Close();
    return reply.status();
  }
  if (reply->type == FrameType::kError) {
    const Status status = StatusFromWire(std::get<ErrorFrame>(reply->payload));
    Close();
    return status;
  }
  if (reply->type != FrameType::kHello) {
    Close();
    return Status::Internal("server answered HELLO with an unexpected frame");
  }
  server_ = std::move(std::get<HelloFrame>(reply->payload));
  return Status::Ok();
}

Result<QueryOutcome> BlinkClient::Query(const std::string& sql,
                                        PartialCallback on_partial) {
  if (!connected()) {
    return Status::FailedPrecondition("not connected");
  }
  QueryFrame query;
  query.id = next_query_id_++;
  query.sql = sql;
  active_query_id_.store(query.id);
  query_active_.store(true);
  const Status sent = SendRaw(EncodeQuery(query));
  if (!sent.ok()) {
    query_active_.store(false);
    return sent;
  }

  QueryOutcome outcome;
  for (;;) {
    auto frame = ReadOne();
    if (!frame.ok()) {
      query_active_.store(false);
      return frame.status();
    }
    switch (frame->type) {
      case FrameType::kPartial: {
        PartialFrame& partial = std::get<PartialFrame>(frame->payload);
        if (partial.id != query.id) {
          continue;  // stale frame from an earlier query on this session
        }
        ++outcome.partial_frames;
        if (on_partial) {
          on_partial(partial);
        }
        continue;
      }
      case FrameType::kFinal: {
        FinalFrame& final_frame = std::get<FinalFrame>(frame->payload);
        if (final_frame.id != query.id) {
          continue;
        }
        query_active_.store(false);
        outcome.result = std::move(final_frame.result);
        outcome.report = std::move(final_frame.report);
        return outcome;
      }
      case FrameType::kError: {
        const ErrorFrame& error = std::get<ErrorFrame>(frame->payload);
        if (error.has_id && error.id != query.id) {
          continue;
        }
        query_active_.store(false);
        return StatusFromWire(error);
      }
      default:
        // HELLO/QUERY/CANCEL never travel server→client mid-query; tolerate
        // and keep waiting rather than abandoning a running query.
        continue;
    }
  }
}

Result<AppendOutcome> BlinkClient::Append(const std::string& table,
                                          const Table& rows) {
  if (!connected()) {
    return Status::FailedPrecondition("not connected");
  }
  if (query_active_.load()) {
    // Append() reads the session stream; interleaving with Query()'s reader
    // would steal its frames.
    return Status::FailedPrecondition("a Query() is in flight on this session");
  }
  AppendFrame frame;
  frame.id = next_query_id_++;
  frame.table = table;
  const Schema& schema = rows.schema();
  frame.columns.reserve(schema.num_columns());
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    frame.columns.push_back(schema.column(c).name);
  }
  frame.rows.reserve(rows.num_rows());
  for (uint64_t r = 0; r < rows.num_rows(); ++r) {
    std::vector<Value> row;
    row.reserve(schema.num_columns());
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      row.push_back(rows.GetValue(c, r));
    }
    frame.rows.push_back(std::move(row));
  }
  const std::string payload = EncodeAppend(frame);
  if (payload.size() > kMaxFrameBytes) {
    return Status::InvalidArgument(
        "append batch exceeds the frame size limit; split it");
  }
  BLINK_RETURN_IF_ERROR(SendRaw(payload));
  for (;;) {
    auto reply = ReadOne();
    if (!reply.ok()) {
      return reply.status();
    }
    switch (reply->type) {
      case FrameType::kAppendOk: {
        const AppendOkFrame& ok = std::get<AppendOkFrame>(reply->payload);
        if (ok.id != frame.id) {
          continue;
        }
        AppendOutcome outcome;
        outcome.rows_appended = ok.rows_appended;
        outcome.version = ok.version;
        return outcome;
      }
      case FrameType::kError: {
        const ErrorFrame& error = std::get<ErrorFrame>(reply->payload);
        if (error.has_id && error.id != frame.id) {
          continue;
        }
        return StatusFromWire(error);
      }
      default:
        continue;  // stale frame from an earlier query on this session
    }
  }
}

Status BlinkClient::CancelActive() {
  if (!connected()) {
    return Status::FailedPrecondition("not connected");
  }
  if (!query_active_.load()) {
    return Status::Ok();  // nothing in flight; the benign race is documented
  }
  CancelFrame cancel;
  cancel.id = active_query_id_.load();
  return SendRaw(EncodeCancel(cancel));
}

void BlinkClient::Close() {
  query_active_.store(false);
  fd_.Close();
}

Status BlinkClient::SendRaw(std::string_view payload) {
  std::lock_guard<std::mutex> lock(write_mu_);
  if (!fd_.valid()) {
    return Status::FailedPrecondition("not connected");
  }
  return WriteFrame(fd_.get(), payload);
}

Status BlinkClient::SetReadTimeout(double seconds) {
  return SetRecvTimeout(fd_.get(), seconds);
}

Result<Frame> BlinkClient::ReadOne() {
  auto payload = ReadFrame(fd_.get());
  if (!payload.ok()) {
    return payload.status();
  }
  if (!payload->has_value()) {
    return Status::Internal("server closed the connection");
  }
  return DecodeFrame(**payload);
}

}  // namespace blink
