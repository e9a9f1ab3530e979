#include "perfbench/wire.h"

#include <chrono>
#include <variant>

namespace perfbench {
namespace {

// A query that produces no frame for this long counts as a timeout.
constexpr double kReceiveTimeoutS = 30.0;

}  // namespace

double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

blink::Status WireConn::Connect(uint16_t port) {
  auto fd = blink::ConnectTcp("127.0.0.1", port);
  if (!fd.ok()) {
    return fd.status();
  }
  fd_ = std::move(fd.value());
  BLINK_RETURN_IF_ERROR(blink::SetRecvTimeout(fd_.get(), kReceiveTimeoutS));
  blink::HelloFrame hello;
  hello.peer = "perfbench/1";
  BLINK_RETURN_IF_ERROR(blink::WriteFrame(fd_.get(), blink::EncodeHello(hello)));
  auto payload = blink::ReadFrame(fd_.get());
  if (!payload.ok() || !payload->has_value()) {
    fd_.Close();
    return blink::Status::Internal("no HELLO reply");
  }
  auto frame = blink::DecodeFrame(**payload);
  if (!frame.ok() || frame->type != blink::FrameType::kHello) {
    fd_.Close();
    return blink::Status::Internal("server answered HELLO with another frame");
  }
  return blink::Status::Ok();
}

Reply WireConn::Query(const std::string& sql) {
  Reply reply;
  blink::QueryFrame query;
  query.id = next_id_++;
  query.sql = sql;
  reply.sent = Now();
  if (!blink::WriteFrame(fd_.get(), blink::EncodeQuery(query)).ok()) {
    fd_.Close();
    reply.error = "TRANSPORT";
    return reply;
  }
  for (;;) {
    auto payload = blink::ReadFrame(fd_.get());
    const double arrived = Now();
    if (!payload.ok() || !payload->has_value()) {
      reply.error = payload.ok() || payload.status().code() != blink::StatusCode::kDeadlineExceeded
                        ? "TRANSPORT"
                        : "TIMEOUT";
      reply.message = payload.ok() ? "connection closed" : payload.status().ToString();
      fd_.Close();
      return reply;
    }
    auto frame = blink::DecodeFrame(**payload);
    const double decoded = Now();
    if (!frame.ok()) {
      reply.error = "TRANSPORT";
      reply.message = frame.status().ToString();
      fd_.Close();
      return reply;
    }
    switch (frame->type) {
      case blink::FrameType::kPartial:
        if (std::get<blink::PartialFrame>(frame->payload).id == query.id) {
          ++reply.partials;
          if (reply.first == 0.0) {
            reply.first = arrived;
          }
        }
        continue;
      case blink::FrameType::kFinal: {
        auto& final_frame = std::get<blink::FinalFrame>(frame->payload);
        if (final_frame.id != query.id) {
          continue;
        }
        if (reply.first == 0.0) {
          reply.first = arrived;
        }
        reply.final = std::move(final_frame);
        reply.final_bytes = (*payload)->size();
        reply.decode_s = decoded - arrived;
        reply.done = decoded;
        return reply;
      }
      case blink::FrameType::kError: {
        const auto& error = std::get<blink::ErrorFrame>(frame->payload);
        if (error.has_id && error.id != query.id) {
          continue;
        }
        reply.error = error.code;
        reply.message = error.message;
        reply.done = decoded;
        return reply;
      }
      default:
        continue;
    }
  }
}

std::string WireConn::Append(const std::string& payload, uint64_t id) {
  if (!blink::WriteFrame(fd_.get(), payload).ok()) {
    fd_.Close();
    return "TRANSPORT";
  }
  for (;;) {
    auto bytes = blink::ReadFrame(fd_.get());
    if (!bytes.ok() || !bytes->has_value()) {
      fd_.Close();
      return bytes.ok() ? "TRANSPORT: connection closed" : bytes.status().ToString();
    }
    auto frame = blink::DecodeFrame(**bytes);
    if (!frame.ok()) {
      fd_.Close();
      return "TRANSPORT: " + frame.status().ToString();
    }
    if (frame->type == blink::FrameType::kAppendOk &&
        std::get<blink::AppendOkFrame>(frame->payload).id == id) {
      return "";
    }
    if (frame->type == blink::FrameType::kError) {
      const auto& error = std::get<blink::ErrorFrame>(frame->payload);
      if (!error.has_id || error.id == id) {
        return error.code + ": " + error.message;
      }
    }
  }
}

}  // namespace perfbench
