#include "src/server/session.h"

#include <sys/socket.h>

#include <utility>

namespace blink {

bool WireSession::Send(std::string_view payload) {
  std::lock_guard<std::mutex> lock(write_mu_);
  if (closing_.load() || write_failed_) {
    return false;
  }
  if (!WriteFrame(fd_.get(), payload).ok()) {
    write_failed_ = true;
    return false;
  }
  return true;
}

bool WireSession::SendError(const char* code, std::string message,
                            std::optional<uint64_t> id) {
  ErrorFrame error;
  error.has_id = id.has_value();
  error.id = id.value_or(0);
  error.code = code;
  error.message = std::move(message);
  return Send(EncodeError(error));
}

bool WireSession::SendPartial(PartialFrame& partial, uint64_t& seq) {
  partial.seq = seq + 1;
  const std::string payload = EncodePartial(partial);
  if (payload.size() > kMaxFrameBytes) {
    return true;  // an oversized partial is skipped, not a dead client
  }
  ++seq;
  return Send(payload);
}

std::string WireSession::EncodeTerminal(uint64_t id, Result<ApproxAnswer> answer) {
  ErrorFrame error;
  error.has_id = true;
  error.id = id;
  error.code = wire_error::kQueryFailed;
  if (answer.ok()) {
    FinalFrame frame;
    frame.id = id;
    frame.result = std::move(answer->result);
    frame.report = std::move(answer->report);
    std::string payload = EncodeFinal(frame);
    if (payload.size() <= kMaxFrameBytes) {
      return payload;
    }
    error.message = "result exceeds the frame size limit";
  } else {
    error.message = answer.status().ToString();
  }
  return EncodeError(error);
}

bool WireSession::OnGrant(const GrantFrame&) {
  return SendError(wire_error::kUnexpectedFrame, "GRANT frames are not served here");
}

bool WireSession::OnAppend(const AppendFrame&) {
  return SendError(wire_error::kUnexpectedFrame, "APPEND frames are not served here");
}

void WireSession::Start(const std::string* hello, double idle_read_timeout_seconds) {
  hello_ = hello;
  idle_read_timeout_seconds_ = idle_read_timeout_seconds;
  reader_ = std::thread([this] { Serve(); });
}

void WireSession::Stop() {
  closing_.store(true);
  {
    // Serve()'s exit tail closes the fd under the same lock; never
    // shutdown() a descriptor another thread may be closing.
    std::lock_guard<std::mutex> lock(write_mu_);
    if (fd_.valid()) {
      ::shutdown(fd_.get(), SHUT_RDWR);
    }
  }
  if (reader_.joinable()) {
    reader_.join();
  }
}

void WireSession::Serve() {
  // Idle-timeout the reader: SO_RCVTIMEO bounds every blocked recv, and a
  // timeout that fires while the session has no work in flight closes it; a
  // half-open client must not pin this thread forever.
  if (idle_read_timeout_seconds_ > 0) {
    SetRecvTimeout(fd_.get(), idle_read_timeout_seconds_);
  }
  for (;;) {
    auto frame_bytes = ReadFrame(fd_.get());
    if (!frame_bytes.ok() &&
        frame_bytes.status().code() == StatusCode::kDeadlineExceeded) {
      if (Busy()) {
        continue;  // quiet client waiting on its FINAL: re-arm and keep reading
      }
      break;  // idle past the deadline: close the session
    }
    if (!frame_bytes.ok() || !frame_bytes->has_value()) {
      break;  // EOF, peer reset, or an unsynchronizable framing error
    }
    auto frame = DecodeFrame(**frame_bytes);
    if (!frame.ok()) {
      // Framing is length-prefixed, so the stream is still in sync: report
      // and keep serving this session.
      const char* code = frame.status().code() == StatusCode::kUnimplemented
                             ? wire_error::kUnknownType
                             : wire_error::kMalformedFrame;
      if (!SendError(code, frame.status().message())) {
        break;
      }
      continue;
    }
    if (!Dispatch(*frame)) {
      break;
    }
  }
  // Reader gone: no more CANCELs can arrive. Stop the in-flight work so its
  // threads free up promptly, let it write its terminal frames, then release
  // the socket right away: a finished session must not hold its fd until the
  // next accept happens to reap it (EMFILE under connect/disconnect churn).
  Drain();
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    write_failed_ = true;  // no writer may touch the closed descriptor
    if (fd_.valid()) {
      ::shutdown(fd_.get(), SHUT_RDWR);
    }
    fd_.Close();
  }
  finished_.store(true);
}

bool WireSession::Dispatch(const Frame& frame) {
  switch (frame.type) {
    case FrameType::kHello:
      return OnHello(std::get<HelloFrame>(frame.payload));
    case FrameType::kQuery: {
      const auto& query = std::get<QueryFrame>(frame.payload);
      return greeted_ ? OnQuery(query)
                      : SendError(wire_error::kHandshakeRequired,
                                  "send HELLO before QUERY", query.id);
    }
    case FrameType::kAppend: {
      const auto& append = std::get<AppendFrame>(frame.payload);
      return greeted_ ? OnAppend(append)
                      : SendError(wire_error::kHandshakeRequired,
                                  "send HELLO before APPEND", append.id);
    }
    case FrameType::kCancel:
      return OnCancel(std::get<CancelFrame>(frame.payload));
    case FrameType::kGrant:
      return OnGrant(std::get<GrantFrame>(frame.payload));
    case FrameType::kPartial:
    case FrameType::kFinal:
    case FrameType::kError:
    case FrameType::kAppendOk:
      return SendError(wire_error::kUnexpectedFrame,
                       std::string(FrameTypeName(frame.type)) +
                           " frames are server-to-client only");
  }
  return false;
}

bool WireSession::OnHello(const HelloFrame& hello) {
  if (greeted_) {
    // A repeated HELLO is survivable regardless of its contents
    // (docs/PROTOCOL.md §3.1): never close an established session over it.
    return SendError(wire_error::kUnexpectedFrame,
                     "HELLO already exchanged on this session");
  }
  if (hello.protocol_version != kProtocolVersion) {
    SendError(wire_error::kUnsupportedProtocol,
              "server speaks protocol_version " + std::to_string(kProtocolVersion) +
                  ", client sent " + std::to_string(hello.protocol_version));
    return false;  // incompatible peer: close after reporting
  }
  greeted_ = Send(*hello_);
  return greeted_;
}

Status WireServer::Start(const std::string& host, uint16_t port, const HelloFrame& hello,
                         double idle_read_timeout_seconds, SessionFactory factory) {
  if (running_.load()) {
    return Status::FailedPrecondition("server already started");
  }
  auto listener = ListenTcp(host, port, &port_);
  if (!listener.ok()) {
    return listener.status();
  }
  listener_ = std::move(*listener);
  hello_ = EncodeHello(hello);
  idle_read_timeout_seconds_ = idle_read_timeout_seconds;
  factory_ = std::move(factory);
  running_.store(true);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void WireServer::Stop() {
  if (!running_.exchange(false)) {
    return;
  }
  // Unblock accept() and join the acceptor BEFORE closing the descriptor:
  // AcceptLoop reads listener_ until it exits, and close() would also free
  // the fd slot for reuse while accept() still references it.
  ::shutdown(listener_.get(), SHUT_RDWR);
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  listener_.Close();
  std::vector<std::unique_ptr<WireSession>> sessions;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    sessions.swap(sessions_);
  }
  for (auto& session : sessions) {
    session->Stop();
  }
}

void WireServer::AcceptLoop() {
  for (;;) {
    auto fd = AcceptTcp(listener_.get(), running_);
    if (!fd.ok()) {
      return;  // Stop() shut the listener down
    }
    auto session = factory_(std::move(*fd), ++last_session_id_);
    session->Start(&hello_, idle_read_timeout_seconds_);
    std::lock_guard<std::mutex> lock(sessions_mu_);
    // Reap sessions whose reader already exited, so a long-lived server does
    // not accumulate dead connections (Stop() joins the finished reader).
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      if ((*it)->finished()) {
        (*it)->Stop();
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
    sessions_.push_back(std::move(session));
  }
}

}  // namespace blink
