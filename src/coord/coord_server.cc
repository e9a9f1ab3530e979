#include "src/coord/coord_server.h"

#include <sys/socket.h>

#include <utility>
#include <variant>

namespace blink {

// One client connection: a reader thread that dispatches frames, plus at
// most one in-flight scattered query on its own thread (which is what lets
// the reader service CANCEL mid-scatter; the coordinator checks the flag at
// every round boundary). The reader owns the query thread: it joins it
// before starting the next query and before it exits, then closes the fd,
// so a closed session holds neither until the next accept reaps it.
struct CoordServer::Session {
  OwnedFd fd;  // closed by the reader's exit tail, under write_mu
  std::thread reader;
  std::mutex write_mu;
  bool write_failed = false;  // guarded by write_mu
  std::thread query_thread;
  std::atomic<bool> query_active{false};
  std::atomic<uint64_t> active_id{0};
  std::atomic<bool> cancel{false};
  std::atomic<bool> finished{false};
  bool greeted = false;

  ~Session() {
    cancel.store(true);
    {
      // shutdown (not close) wakes a reader blocked in recv; the reader's
      // exit tail closes the fd under the same lock.
      std::lock_guard<std::mutex> lock(write_mu);
      if (fd.valid()) {
        ::shutdown(fd.get(), SHUT_RDWR);
      }
    }
    if (reader.joinable()) {
      reader.join();
    }
  }

  // Serialized frame write; false once the peer is unreachable. A write that
  // failed (e.g. the send timeout fired partway) may have torn its frame, so
  // the failure latches: nothing is ever appended to a torn stream.
  bool Send(const std::string& payload) {
    std::lock_guard<std::mutex> lock(write_mu);
    if (!fd.valid() || write_failed) {
      return false;
    }
    if (!WriteFrame(fd.get(), payload).ok()) {
      write_failed = true;
      return false;
    }
    return true;
  }
};

CoordServer::CoordServer(CoordinatorOptions coordinator, CoordServerOptions options)
    : options_(std::move(options)), coordinator_(std::move(coordinator)) {}

CoordServer::~CoordServer() { Stop(); }

Status CoordServer::Start() {
  if (running_.load()) {
    return Status::FailedPrecondition("coord server already started");
  }
  auto tables = coordinator_.FetchTables();
  if (!tables.ok()) {
    return tables.status();
  }
  tables_ = std::move(*tables);
  auto listener = ListenTcp(options_.host, options_.port, &port_);
  if (!listener.ok()) {
    return listener.status();
  }
  listener_ = std::move(*listener);
  running_.store(true);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void CoordServer::Stop() {
  if (!running_.exchange(false)) {
    return;
  }
  if (listener_.valid()) {
    ::shutdown(listener_.get(), SHUT_RDWR);
  }
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  listener_.Close();
  std::lock_guard<std::mutex> lock(sessions_mu_);
  sessions_.clear();  // ~Session cancels, closes, and joins
}

void CoordServer::AcceptLoop() {
  for (;;) {
    auto fd = AcceptTcp(listener_.get(), running_);
    if (!fd.ok()) {
      return;  // Stop() shut the listener down
    }
    auto session = std::make_unique<Session>();
    session->fd = std::move(*fd);
    Session* raw = session.get();
    std::lock_guard<std::mutex> lock(sessions_mu_);
    // Reap sessions whose reader already exited (joins a finished thread).
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      if ((*it)->finished.load()) {
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
    session->reader = std::thread([this, raw] { ServeSession(raw); });
    sessions_.push_back(std::move(session));
  }
}

void CoordServer::ServeSession(Session* session) {
  for (;;) {
    auto payload = ReadFrame(session->fd.get());
    if (!payload.ok() || !payload->has_value()) {
      break;  // EOF, teardown, or an untrustworthy stream
    }
    auto frame = DecodeFrame(**payload);
    if (!frame.ok()) {
      ErrorFrame error;
      error.code = frame.status().code() == StatusCode::kUnimplemented
                       ? wire_error::kUnknownType
                       : wire_error::kMalformedFrame;
      error.message = frame.status().ToString();
      if (!session->Send(EncodeError(error))) {
        break;
      }
      continue;
    }
    if (!Dispatch(session, *frame)) {
      break;
    }
  }
  // Reader gone: no CANCEL can arrive anymore, so stop the in-flight query,
  // let it write its terminal frame, then release the socket now rather than
  // when the next accept happens to reap this session.
  session->cancel.store(true);
  if (session->query_thread.joinable()) {
    session->query_thread.join();
  }
  {
    std::lock_guard<std::mutex> lock(session->write_mu);
    session->fd.Close();
  }
  session->finished.store(true);
}

bool CoordServer::Dispatch(Session* session, const Frame& frame) {
  switch (frame.type) {
    case FrameType::kHello: {
      HelloFrame reply;
      reply.peer = options_.server_name;
      reply.tables = tables_;
      session->greeted = true;
      return session->Send(EncodeHello(reply));
    }
    case FrameType::kQuery: {
      const QueryFrame& query = std::get<QueryFrame>(frame.payload);
      ErrorFrame error;
      error.has_id = true;
      error.id = query.id;
      if (!session->greeted) {
        error.code = wire_error::kHandshakeRequired;
        error.message = "send HELLO before QUERY";
        session->Send(EncodeError(error));
        return true;
      }
      if (session->query_active.load()) {
        error.code = wire_error::kBusy;
        error.message = "a scattered query is already in flight on this session";
        session->Send(EncodeError(error));
        return true;
      }
      if (session->query_thread.joinable()) {
        // The previous query cleared query_active before its terminal frame;
        // joining here keeps that frame ahead of this query's first.
        session->query_thread.join();
      }
      session->cancel.store(false);
      session->active_id.store(query.id);
      session->query_active.store(true);
      session->query_thread =
          std::thread([this, session, query] { RunQuery(session, query); });
      return true;
    }
    case FrameType::kCancel: {
      const auto& cancel = std::get<CancelFrame>(frame.payload);
      if (session->query_active.load() && session->active_id.load() == cancel.id) {
        session->cancel.store(true);
      }
      return true;
    }
    default: {
      ErrorFrame error;
      error.code = wire_error::kUnexpectedFrame;
      error.message = std::string(FrameTypeName(frame.type)) +
                      " is not a client frame for a coordinator";
      return session->Send(EncodeError(error));
    }
  }
}

void CoordServer::RunQuery(Session* session, const QueryFrame& query) {
  uint64_t seq = 0;
  // Every gathered round streams as a PARTIAL, the driver's last one too:
  // the FINAL leaves only after the live shards' FINALs are gathered, and a
  // query answered in one round still streams its answer at once.
  ProgressCallback progress = [session, &query, &seq](const QueryResult& partial,
                                                      const StreamProgress& p) {
    PartialFrame frame_out;
    frame_out.id = query.id;
    frame_out.seq = ++seq;
    frame_out.progress = p;
    frame_out.result = partial;
    if (!session->Send(EncodePartial(frame_out))) {
      session->cancel.store(true);
    }
  };
  Result<ApproxAnswer> answer = [&] {
    std::lock_guard<std::mutex> lock(execute_mu_);
    return coordinator_.Execute(query.sql, std::move(progress), &session->cancel);
  }();
  std::string terminal;
  if (answer.ok()) {
    FinalFrame final_frame;
    final_frame.id = query.id;
    final_frame.result = std::move(answer->result);
    final_frame.report = std::move(answer->report);
    terminal = EncodeFinal(final_frame);
  } else {
    ErrorFrame err;
    err.has_id = true;
    err.id = query.id;
    err.code = wire_error::kQueryFailed;
    err.message = answer.status().ToString();
    terminal = EncodeError(err);
  }
  // The session goes idle BEFORE the terminal frame leaves: a client may send
  // its next QUERY the moment it reads this one, and that QUERY must never
  // find the previous query still marked active (BUSY).
  session->query_active.store(false);
  session->Send(terminal);
}

}  // namespace blink
