// The session core both wire servers share (docs/PROTOCOL.md §2–§3,
// docs/ARCHITECTURE.md "Serving layer"): BlinkServer and the coordinator
// front (CoordServer) each derive their session from WireSession and run it
// under a WireServer, adding only their own HELLO payload and frame handling.
//
// A WireServer listens, accepts through AcceptTcp and reaps finished
// sessions. Each accepted connection is one WireSession, whose reader thread
// holds the rules every server of this protocol keeps:
//   - a payload that does not decode draws MALFORMED_FRAME or UNKNOWN_TYPE,
//     a server-to-client frame UNEXPECTED_FRAME, and the session survives
//     (the length prefix keeps the stream in sync);
//   - the §3.1 HELLO gate: a protocol_version mismatch draws
//     UNSUPPORTED_PROTOCOL and a close, a second HELLO UNEXPECTED_FRAME, and
//     QUERY or APPEND before HELLO HANDSHAKE_REQUIRED;
//   - frame writes are serialized and latch their first failure (Send);
//   - a query's streamed frames respect the frame limit (SendPartial,
//     EncodeTerminal), so every query ends in one FINAL or one ERROR;
//   - teardown cancels the session's in-flight work and waits for its
//     terminal frames before the socket closes.
#ifndef BLINKDB_SERVER_SESSION_H_
#define BLINKDB_SERVER_SESSION_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/server/net.h"
#include "src/server/protocol.h"

namespace blink {

// One client connection. Derived sessions implement the frame hooks; the
// core calls them on the session's reader thread.
class WireSession {
 public:
  virtual ~WireSession() = default;
  WireSession(const WireSession&) = delete;
  WireSession& operator=(const WireSession&) = delete;

 protected:
  explicit WireSession(OwnedFd fd) : fd_(std::move(fd)) {}

  // Serialized frame write; false once the peer is unreachable or the
  // session is closing. A failed write may have torn its frame (a send
  // timeout partway through), so the failure latches: nothing is ever
  // appended to a torn stream.
  bool Send(std::string_view payload);
  // An ERROR frame. `id` names the query or append it answers; without one
  // it is a session-level error.
  bool SendError(const char* code, std::string message,
                 std::optional<uint64_t> id = std::nullopt);
  // Streams one PARTIAL of a query, numbered after the query's last (`seq`).
  // A PARTIAL over the frame limit is skipped unnumbered: the query goes on,
  // and its FINAL or ERROR still ends it. False once the peer is unreachable.
  bool SendPartial(PartialFrame& partial, uint64_t& seq);
  // A query's terminal frame: FINAL with the answer, or ERROR QUERY_FAILED
  // with the failure, also when the FINAL would exceed the frame limit
  // (docs/PROTOCOL.md §2: "FINAL or ERROR, never neither").
  static std::string EncodeTerminal(uint64_t id, Result<ApproxAnswer> answer);

  // Frame hooks; false closes the session. QUERY and APPEND reach them only
  // after the handshake. A server that serves no GRANT or APPEND keeps the
  // default, which answers UNEXPECTED_FRAME.
  virtual bool OnQuery(const QueryFrame& query) = 0;
  virtual bool OnCancel(const CancelFrame& cancel) = 0;
  virtual bool OnGrant(const GrantFrame& grant);
  virtual bool OnAppend(const AppendFrame& append);
  // Cancels the session's in-flight work and returns once each piece has
  // sent its terminal frame. The reader calls it on its way out, before it
  // closes the socket.
  virtual void Drain() = 0;
  // Whether work is in flight: an idle read timeout then re-arms instead of
  // closing the session.
  virtual bool Busy() { return false; }

 private:
  friend class WireServer;

  // Starts the reader. WireServer calls this only once the derived session
  // is fully constructed, since the reader calls its hooks.
  void Start(const std::string* hello, double idle_read_timeout_seconds);
  // Wakes and joins the reader, whose exit tail drains the session's work
  // and closes the socket. WireServer calls this before it destroys the
  // session, so the reader never outlives a derived member it may touch.
  void Stop();
  bool finished() const { return finished_.load(); }

  void Serve();
  bool Dispatch(const Frame& frame);
  bool OnHello(const HelloFrame& hello);

  OwnedFd fd_;  // closed by the reader's exit tail, under write_mu_
  std::mutex write_mu_;
  bool write_failed_ = false;  // guarded by write_mu_
  std::atomic<bool> closing_{false};
  std::atomic<bool> finished_{false};
  bool greeted_ = false;                // reader thread only
  const std::string* hello_ = nullptr;  // the server's encoded HELLO reply
  double idle_read_timeout_seconds_ = 0.0;
  std::thread reader_;
};

// Listener, accept thread and session set of one wire server.
class WireServer {
 public:
  // Builds the server-specific session for an accepted connection;
  // `session_id` counts sessions from 1.
  using SessionFactory =
      std::function<std::unique_ptr<WireSession>(OwnedFd fd, uint64_t session_id)>;

  WireServer() = default;
  ~WireServer() { Stop(); }
  WireServer(const WireServer&) = delete;
  WireServer& operator=(const WireServer&) = delete;

  // Binds host:port (port 0 picks an ephemeral one) and starts accepting.
  // Every session answers HELLO with `hello` and, when
  // idle_read_timeout_seconds > 0, closes once its client has sent nothing
  // for that long while the session is not Busy().
  Status Start(const std::string& host, uint16_t port, const HelloFrame& hello,
               double idle_read_timeout_seconds, SessionFactory factory);
  // Closes the listener and every session, each drained and stopped before
  // it is destroyed. Idempotent.
  void Stop();

  bool running() const { return running_.load(); }
  // The bound port (valid after a successful Start).
  uint16_t port() const { return port_; }

 private:
  void AcceptLoop();

  std::string hello_;
  double idle_read_timeout_seconds_ = 0.0;
  SessionFactory factory_;
  OwnedFd listener_;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  uint64_t last_session_id_ = 0;  // accept thread only
  std::mutex sessions_mu_;
  std::vector<std::unique_ptr<WireSession>> sessions_;  // guarded by sessions_mu_
  std::thread accept_thread_;
};

}  // namespace blink

#endif  // BLINKDB_SERVER_SESSION_H_
