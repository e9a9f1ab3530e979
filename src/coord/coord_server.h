// Protocol front for the coordinator: listens on the same wire protocol a
// blinkdb_server speaks (docs/PROTOCOL.md), so blinkdb_cli — or any client —
// talks to a sharded deployment unchanged. Each QUERY frame is scattered
// through the Coordinator; every gathered round's combined partial answer
// streams back as a PARTIAL frame and the combined answer as the FINAL.
//
// Scope: queries on one session run serially (the coordinator drives one
// scatter at a time): a QUERY sent after the previous query's FINAL or ERROR
// always starts, one sent while a query is in flight draws BUSY. CANCEL is
// honored between rounds of the active query via the session's cancel flag.
// The degrade-don't-block invariant lives in the Coordinator itself — a
// stalled or dead worker widens the answer's CI, it never wedges this front.
#ifndef BLINKDB_COORD_COORD_SERVER_H_
#define BLINKDB_COORD_COORD_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/coord/coordinator.h"
#include "src/server/net.h"
#include "src/server/protocol.h"

namespace blink {

struct CoordServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 binds an ephemeral port
  std::string server_name = "blinkdb-coord/1";
};

class CoordServer {
 public:
  CoordServer(CoordinatorOptions coordinator, CoordServerOptions options = {});
  ~CoordServer();

  CoordServer(const CoordServer&) = delete;
  CoordServer& operator=(const CoordServer&) = delete;

  // Fetches the table list from worker 0 (HELLO introspection), binds, and
  // starts the accept thread.
  Status Start();
  // Closes the listener and every session; idempotent.
  void Stop();

  uint16_t port() const { return port_; }

 private:
  struct Session;

  void AcceptLoop();
  // A session's reader thread: dispatches frames until EOF, then stops and
  // joins the in-flight query and closes the socket.
  void ServeSession(Session* session);
  // Handles one decoded client frame; false closes the session.
  bool Dispatch(Session* session, const Frame& frame);
  // A session's query thread: one scatter, its PARTIALs, then FINAL or ERROR.
  void RunQuery(Session* session, const QueryFrame& query);

  CoordServerOptions options_;
  std::vector<std::string> tables_;
  OwnedFd listener_;
  uint16_t port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> running_{false};
  // One scatter at a time through the shared Coordinator.
  std::mutex execute_mu_;
  Coordinator coordinator_;
  std::mutex sessions_mu_;
  std::vector<std::unique_ptr<Session>> sessions_;
};

}  // namespace blink

#endif  // BLINKDB_COORD_COORD_SERVER_H_
