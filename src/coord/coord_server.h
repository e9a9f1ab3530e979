// Protocol front for the coordinator: listens on the same wire protocol a
// blinkdb_server speaks (docs/PROTOCOL.md), so blinkdb_cli — or any client —
// talks to a sharded deployment unchanged. Each QUERY frame is scattered
// through the Coordinator; every gathered round's combined partial answer
// streams back as a PARTIAL frame and the combined answer as the FINAL.
// Sessions run on the same session core as BlinkServer's
// (src/server/session.h): the HELLO gate, framing errors, latched writes and
// the frame limit on answers are the core's.
//
// Scope: queries on one session run serially (the coordinator drives one
// scatter at a time): a QUERY sent after the previous query's FINAL or ERROR
// always starts, one sent while a query is in flight draws BUSY. CANCEL is
// honored between rounds of the active query via the session's cancel flag.
// The degrade-don't-block invariant lives in the Coordinator itself — a
// stalled or dead worker widens the answer's CI, it never wedges this front.
#ifndef BLINKDB_COORD_COORD_SERVER_H_
#define BLINKDB_COORD_COORD_SERVER_H_

#include <cstdint>
#include <mutex>
#include <string>

#include "src/coord/coordinator.h"
#include "src/server/session.h"

namespace blink {

struct CoordServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 binds an ephemeral port
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

  uint16_t port() const { return wire_.port(); }

 private:
  class Session;

  CoordServerOptions options_;
  // One scatter at a time through the shared Coordinator.
  std::mutex execute_mu_;
  Coordinator coordinator_;
  WireServer wire_;  // declared last: its sessions use the members above
};

}  // namespace blink

#endif  // BLINKDB_COORD_COORD_SERVER_H_
