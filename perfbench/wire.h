// A timing client for the wire protocol (docs/PROTOCOL.md): the loop of
// blink::BlinkClient, with the send, first-estimate and FINAL instants, the
// FINAL's size and decode time, and a receive timeout.
#ifndef PERFBENCH_WIRE_H_
#define PERFBENCH_WIRE_H_

#include <cstdint>
#include <string>

#include "src/server/net.h"
#include "src/server/protocol.h"

namespace perfbench {

// Seconds on the steady clock.
double Now();

struct Reply {
  // Empty on success; else the wire error code (QUERY_FAILED, BUSY, ...), or
  // "TIMEOUT" / "TRANSPORT" for a lost exchange.
  std::string error;
  std::string message;
  blink::FinalFrame final;
  uint64_t partials = 0;
  size_t final_bytes = 0;
  double sent = 0.0;    // QUERY written
  double first = 0.0;   // first frame carrying an estimate (PARTIAL or FINAL)
  double done = 0.0;    // FINAL (or ERROR) decoded
  double decode_s = 0.0;  // DecodeFrame of the FINAL payload

  bool ok() const { return error.empty(); }
};

class WireConn {
 public:
  // Connects and completes the HELLO handshake.
  blink::Status Connect(uint16_t port);
  bool connected() const { return fd_.valid(); }

  // Sends one QUERY and reads until its FINAL or ERROR. A timeout or a
  // broken stream closes the connection; reconnect before the next op.
  Reply Query(const std::string& sql);

  // Sends one encoded APPEND frame whose id is `id` and reads until its
  // APPEND_OK or ERROR. Returns the error text, empty on success.
  std::string Append(const std::string& payload, uint64_t id);

 private:
  blink::OwnedFd fd_;
  uint64_t next_id_ = 1;
};

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_H_
