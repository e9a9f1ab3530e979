// BlinkDB streaming client — the library behind blinkdb_cli, the
// coordinator's worker sessions (RemoteShard), and any downstream
// application that talks to a BlinkServer.
//
// Usage (docs/CLIENT_GUIDE.md has the full walkthrough):
//
//   BlinkClient client;
//   if (!client.Connect("127.0.0.1", port).ok()) { ... }
//   auto outcome = client.Query(
//       "SELECT COUNT(*) FROM sessions WHERE city = 'city_7' "
//       "ERROR WITHIN 5% AT CONFIDENCE 95%",
//       [](const PartialFrame& partial) {
//         // Fires once per PARTIAL frame, in order: watch achieved_error
//         // tighten as blocks_consumed grows.
//       });
//   // outcome->result is bit-identical to an in-process BlinkDB::Query of
//   // the same SQL under the same runtime settings; outcome->report is the
//   // full ExecutionReport.
//
// Query() blocks the calling thread until the FINAL (or ERROR) frame.
// CancelActive() may be called from another thread while Query() is in
// flight: it sends CANCEL for the active query id, and the server answers
// with a FINAL whose report has cancelled=true and whose result is the best
// partial answer — Query() returns that normally.
#ifndef BLINKDB_CLIENT_BLINK_CLIENT_H_
#define BLINKDB_CLIENT_BLINK_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "src/server/net.h"
#include "src/server/protocol.h"
#include "src/storage/table.h"

namespace blink {

// The terminal answer of one streamed query.
struct QueryOutcome {
  QueryResult result;
  ExecutionReport report;
  // PARTIAL frames observed before the FINAL (0 for one-shot paths).
  uint64_t partial_frames = 0;
};

// Invoked once per PARTIAL frame, in arrival order, on the Query() thread.
using PartialCallback = std::function<void(const PartialFrame& partial)>;

// The server-acknowledged outcome of one Append().
struct AppendOutcome {
  uint64_t rows_appended = 0;
  // The leveled store's manifest version with the new run published. Any
  // query sent on this session after Append() returns observes the rows;
  // queries already running when the rows landed never do (the server pins
  // each query's level set at execution start).
  uint64_t version = 0;
};

class BlinkClient {
 public:
  BlinkClient() = default;
  ~BlinkClient() { Close(); }
  BlinkClient(const BlinkClient&) = delete;
  BlinkClient& operator=(const BlinkClient&) = delete;

  // Connects and performs the HELLO handshake. `client_name` is the
  // free-form peer string sent in the HELLO.
  Status Connect(const std::string& host, uint16_t port,
                 const std::string& client_name = "blink_client/1");

  bool connected() const { return fd_.valid(); }
  // The server's HELLO reply: its peer name, tables and shard role.
  const HelloFrame& server() const { return server_; }

  // Sends a QUERY and blocks until its FINAL or ERROR frame, streaming each
  // PARTIAL to `on_partial` along the way. A server-side failure (ERROR
  // frame) comes back as a non-OK Status carrying the wire code + message.
  Result<QueryOutcome> Query(const std::string& sql, PartialCallback on_partial = {});

  // Streaming ingest: sends `rows` (whose schema must match the server
  // table's, column for column) as one APPEND frame and blocks until the
  // server's APPEND_OK or ERROR. Not legal while a Query() is in flight on
  // this client — Append() shares the session's single reader. Batches whose
  // encoding exceeds the 16 MiB frame limit are rejected locally; split them.
  Result<AppendOutcome> Append(const std::string& table, const Table& rows);

  // Thread-safe: requests cancellation of the Query() currently in flight.
  // No-op (Ok) when no query is active — the race against a completing
  // query is inherent and documented, docs/PROTOCOL.md "Cancellation".
  Status CancelActive();

  void Close();

  // Raw frame access: send one frame payload, read one frame. The
  // coordinator's RemoteShard drives paced worker queries (QUERY with pacing
  // fields, GRANT, CANCEL) through these; tests/server_test.cc uses them to
  // exercise the server's malformed-frame handling.
  Status SendRaw(std::string_view payload);
  Result<Frame> ReadOne();
  // Arms (or, with seconds <= 0, disarms) a receive timeout: a ReadOne()
  // that waits longer fails with kDeadlineExceeded, after which the stream
  // may be cut mid-frame and cannot be trusted.
  Status SetReadTimeout(double seconds);

 private:
  OwnedFd fd_;
  std::mutex write_mu_;  // Query() and CancelActive() may write concurrently
  HelloFrame server_;
  uint64_t next_query_id_ = 1;
  std::atomic<uint64_t> active_query_id_{0};
  std::atomic<bool> query_active_{false};
};

}  // namespace blink

#endif  // BLINKDB_CLIENT_BLINK_CLIENT_H_
