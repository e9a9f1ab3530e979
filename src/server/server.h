// Multi-client streaming query server over TCP (docs/PROTOCOL.md).
//
// The server turns the in-process progress-callback contract of
// BlinkDB::Query(sql, progress) into wire frames: every streamed round's
// combined partial answer becomes a PARTIAL frame (union estimate,
// achieved_error, blocks_consumed), and the terminal answer becomes a FINAL
// frame carrying the full ExecutionReport — so an interactive client watches
// the answer converge in real time, the paper's bounded-error /
// bounded-response-time promise made visible.
//
// Architecture (docs/ARCHITECTURE.md "Serving layer"):
//
//   accept thread ──▶ Session per connection (reader thread: the session
//                        │  core of src/server/session.h, HELLO gate,
//                        │  framing errors, frame-limit encoder)
//                        │  QUERY ──▶ AdmissionController::Submit (bounded
//                        │            FIFO; BUSY only when the queue is full)
//                        │             └▶ admission worker: answer cache
//                        │                lookup, then QueryRuntime::Execute
//                        │                  progress → PARTIAL frames
//                        │                  return   → FINAL (or ERROR) frame
//                        └─ CANCEL ─▶ flips that query's cancel flag; the
//                           plan driver stops at the next round boundary and
//                           the query still ends with FINAL (cancelled=true,
//                           partial answer, only consumed blocks charged §4.4)
//
// Sessions keep their reader thread free while queries run (that is what
// makes mid-query CANCEL possible), serialize socket writes behind a mutex
// (PARTIALs from the admission workers, ERRORs from the reader), and survive
// malformed frames — the length-prefixed transport stays in sync, so the
// server answers ERROR and keeps serving. Repeated bounded queries are
// served from the shared AnswerCache (hit: stored FINAL, zero blocks;
// near-miss: streaming resumes from the cached prefix), and overload widens
// error bounds down the shed ladder before any query is rejected.
#ifndef BLINKDB_SERVER_SERVER_H_
#define BLINKDB_SERVER_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/api/blinkdb.h"
#include "src/cache/answer_cache.h"
#include "src/server/admission.h"
#include "src/server/session.h"

namespace blink {

struct ServerOptions {
  std::string host = "127.0.0.1";
  // 0 binds an ephemeral port; read the actual one from port() after Start.
  uint16_t port = 0;
  // Runtime settings every worker's QueryRuntime is built with. For
  // bit-identical answers against an in-process BlinkDB::Query, use the same
  // exec_threads / morsel_rows / scheduling configuration on both sides.
  RuntimeConfig runtime;
  // Admission workers, each with its own QueryRuntime = queries executing
  // concurrently across all sessions; further queries wait their turn in the
  // admission queue.
  size_t max_concurrent_queries = 4;
  // Deadline-aware admission queue (src/server/admission.h): waiting depth
  // and queue deadline. BUSY is answered only when the queue itself is full.
  AdmissionOptions admission;
  // Answer-cache entries shared by every worker's runtime; 0 disables
  // caching (every query executes cold, the pre-cache behavior).
  size_t answer_cache_entries = 256;
  // Idle read timeout (SO_RCVTIMEO on session sockets): a session whose
  // client sends nothing for this long while it has no queries in flight is
  // closed, reclaiming the reader thread a half-open client would otherwise
  // pin forever. While queries are in flight the timeout only re-arms — a
  // quiet client legitimately waits on its FINAL. 0 disables. Sub-second
  // values are honored (tests use fractions).
  double idle_read_timeout_seconds = 0.0;
  // Shard role announced in the HELLO reply: a worker holding shard
  // `shard_index` of `shard_count` (each a stratified row slice whose sample
  // families are valid block prefixes). shard_count 0 = whole table, the
  // non-distributed default. See docs/PROTOCOL.md "Shard role".
  uint64_t shard_index = 0;
  uint64_t shard_count = 0;
};

class BlinkServer {
 public:
  // `db` is the serving state (catalog + samples + cluster model); it must
  // outlive the server and must not be mutated while serving. APPEND frames
  // draw APPEND_FAILED on a server built over a const db.
  explicit BlinkServer(const BlinkDB& db, ServerOptions options = {});

  // Ingest-enabled server: same as above, but APPEND frames land rows in the
  // db's leveled stores (BlinkDB::Append + one maintenance tick). The only
  // mutation the server performs is through that thread-safe ingest API;
  // queries running mid-append keep their pinned level set.
  explicit BlinkServer(BlinkDB& db, ServerOptions options = {});
  ~BlinkServer();

  BlinkServer(const BlinkServer&) = delete;
  BlinkServer& operator=(const BlinkServer&) = delete;

  // Binds, listens, and starts the accept thread. Fails if already started
  // or the address is unavailable.
  Status Start();

  // Closes the listener and every session, cancels in-flight queries, joins
  // all threads. Idempotent.
  void Stop();

  // The bound port (valid after a successful Start).
  uint16_t port() const { return wire_.port(); }

  // Answer-cache counters (null stats when caching is disabled).
  AnswerCacheStats cache_stats() const {
    return cache_ != nullptr ? cache_->stats() : AnswerCacheStats{};
  }
  // Admission-queue counters (valid after Start).
  AdmissionStats admission_stats() const {
    return admission_ != nullptr ? admission_->stats() : AdmissionStats{};
  }

 private:
  class Session;

  const BlinkDB& db_;
  // Non-null only for the ingest-enabled constructor; the target of APPEND
  // frames. Always aliases db_.
  BlinkDB* mutable_db_ = nullptr;
  ServerOptions options_;
  // Destruction order matters: wire_ (declared last) stops its sessions
  // first, and session teardown waits on queries the admission workers are
  // still driving, so admission_ must outlive wire_'s sessions.
  std::unique_ptr<AnswerCache> cache_;
  std::unique_ptr<AdmissionController> admission_;
  WireServer wire_;
};

}  // namespace blink

#endif  // BLINKDB_SERVER_SERVER_H_
