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
//   accept thread ──▶ Session per connection (reader thread)
//                        │  HELLO handshake, frame dispatch
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

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/api/blinkdb.h"
#include "src/cache/answer_cache.h"
#include "src/server/admission.h"
#include "src/server/net.h"
#include "src/server/protocol.h"

namespace blink {

struct ServerOptions {
  std::string host = "127.0.0.1";
  // 0 binds an ephemeral port; read the actual one from port() after Start.
  uint16_t port = 0;
  std::string server_name = "blinkdb-server/1";
  // Runtime settings every pooled QueryRuntime is built with. For
  // bit-identical answers against an in-process BlinkDB::Query, use the same
  // exec_threads / morsel_rows / scheduling configuration on both sides.
  RuntimeConfig runtime;
  // QueryRuntime instances in the shared pool = queries executing
  // concurrently across all sessions; further queries wait their turn in the
  // admission queue.
  size_t max_concurrent_queries = 4;
  // Deadline-aware admission queue (src/server/admission.h): waiting depth,
  // queue deadline, and the load-shedding ladder of widened error bounds.
  // BUSY is answered only when the queue itself is full.
  AdmissionOptions admission;
  // Answer-cache entries shared by every runtime in the pool; 0 disables
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
  uint16_t port() const { return port_; }

  // Sessions accepted over the server's lifetime (for tests/metrics).
  size_t sessions_accepted() const { return sessions_accepted_.load(); }

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

  void AcceptLoop();

  const BlinkDB& db_;
  // Non-null only for the ingest-enabled constructor; the target of APPEND
  // frames. Always aliases db_.
  BlinkDB* mutable_db_ = nullptr;
  ServerOptions options_;
  // Destruction order matters: sessions_ (declared last) is destroyed first,
  // and session teardown waits on queries the admission workers are still
  // driving — so admission_ must outlive sessions_.
  std::unique_ptr<AnswerCache> cache_;
  std::unique_ptr<AdmissionController> admission_;
  OwnedFd listener_;
  uint16_t port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> running_{false};
  std::atomic<size_t> sessions_accepted_{0};
  std::mutex sessions_mu_;
  std::vector<std::unique_ptr<Session>> sessions_;
};

}  // namespace blink

#endif  // BLINKDB_SERVER_SERVER_H_
