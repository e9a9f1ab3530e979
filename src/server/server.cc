#include "src/server/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <memory>
#include <unordered_map>
#include <utility>

#include "src/sql/parser.h"
#include "src/util/logging.h"
#include "src/util/string_util.h"

namespace blink {

// One client connection: the reader thread lives here; queries are submitted
// to the server's admission queue and execute on its worker threads, so
// CANCEL (and malformed-frame ERRORs) can be serviced mid-query and several
// queries from one session may be in flight (queued or running) at once.
class BlinkServer::Session {
 public:
  // One in-flight query: the cancel flag the plan driver polls, plus — for
  // paced (round_blocks > 0) queries — the grant gate. The execution thread
  // pauses on `cv` after each streamed round once it has consumed its
  // cumulative `granted` blocks; GRANT frames raise the budget (monotonic)
  // and CANCEL / session teardown wake the gate so a paused query always
  // unwinds to its FINAL.
  struct Job {
    std::atomic<bool> cancel{false};
    std::mutex mu;
    std::condition_variable cv;
    uint64_t granted = 0;  // guarded by mu
    bool paced = false;
  };

  Session(BlinkServer* server, OwnedFd fd, uint64_t id)
      : server_(server), fd_(std::move(fd)), id_(id) {
    reader_ = std::thread([this] { Serve(); });
  }

  ~Session() { Shutdown(); }

  // Unblocks the reader, cancels every in-flight query, waits for their
  // terminal frames, joins the reader.
  void Shutdown() {
    closing_.store(true);
    CancelAllQueries();
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
    AwaitQueries();
    fd_.Close();
  }

  bool finished() const { return finished_.load(); }

 private:
  void Serve() {
    // Idle-timeout the reader: SO_RCVTIMEO bounds every blocked recv, and a
    // timeout that fires while the session has no queries in flight closes
    // it — a half-open client must not pin this thread forever.
    if (server_->options_.idle_read_timeout_seconds > 0) {
      SetRecvTimeout(fd_.get(), server_->options_.idle_read_timeout_seconds);
    }
    for (;;) {
      auto frame_bytes = ReadFrame(fd_.get());
      if (!frame_bytes.ok() &&
          frame_bytes.status().code() == StatusCode::kDeadlineExceeded) {
        if (HasOutstanding()) {
          continue;  // quiet client waiting on its FINAL: re-arm and keep reading
        }
        break;  // idle past the deadline: close the session
      }
      if (!frame_bytes.ok() || !frame_bytes->has_value()) {
        break;  // EOF, peer reset, or an unsynchronizable framing error
      }
      auto frame = DecodeFrame(**frame_bytes);
      if (!frame.ok()) {
        ErrorFrame error;
        error.code = frame.status().code() == StatusCode::kUnimplemented
                         ? wire_error::kUnknownType
                         : wire_error::kMalformedFrame;
        error.message = frame.status().message();
        // Framing is length-prefixed, so the stream is still in sync: report
        // and keep serving this session.
        if (!Send(EncodeError(error))) {
          break;
        }
        continue;
      }
      if (!Dispatch(*frame)) {
        break;
      }
    }
    // Reader gone: no more CANCELs can arrive; stop the in-flight queries so
    // their admission workers free up promptly, let them write their
    // terminal frames, then release the socket right away — a finished
    // session must not hold its fd until the next accept happens to reap it
    // (EMFILE under connect/disconnect churn). The Session object itself
    // (and its terminated reader) is reaped later; only the fd is scarce.
    CancelAllQueries();
    AwaitQueries();
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

  // Returns false to close the session.
  bool Dispatch(const Frame& frame) {
    switch (frame.type) {
      case FrameType::kHello:
        return OnHello(std::get<HelloFrame>(frame.payload));
      case FrameType::kQuery:
        return OnQuery(std::get<QueryFrame>(frame.payload));
      case FrameType::kCancel:
        OnCancel(std::get<CancelFrame>(frame.payload));
        return true;
      case FrameType::kGrant:
        OnGrant(std::get<GrantFrame>(frame.payload));
        return true;
      case FrameType::kAppend:
        return OnAppend(std::get<AppendFrame>(frame.payload));
      case FrameType::kPartial:
      case FrameType::kFinal:
      case FrameType::kError:
      case FrameType::kAppendOk: {
        ErrorFrame error;
        error.code = wire_error::kUnexpectedFrame;
        error.message = std::string(FrameTypeName(frame.type)) +
                        " frames are server-to-client only";
        return Send(EncodeError(error));
      }
    }
    return false;
  }

  bool OnHello(const HelloFrame& hello) {
    if (greeted_) {
      // A repeated HELLO is survivable regardless of its contents
      // (docs/PROTOCOL.md §3.1) — never close an established session over it.
      ErrorFrame error;
      error.code = wire_error::kUnexpectedFrame;
      error.message = "HELLO already exchanged on this session";
      return Send(EncodeError(error));
    }
    if (hello.protocol_version != kProtocolVersion) {
      ErrorFrame error;
      error.code = wire_error::kUnsupportedProtocol;
      error.message = "server speaks protocol_version " +
                      std::to_string(kProtocolVersion) + ", client sent " +
                      std::to_string(hello.protocol_version);
      Send(EncodeError(error));
      return false;  // incompatible peer: close after reporting
    }
    HelloFrame reply;
    reply.protocol_version = kProtocolVersion;
    reply.peer = server_->options_.server_name;
    reply.tables = server_->db_.catalog().TableNames();
    reply.shard_index = server_->options_.shard_index;
    reply.shard_count = server_->options_.shard_count;
    if (!Send(EncodeHello(reply))) {
      return false;
    }
    greeted_ = true;
    return true;
  }

  bool OnQuery(const QueryFrame& query) {
    if (!greeted_) {
      ErrorFrame error;
      error.has_id = true;
      error.id = query.id;
      error.code = wire_error::kHandshakeRequired;
      error.message = "send HELLO before QUERY";
      return Send(EncodeError(error));
    }
    auto job = std::make_shared<Job>();
    job->paced = query.round_blocks > 0;
    job->granted = query.grant_blocks;
    {
      std::unique_lock<std::mutex> lock(jobs_mu_);
      if (jobs_.count(query.id) != 0) {
        lock.unlock();
        // Ids name queries on the wire (CANCEL, frame routing); a duplicate
        // while the first is in flight would be ambiguous.
        ErrorFrame error;
        error.has_id = true;
        error.id = query.id;
        error.code = wire_error::kBusy;
        error.message = "query id is already in flight on this session";
        return Send(EncodeError(error));
      }
      jobs_.emplace(query.id, job);
      ++outstanding_;
    }
    const bool admitted = server_->admission_->Submit(
        id_,
        [this, query, job](const QueryRuntime& runtime,
                           const AdmissionController::Decision& decision) {
          RunQuery(query, runtime, decision, job.get());
          FinishJob(query.id);
        },
        [this, query](const char* code, const std::string& message) {
          // Shed without executing (deadline, or shutdown drain): the query
          // still gets its terminal frame.
          ErrorFrame error;
          error.has_id = true;
          error.id = query.id;
          error.code = code;
          error.message = message;
          Send(EncodeError(error));
          FinishJob(query.id);
        });
    if (!admitted) {
      FinishJob(query.id);
      ErrorFrame error;
      error.has_id = true;
      error.id = query.id;
      error.code = wire_error::kBusy;
      error.message = "admission queue is full";
      return Send(EncodeError(error));
    }
    return true;
  }

  void OnCancel(const CancelFrame& cancel) {
    // Queued and running queries alike; a CANCEL racing its FINAL (or naming
    // a finished/unknown id) is a documented no-op. The grant-gate notify
    // wakes a paused paced query so it unwinds to its FINAL immediately.
    std::lock_guard<std::mutex> lock(jobs_mu_);
    auto it = jobs_.find(cancel.id);
    if (it != jobs_.end()) {
      it->second->cancel.store(true);
      it->second->cv.notify_all();
    }
  }

  void OnGrant(const GrantFrame& grant) {
    // Raises the query's cumulative block budget (monotonic — a stale or
    // smaller grant is a no-op). Unknown ids are ignored: the query may have
    // finished, and GRANT/FINAL races are inherent (docs/PROTOCOL.md).
    std::lock_guard<std::mutex> lock(jobs_mu_);
    auto it = jobs_.find(grant.id);
    if (it != jobs_.end()) {
      Job& job = *it->second;
      {
        std::lock_guard<std::mutex> job_lock(job.mu);
        job.granted = std::max(job.granted, grant.blocks);
      }
      job.cv.notify_all();
    }
  }

  // Runs on the reader thread — appends on a session are therefore ordered
  // against its later QUERY frames: a query sent after the APPEND_OK always
  // observes the appended rows, one sent before never does (the leveled
  // store's snapshot pinning). Lands the rows as one sealed level-0 run,
  // then runs one maintenance tick so merge debt is paid by the writer.
  bool OnAppend(const AppendFrame& append) {
    auto fail = [&](const std::string& message) {
      ErrorFrame error;
      error.has_id = true;
      error.id = append.id;
      error.code = wire_error::kAppendFailed;
      error.message = message;
      return Send(EncodeError(error));
    };
    if (!greeted_) {
      ErrorFrame error;
      error.has_id = true;
      error.id = append.id;
      error.code = wire_error::kHandshakeRequired;
      error.message = "send HELLO before APPEND";
      return Send(EncodeError(error));
    }
    BlinkDB* db = server_->mutable_db_;
    if (db == nullptr) {
      return fail("server is read-only");
    }
    const TableEntry* entry = db->catalog().Find(append.table);
    if (entry == nullptr) {
      return fail("table '" + append.table + "' not registered");
    }
    const Schema& schema = entry->table.schema();
    if (append.columns.size() != schema.num_columns()) {
      return fail("APPEND carries " + std::to_string(append.columns.size()) +
                  " columns; table '" + entry->name + "' has " +
                  std::to_string(schema.num_columns()));
    }
    for (size_t i = 0; i < append.columns.size(); ++i) {
      if (AsciiToLower(append.columns[i]) != AsciiToLower(schema.column(i).name)) {
        return fail("APPEND column " + std::to_string(i) + " is '" +
                    append.columns[i] + "'; table schema has '" +
                    schema.column(i).name + "'");
      }
    }
    Table rows(schema);
    rows.Reserve(append.rows.size());
    for (const auto& row : append.rows) {
      if (Status s = rows.AppendRow(row); !s.ok()) {
        return fail(s.ToString());
      }
    }
    auto version = db->Append(entry->name, std::move(rows));
    if (!version.ok()) {
      return fail(version.status().ToString());
    }
    // One synchronous merge step: the writer pays for compaction, so query
    // latency stays flat while a client streams many small batches.
    if (auto merged = db->MaintenanceTick(entry->name); !merged.ok()) {
      return fail(merged.status().ToString());
    }
    AppendOkFrame ok;
    ok.id = append.id;
    ok.rows_appended = append.rows.size();
    ok.version = version.value();
    return Send(EncodeAppendOk(ok));
  }

  // Runs on an admission worker thread: parse, resolve, apply the shed
  // decision, execute on the worker's runtime, stream frames.
  void RunQuery(const QueryFrame& query, const QueryRuntime& runtime,
                const AdmissionController::Decision& decision, Job* job) {
    uint64_t seq = 0;
    const double queue_ms = decision.queue_seconds * 1000.0;
    double effective_bound = 0.0;
    const bool paced = job->paced;
    std::atomic<bool>* cancel = &job->cancel;

    auto answer = [&]() -> Result<ApproxAnswer> {
      auto stmt = ParseSelect(query.sql);
      if (!stmt.ok()) {
        return stmt.status();
      }
      auto tables = server_->db_.Resolve(*stmt);
      if (!tables.ok()) {
        return tables.status();
      }
      if (paced) {
        // Paced (coordinator-driven) execution: the worker streams its
        // largest resolution in coordinator-sized rounds and never
        // self-stops — a target error of 0 disables the stopping rule, so
        // the grant gate below is the only pacing. The coordinator owns the
        // joint stopping decision across shards (§4.3); any bound clause in
        // the scattered SQL was already stripped by it.
        stmt->bounds.kind = QueryBounds::Kind::kError;
        stmt->bounds.error = 0.0;
        stmt->bounds.relative = true;
        stmt->bounds.confidence =
            query.confidence > 0 ? query.confidence : kDefaultConfidence;
      }
      // Load shedding: under queue pressure a relative error bound widens to
      // the ladder rung (never narrows) — a coarser answer now instead of
      // BUSY. Absolute bounds are column-scaled, so the relative ladder
      // cannot be compared against them and leaves them untouched. Paced
      // queries are exempt: widening their 0 target would make the worker
      // self-stop and break the coordinator's pacing contract.
      if (!paced && decision.shed_bound > 0.0 &&
          stmt->bounds.kind == QueryBounds::Kind::kError && stmt->bounds.relative) {
        stmt->bounds.error = std::max(stmt->bounds.error, decision.shed_bound);
      }
      if (!paced && stmt->bounds.kind == QueryBounds::Kind::kError) {
        effective_bound = stmt->bounds.error;
      }
      ProgressCallback progress = [this, &query, &seq, queue_ms, &effective_bound,
                                   paced, job, cancel](const QueryResult& partial,
                                                       const StreamProgress& p) {
        if (p.final_batch) {
          return;  // the terminal answer travels in the FINAL frame instead
        }
        PartialFrame frame;
        frame.id = query.id;
        frame.seq = ++seq;
        frame.queue_ms = queue_ms;
        frame.cache = p.cache;
        frame.effective_bound = effective_bound;
        frame.progress = p;
        frame.result = partial;
        const std::string payload = EncodePartial(frame);
        if (payload.size() > kMaxFrameBytes) {
          --seq;  // an oversized partial is skipped, not a dead client
          return;
        }
        if (!Send(payload)) {
          // Client unreachable (or its write timed out): stop scanning for
          // it (§4.4 — a dead session must not keep consuming blocks).
          cancel->store(true);
        }
        if (paced) {
          // Grant gate: pause after the PARTIAL is on the wire once the
          // cumulative grant is consumed. GRANT raises the budget, CANCEL
          // (or teardown) wakes the gate with cancel set, and the driver
          // then finalizes the consumed prefix as a valid answer — the
          // paused worker never holds its FINAL hostage.
          std::unique_lock<std::mutex> gate(job->mu);
          job->cv.wait(gate, [job, &p] {
            // A worker that consumed its whole dataset must not pause — the
            // driver is about to emit its FINAL and there is nothing left for
            // a further grant to buy.
            return p.blocks_consumed >= p.blocks_total ||
                   job->granted > p.blocks_consumed || job->cancel.load();
          });
        }
      };
      // A table with ingested runs executes the leveled union plan against
      // the level set pinned HERE: appends and merges published after this
      // point are invisible to this query (snapshot isolation), and the
      // pinned snapshot keeps its runs alive through the scan.
      const auto pinned = server_->db_.PinLevels(stmt->table);
      const std::vector<LevelScan> flat;
      CacheContext cache_ctx;
      // Paced executions bypass the answer cache: their artificial 0-error
      // bound must neither be served from a stored FINAL (the coordinator
      // needs fresh per-round pacing) nor inserted (it would poison the key
      // space with never-satisfiable bounds).
      if (!paced && server_->cache_ != nullptr) {
        cache_ctx.cache = server_->cache_.get();
        cache_ctx.table_generation = pinned.has_value()
                                         ? pinned->generation
                                         : tables->fact->generation.load();
        if (pinned.has_value()) {
          // The snapshot fingerprint scopes cached answers to this exact
          // level set; any later publication changes it.
          cache_ctx.key_suffix = pinned->fingerprint;
        }
      }
      const uint32_t batch_override =
          paced ? static_cast<uint32_t>(std::min<uint64_t>(
                      query.round_blocks, std::numeric_limits<uint32_t>::max()))
                : 0;
      return runtime.ExecuteLeveled(
          *stmt, tables->fact->name, tables->fact->table, tables->fact->scale_factor,
          pinned.has_value() ? pinned->levels : flat,
          tables->dim != nullptr ? &tables->dim->table : nullptr, std::move(progress),
          cancel, cache_ctx, batch_override);
    }();

    if (answer.ok()) {
      answer.value().report.queue_latency = decision.queue_seconds;
      FinalFrame frame;
      frame.id = query.id;
      frame.result = std::move(answer.value().result);
      frame.report = std::move(answer.value().report);
      const std::string payload = EncodeFinal(frame);
      if (payload.size() <= kMaxFrameBytes) {
        Send(payload);
      } else {
        // "FINAL or ERROR — never neither" (docs/PROTOCOL.md §2): a result
        // too large for one frame still terminates the query explicitly.
        ErrorFrame error;
        error.has_id = true;
        error.id = query.id;
        error.code = wire_error::kQueryFailed;
        error.message = "result exceeds the frame size limit";
        Send(EncodeError(error));
      }
    } else {
      ErrorFrame error;
      error.has_id = true;
      error.id = query.id;
      error.code = wire_error::kQueryFailed;
      error.message = answer.status().ToString();
      Send(EncodeError(error));
    }
  }

  // Serialized frame write; false once the peer is unreachable. A failed
  // write may have left a frame half-written (e.g. a send timeout partway
  // through), after which the stream is unsynchronizable — latch the
  // failure so no later frame is ever appended to the torn one.
  bool Send(const std::string& payload) {
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

  // A submitted query reached its terminal frame (FINAL, ERROR, or shed).
  void FinishJob(uint64_t id) {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    jobs_.erase(id);
    --outstanding_;
    jobs_cv_.notify_all();
  }

  void CancelAllQueries() {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    for (auto& [id, job] : jobs_) {
      job->cancel.store(true);
      job->cv.notify_all();  // wake paced queries paused on their grant gate
    }
  }

  bool HasOutstanding() {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    return outstanding_ != 0;
  }

  // Blocks until every submitted query has produced its terminal frame. The
  // admission workers outlive the sessions (BlinkServer member order), so
  // queued tickets always drain.
  void AwaitQueries() {
    std::unique_lock<std::mutex> lock(jobs_mu_);
    jobs_cv_.wait(lock, [this] { return outstanding_ == 0; });
  }

  BlinkServer* server_;
  OwnedFd fd_;
  const uint64_t id_;  // fairness identity in the admission queue
  std::thread reader_;
  std::mutex write_mu_;
  bool write_failed_ = false;  // guarded by write_mu_
  bool greeted_ = false;
  std::atomic<bool> closing_{false};
  std::atomic<bool> finished_{false};
  // In-flight queries (queued or running) by id, each with its own cancel
  // flag threaded into the plan driver and — for paced queries — the grant
  // gate its execution waits on between rounds.
  std::mutex jobs_mu_;
  std::condition_variable jobs_cv_;
  std::unordered_map<uint64_t, std::shared_ptr<Job>> jobs_;
  size_t outstanding_ = 0;  // guarded by jobs_mu_
};

BlinkServer::BlinkServer(const BlinkDB& db, ServerOptions options)
    : db_(db), options_(std::move(options)) {}

BlinkServer::BlinkServer(BlinkDB& db, ServerOptions options)
    : db_(db), mutable_db_(&db), options_(std::move(options)) {}

BlinkServer::~BlinkServer() { Stop(); }

Status BlinkServer::Start() {
  if (running_.load()) {
    return Status::FailedPrecondition("server already started");
  }
  if (options_.answer_cache_entries > 0) {
    cache_ = std::make_unique<AnswerCache>(options_.answer_cache_entries);
  }
  admission_ = std::make_unique<AdmissionController>(
      &db_.samples(), &db_.cluster(), options_.runtime,
      options_.max_concurrent_queries, options_.admission);
  auto listener = ListenTcp(options_.host, options_.port, &port_);
  if (!listener.ok()) {
    return listener.status();
  }
  listener_ = std::move(listener.value());
  running_.store(true);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  BLINK_LOG(kInfo) << "blinkdb server listening on " << options_.host << ":" << port_;
  return Status::Ok();
}

void BlinkServer::Stop() {
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
  std::vector<std::unique_ptr<Session>> sessions;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    sessions.swap(sessions_);
  }
  sessions.clear();  // ~Session shuts each down and drains its queries
  admission_.reset();  // after the sessions: they wait on its workers
}

void BlinkServer::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listener_.get(), nullptr, nullptr);
    if (fd < 0) {
      if (!running_.load()) {
        return;
      }
      if (errno != EINTR && errno != ECONNABORTED) {
        // Persistent failure (EMFILE/ENFILE under fd pressure): back off
        // instead of hot-looping at 100% CPU until fds free up.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (options_.write_timeout_seconds > 0) {
      timeval timeout{};
      timeout.tv_sec = options_.write_timeout_seconds;
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
    }
    const uint64_t session_id = sessions_accepted_.fetch_add(1) + 1;
    std::lock_guard<std::mutex> lock(sessions_mu_);
    // Opportunistically reap sessions whose reader already exited, so a
    // long-lived server does not accumulate dead connections.
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      if ((*it)->finished()) {
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
    sessions_.push_back(std::make_unique<Session>(this, OwnedFd(fd), session_id));
  }
}

}  // namespace blink
