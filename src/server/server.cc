#include "src/server/server.h"

#include <algorithm>
#include <condition_variable>
#include <memory>
#include <unordered_map>
#include <utility>

#include "src/sql/parser.h"
#include "src/util/logging.h"
#include "src/util/string_util.h"

namespace blink {

// The HELLO reply's peer name.
constexpr char kServerName[] = "blinkdb-server/1";

// One client connection: queries are submitted to the server's admission
// queue and execute on its worker threads, so CANCEL (and malformed-frame
// ERRORs) can be serviced mid-query and several queries from one session may
// be in flight (queued or running) at once.
class BlinkServer::Session final : public WireSession {
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
      : WireSession(std::move(fd)), server_(server), id_(id) {}

 private:
  bool OnQuery(const QueryFrame& query) override {
    auto job = std::make_shared<Job>();
    job->paced = query.round_blocks > 0;
    job->granted = query.grant_blocks;
    {
      std::unique_lock<std::mutex> lock(jobs_mu_);
      if (jobs_.count(query.id) != 0) {
        lock.unlock();
        // Ids name queries on the wire (CANCEL, frame routing); a duplicate
        // while the first is in flight would be ambiguous.
        return SendError(wire_error::kBusy,
                         "query id is already in flight on this session", query.id);
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
          SendError(code, message, query.id);
          FinishJob(query.id);
        });
    if (!admitted) {
      FinishJob(query.id);
      return SendError(wire_error::kBusy, "admission queue is full", query.id);
    }
    return true;
  }

  bool OnCancel(const CancelFrame& cancel) override {
    // Queued and running queries alike; a CANCEL racing its FINAL (or naming
    // a finished/unknown id) is a documented no-op. The grant-gate notify
    // wakes a paused paced query so it unwinds to its FINAL immediately.
    std::lock_guard<std::mutex> lock(jobs_mu_);
    auto it = jobs_.find(cancel.id);
    if (it != jobs_.end()) {
      it->second->cancel.store(true);
      it->second->cv.notify_all();
    }
    return true;
  }

  bool OnGrant(const GrantFrame& grant) override {
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
    return true;
  }

  // Runs on the reader thread — appends on a session are therefore ordered
  // against its later QUERY frames: a query sent after the APPEND_OK always
  // observes the appended rows, one sent before never does (the leveled
  // store's snapshot pinning). Lands the rows as one sealed level-0 run,
  // then runs one maintenance tick so merge debt is paid by the writer.
  bool OnAppend(const AppendFrame& append) override {
    auto fail = [&](const std::string& message) {
      return SendError(wire_error::kAppendFailed, message, append.id);
    };
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
      // Paced (coordinator-driven) execution streams the largest resolution
      // in coordinator-sized rounds and never self-stops, so the grant gate
      // below is the only pacing. The coordinator owns the joint stopping
      // decision across shards (§4.3); any bound clause in the scattered SQL
      // was already stripped by it.
      const uint32_t batch_override = paced ? PaceWorkerStatement(query, *stmt) : 0;
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
        frame.queue_ms = queue_ms;
        frame.cache = p.cache;
        frame.effective_bound = effective_bound;
        frame.progress = p;
        frame.result = partial;
        if (!SendPartial(frame, seq)) {
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
      return runtime.ExecuteLeveled(
          *stmt, tables->fact->name, tables->fact->table, tables->fact->scale_factor,
          pinned.has_value() ? pinned->levels : flat,
          tables->dim != nullptr ? &tables->dim->table : nullptr, std::move(progress),
          cancel, cache_ctx, batch_override);
    }();

    if (answer.ok()) {
      answer->report.queue_latency = decision.queue_seconds;
    }
    Send(EncodeTerminal(query.id, std::move(answer)));
  }

  // Cancels every submitted query and blocks until each has produced its
  // terminal frame. The admission workers outlive the sessions (BlinkServer
  // member order), so queued tickets always drain.
  void Drain() override {
    std::unique_lock<std::mutex> lock(jobs_mu_);
    for (auto& [id, job] : jobs_) {
      job->cancel.store(true);
      job->cv.notify_all();  // wake paced queries paused on their grant gate
    }
    jobs_cv_.wait(lock, [this] { return outstanding_ == 0; });
  }

  bool Busy() override {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    return outstanding_ != 0;
  }

  // A submitted query reached its terminal frame (FINAL, ERROR, or shed).
  void FinishJob(uint64_t id) {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    jobs_.erase(id);
    --outstanding_;
    jobs_cv_.notify_all();
  }

  BlinkServer* server_;
  const uint64_t id_;  // fairness identity in the admission queue
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
  if (wire_.running()) {
    return Status::FailedPrecondition("server already started");
  }
  if (options_.answer_cache_entries > 0) {
    cache_ = std::make_unique<AnswerCache>(options_.answer_cache_entries);
  }
  admission_ = std::make_unique<AdmissionController>(
      &db_.samples(), &db_.cluster(), options_.runtime,
      options_.max_concurrent_queries, options_.admission);
  HelloFrame hello;
  hello.peer = kServerName;
  hello.tables = db_.catalog().TableNames();
  hello.shard_index = options_.shard_index;
  hello.shard_count = options_.shard_count;
  BLINK_RETURN_IF_ERROR(wire_.Start(
      options_.host, options_.port, hello, options_.idle_read_timeout_seconds,
      [this](OwnedFd fd, uint64_t session_id) -> std::unique_ptr<WireSession> {
        return std::make_unique<Session>(this, std::move(fd), session_id);
      }));
  BLINK_LOG(kInfo) << "blinkdb server listening on " << options_.host << ":"
                   << wire_.port();
  return Status::Ok();
}

void BlinkServer::Stop() {
  wire_.Stop();        // each session drains its queries on the admission workers,
  admission_.reset();  // so the workers stop only after the sessions
}

}  // namespace blink
