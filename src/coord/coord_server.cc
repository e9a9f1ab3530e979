#include "src/coord/coord_server.h"

#include <atomic>
#include <thread>
#include <utility>

namespace blink {

// One client connection: at most one in-flight scattered query, on its own
// thread, which is what lets the reader service CANCEL mid-scatter (the
// coordinator checks the flag at every round boundary). The reader owns the
// query thread: it joins it before starting the next query, and Drain()
// joins it before the session closes its socket.
class CoordServer::Session final : public WireSession {
 public:
  Session(CoordServer* server, OwnedFd fd) : WireSession(std::move(fd)), server_(server) {}

 private:
  bool OnQuery(const QueryFrame& query) override {
    if (active_.load()) {
      return SendError(wire_error::kBusy,
                       "a scattered query is already in flight on this session",
                       query.id);
    }
    if (query_thread_.joinable()) {
      // The previous query cleared active_ before its terminal frame;
      // joining here keeps that frame ahead of this query's first.
      query_thread_.join();
    }
    cancel_.store(false);
    active_id_.store(query.id);
    active_.store(true);
    query_thread_ = std::thread([this, query] { Run(query); });
    return true;
  }

  bool OnCancel(const CancelFrame& cancel) override {
    if (active_.load() && active_id_.load() == cancel.id) {
      cancel_.store(true);
    }
    return true;
  }

  void Drain() override {
    cancel_.store(true);
    if (query_thread_.joinable()) {
      query_thread_.join();
    }
  }

  // The query thread: one scatter, its PARTIALs, then FINAL or ERROR.
  void Run(const QueryFrame& query) {
    uint64_t seq = 0;
    // Every gathered round streams as a PARTIAL, the driver's last one too:
    // the FINAL leaves only after the live shards' FINALs are gathered, and a
    // query answered in one round still streams its answer at once.
    ProgressCallback progress = [this, &query, &seq](const QueryResult& partial,
                                                     const StreamProgress& p) {
      PartialFrame frame;
      frame.id = query.id;
      frame.progress = p;
      frame.result = partial;
      if (!SendPartial(frame, seq)) {
        cancel_.store(true);
      }
    };
    Result<ApproxAnswer> answer = [&] {
      std::lock_guard<std::mutex> lock(server_->execute_mu_);
      return server_->coordinator_.Execute(query.sql, std::move(progress), &cancel_);
    }();
    const std::string terminal = EncodeTerminal(query.id, std::move(answer));
    // The session goes idle BEFORE the terminal frame leaves: a client may
    // send its next QUERY the moment it reads this one, and that QUERY must
    // never find the previous query still marked active (BUSY).
    active_.store(false);
    Send(terminal);
  }

  CoordServer* server_;
  std::atomic<bool> active_{false};
  std::atomic<uint64_t> active_id_{0};
  std::atomic<bool> cancel_{false};
  std::thread query_thread_;  // reader thread only
};

CoordServer::CoordServer(CoordinatorOptions coordinator, CoordServerOptions options)
    : options_(std::move(options)), coordinator_(std::move(coordinator)) {}

CoordServer::~CoordServer() { Stop(); }

Status CoordServer::Start() {
  auto tables = coordinator_.FetchTables();
  if (!tables.ok()) {
    return tables.status();
  }
  HelloFrame hello;
  hello.peer = kCoordinatorName;
  hello.tables = std::move(*tables);
  return wire_.Start(options_.host, options_.port, hello, /*idle_read_timeout_seconds=*/0,
                     [this](OwnedFd fd, uint64_t) -> std::unique_ptr<WireSession> {
                       return std::make_unique<Session>(this, std::move(fd));
                     });
}

void CoordServer::Stop() { wire_.Stop(); }

}  // namespace blink
