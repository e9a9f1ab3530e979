// Distributed scatter/gather: coordinator over sharded workers.
//
//  - Bit-identity (the acceptance bar): a coordinator run over N real
//    workers produces EXACTLY (%.17g) the answer the in-process reference
//    rebuilds from the same per-shard serving state and the recorded
//    per-shard consumed prefixes — for N in {2, 3}, across worker thread
//    counts, for plain and grouped aggregates; the per-shard prefixes in
//    the report sum to the combined blocks_consumed; and the progress
//    stream ends in one final_batch event carrying the report's totals.
//  - Unpaced scatter: an unbounded query one-shots every worker and still
//    combines bit-identically.
//  - Degrade, never hang: a worker that drops its connection mid-stream or
//    stalls past the round deadline is frozen at its last snapshot — the
//    query completes Ok with PipelineOutcome::degraded on that shard, a
//    wider CI, and conservation of the consumed-prefix accounting. A worker
//    that dies before its FIRST answer fails the query (its strata are
//    unobserved). Faulty workers are scripted raw-socket peers, so the
//    fault points are deterministic.
//  - Protocol front: scattered queries stream over the ordinary wire
//    protocol, back-to-back queries on one session never draw BUSY, and a
//    closed session releases its socket at once.
//  - Protocol: GRANT and the pacing/shard handshake fields round-trip.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "src/coord/coord_server.h"
#include "src/coord/coordinator.h"
#include "src/coord/selfcheck.h"
#include "src/client/blink_client.h"
#include "src/server/net.h"
#include "src/server/protocol.h"
#include "src/server/server.h"
#include "src/workload/demo_db.h"

namespace blink {
namespace {

// Small demo table so sample building stays fast; all knobs must match
// between the served shards and the in-process reference.
DemoDbOptions ShardDemoOptions(uint64_t shard_index, uint64_t shard_count) {
  DemoDbOptions demo;
  demo.rows = 12'000;
  demo.num_cities = 40;
  demo.num_urls = 200;
  demo.shard_index = shard_index;
  demo.shard_count = shard_count;
  return demo;
}

RuntimeConfig WorkerConfig(size_t exec_threads) {
  RuntimeConfig config;
  config.exec_threads = exec_threads;
  config.morsel_rows = 256;
  config.stream_batch_blocks = 4;
  return config;
}

// Shard serving states are expensive to build (full-table generation +
// sample families), so each N-way partition is built once and shared.
const std::vector<std::unique_ptr<BlinkDB>>& ShardSet(size_t n) {
  static std::vector<std::unique_ptr<BlinkDB>> sets[5];
  auto& set = sets[n];
  if (set.empty()) {
    for (size_t i = 0; i < n; ++i) {
      set.push_back(std::make_unique<BlinkDB>());
      Status s = BuildConvivaDemo(*set.back(), ShardDemoOptions(i, n));
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
  }
  return set;
}

// N real workers over one striped partition, plus the coordinator options
// pointing at them.
struct Fleet {
  std::vector<std::unique_ptr<BlinkServer>> servers;
  CoordinatorOptions options;
};

Fleet StartFleet(size_t n, size_t exec_threads) {
  Fleet fleet;
  const auto& dbs = ShardSet(n);
  for (size_t i = 0; i < n; ++i) {
    ServerOptions options;
    options.runtime = WorkerConfig(exec_threads);
    options.shard_index = i;
    options.shard_count = n;
    fleet.servers.push_back(std::make_unique<BlinkServer>(*dbs[i], options));
    Status s = fleet.servers.back()->Start();
    EXPECT_TRUE(s.ok()) << s.ToString();
    fleet.options.workers.push_back({"127.0.0.1", fleet.servers.back()->port()});
  }
  fleet.options.round_blocks = 4;
  return fleet;
}

// The acceptance check: scatter `sql`, rebuild in-process at the recorded
// prefixes, require %.17g-identical answers and conserved block accounting.
// The progress stream must end in exactly one final_batch event that
// carries the report's totals.
void ExpectBitIdentical(size_t n, size_t exec_threads, const std::string& sql) {
  SCOPED_TRACE("n=" + std::to_string(n) + " threads=" + std::to_string(exec_threads));
  Fleet fleet = StartFleet(n, exec_threads);
  Coordinator coordinator(fleet.options);
  std::vector<StreamProgress> events;
  auto distributed =
      coordinator.Execute(sql, [&events](const QueryResult&, const StreamProgress& p) {
        events.push_back(p);
      });
  ASSERT_TRUE(distributed.ok()) << distributed.status().ToString();
  ASSERT_EQ(distributed->report.pipeline_outcomes.size(), n);

  const ExecutionReport& report = distributed->report;
  ASSERT_FALSE(events.empty());
  for (size_t e = 0; e + 1 < events.size(); ++e) {
    EXPECT_FALSE(events[e].final_batch) << "event " << e;
  }
  const StreamProgress& terminal = events.back();
  EXPECT_TRUE(terminal.final_batch);
  uint64_t blocks_total = 0;
  for (const PipelineOutcome& outcome : report.pipeline_outcomes) {
    blocks_total += outcome.blocks_total;
  }
  EXPECT_EQ(terminal.blocks_consumed, report.blocks_consumed);
  EXPECT_EQ(terminal.blocks_total, blocks_total);
  EXPECT_EQ(terminal.rows_consumed, report.rows_read);
  EXPECT_EQ(terminal.achieved_error, report.achieved_error);
  EXPECT_EQ(terminal.bound_met,
            report.effective_error_bound > 0.0 &&
                report.achieved_error <= report.effective_error_bound);
  EXPECT_EQ(terminal.bytes_scanned, report.bytes_scanned);
  EXPECT_EQ(terminal.bytes_decoded, report.bytes_decoded);

  uint64_t prefix_sum = 0;
  std::vector<ShardReference> shards(n);
  const auto& dbs = ShardSet(n);
  for (size_t i = 0; i < n; ++i) {
    const PipelineOutcome& outcome = distributed->report.pipeline_outcomes[i];
    EXPECT_FALSE(outcome.degraded);
    prefix_sum += outcome.blocks_consumed;
    shards[i].db = dbs[i].get();
    shards[i].consumed_blocks = outcome.blocks_consumed;
  }
  EXPECT_EQ(prefix_sum, distributed->report.blocks_consumed);

  auto reference = RunShardedReference(sql, shards, WorkerConfig(exec_threads),
                                       fleet.options.round_blocks);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  EXPECT_EQ(ResultFingerprint(distributed->result), ResultFingerprint(*reference));
}

TEST(CoordBitIdentity, PacedAvgAcrossShardCountsAndThreads) {
  const std::string sql =
      "SELECT AVG(bitrate) FROM sessions WHERE city = 'city_9' "
      "ERROR WITHIN 5% AT CONFIDENCE 95%";
  for (size_t n : {2, 3}) {
    for (size_t threads : {1, 3}) {
      ExpectBitIdentical(n, threads, sql);
    }
  }
}

TEST(CoordBitIdentity, PacedGroupedCount) {
  ExpectBitIdentical(2, 2,
                     "SELECT city, COUNT(*) FROM sessions WHERE bitrate > 2000 "
                     "GROUP BY city ERROR WITHIN 10% AT CONFIDENCE 95%");
}

TEST(CoordBitIdentity, UnpacedScatter) {
  ExpectBitIdentical(2, 2, "SELECT SUM(bitrate) FROM sessions WHERE city = 'city_3'");
}

TEST(Coord, RejectsNonRecombinableQueries) {
  CoordinatorOptions options;
  options.workers.push_back({"127.0.0.1", 1});  // validation precedes connect
  Coordinator coordinator(options);
  EXPECT_EQ(coordinator
                .Execute("SELECT QUANTILE(bitrate, 0.5) FROM sessions "
                         "ERROR WITHIN 5% AT CONFIDENCE 95%")
                .status()
                .code(),
            StatusCode::kUnimplemented);
  EXPECT_EQ(coordinator
                .Execute("SELECT city, COUNT(*) AS n FROM sessions GROUP BY city "
                         "HAVING n > 10")
                .status()
                .code(),
            StatusCode::kUnimplemented);
  EXPECT_EQ(coordinator.Execute("SELECT COUNT(*) FROM sessions WITHIN 2 SECONDS")
                .status()
                .code(),
            StatusCode::kUnimplemented);
}

// --- Scripted faulty workers -------------------------------------------------

// A raw-socket worker for fault injection: answers the HELLO/QUERY handshake
// like a real shard, streams scripted PARTIALs whose variance dominates the
// joint error (so the award loop deterministically keeps granting it), and
// then misbehaves on cue: `kKill` drops the connection after two granted
// rounds, `kStall` answers one round and then never writes another byte.
class FaultyWorker {
 public:
  enum class Mode { kKill, kStall };

  FaultyWorker(Mode mode, uint64_t shard_index, uint64_t shard_count)
      : mode_(mode), shard_index_(shard_index), shard_count_(shard_count) {
    auto listener = ListenTcp("127.0.0.1", 0, &port_);
    EXPECT_TRUE(listener.ok()) << listener.status().ToString();
    listener_ = std::move(*listener);
    thread_ = std::thread([this] { Serve(); });
  }

  ~FaultyWorker() {
    if (listener_.valid()) {
      ::shutdown(listener_.get(), SHUT_RDWR);
    }
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      if (conn_.valid()) {
        ::shutdown(conn_.get(), SHUT_RDWR);
      }
    }
    if (thread_.joinable()) {
      thread_.join();
    }
  }

  uint16_t port() const { return port_; }
  // The scripted estimate this worker injects into every combine.
  static constexpr double kValue = 1000.0;
  static constexpr double kVariance = 1.0e8;

 private:
  void SendPartial(uint64_t id, uint64_t seq, uint64_t consumed) {
    PartialFrame partial;
    partial.id = id;
    partial.seq = seq;
    partial.progress.blocks_consumed = consumed;
    partial.progress.blocks_total = 64;  // far from exhausted when it faults
    partial.progress.rows_consumed = consumed * 100;
    partial.result.aggregate_names = {"COUNT(*)"};
    ResultRow row;
    row.aggregates.push_back(Estimate{kValue, kVariance});
    partial.result.rows.push_back(row);
    partial.result.stats.rows_matched = consumed * 100;
    (void)WriteFrame(conn_.get(), EncodePartial(partial));
  }

  void Serve() {
    const int fd = ::accept(listener_.get(), nullptr, nullptr);
    if (fd < 0) {
      return;
    }
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      conn_ = OwnedFd(fd);
    }
    uint64_t seq = 0;
    uint64_t rounds_granted = 0;
    for (;;) {
      auto payload = ReadFrame(conn_.get());
      if (!payload.ok() || !payload->has_value()) {
        return;
      }
      auto frame = DecodeFrame(**payload);
      if (!frame.ok()) {
        return;
      }
      if (frame->type == FrameType::kHello) {
        HelloFrame reply;
        reply.peer = "faulty-worker/1";
        reply.tables = {"sessions"};
        reply.shard_index = shard_index_;
        reply.shard_count = shard_count_;
        (void)WriteFrame(conn_.get(), EncodeHello(reply));
      } else if (frame->type == FrameType::kQuery) {
        const auto& query = std::get<QueryFrame>(frame->payload);
        // Round 1 runs on the initial grant carried by the QUERY itself.
        SendPartial(query.id, ++seq, query.grant_blocks);
        if (mode_ == Mode::kStall) {
          return;  // keep the socket open via conn_, never write again
        }
      } else if (frame->type == FrameType::kGrant) {
        const auto& grant = std::get<GrantFrame>(frame->payload);
        if (++rounds_granted >= 2) {
          std::lock_guard<std::mutex> lock(conn_mu_);
          conn_.Close();  // kKill: drop mid-stream after two honored rounds
          return;
        }
        SendPartial(grant.id, ++seq, grant.blocks);
      }
    }
  }

  Mode mode_;
  uint64_t shard_index_;
  uint64_t shard_count_;
  OwnedFd listener_;
  // Written by the serving thread, shut down by the destructor. The serving
  // thread alone reads and writes through it, so only those two lock.
  std::mutex conn_mu_;
  OwnedFd conn_;
  uint16_t port_ = 0;
  std::thread thread_;
};

// One real worker (shard 0) plus one scripted faulty worker (shard 1): the
// query must complete Ok with the faulty shard frozen at its last snapshot,
// attributed as degraded, and still contributing to the combined answer.
// A bound far below reach keeps the award loop running to exhaustion.
void ExpectDegradedCompletion(FaultyWorker::Mode mode) {
  const auto& dbs = ShardSet(2);
  ServerOptions server_options;
  server_options.runtime = WorkerConfig(2);
  server_options.shard_index = 0;
  server_options.shard_count = 2;
  BlinkServer real(*dbs[0], server_options);
  ASSERT_TRUE(real.Start().ok());
  FaultyWorker faulty(mode, 1, 2);

  CoordinatorOptions options;
  options.workers.push_back({"127.0.0.1", real.port()});
  options.workers.push_back({"127.0.0.1", faulty.port()});
  options.round_blocks = 4;
  // Small round deadline so the stall is detected quickly; generous final
  // deadline so the healthy shard's gather never flakes under load.
  options.round_deadline_seconds = 0.5;
  options.final_deadline_seconds = 30.0;
  Coordinator coordinator(options);

  auto answer = coordinator.Execute(
      "SELECT COUNT(*) FROM sessions ERROR WITHIN 0.01% AT CONFIDENCE 95%");
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  ASSERT_EQ(answer->report.pipeline_outcomes.size(), 2u);
  const PipelineOutcome& healthy = answer->report.pipeline_outcomes[0];
  const PipelineOutcome& frozen = answer->report.pipeline_outcomes[1];
  EXPECT_FALSE(healthy.degraded);
  EXPECT_TRUE(frozen.degraded);
  EXPECT_GT(frozen.blocks_consumed, 0u);  // froze at a non-empty prefix
  // Conservation: the per-shard consumed prefixes are the combined charge.
  EXPECT_EQ(healthy.blocks_consumed + frozen.blocks_consumed,
            answer->report.blocks_consumed);
  // The frozen snapshot still contributes: the combined COUNT includes the
  // scripted shard's value, and its scripted variance widens the CI far past
  // anything a healthy all-real run would report.
  ASSERT_EQ(answer->result.rows.size(), 1u);
  EXPECT_GT(answer->result.rows[0].aggregates[0].value, FaultyWorker::kValue);
  EXPECT_GT(answer->result.rows[0].aggregates[0].variance, 0.5 * FaultyWorker::kVariance);
  EXPECT_GT(answer->report.achieved_error, 0.05);
  EXPECT_FALSE(answer->report.stopped_early);  // faults never end the query early
}

TEST(CoordFaults, KilledWorkerDegradesToFrozenPrefix) {
  ExpectDegradedCompletion(FaultyWorker::Mode::kKill);
}

TEST(CoordFaults, StragglerPastRoundDeadlineIsFrozen) {
  ExpectDegradedCompletion(FaultyWorker::Mode::kStall);
}

// A shard that dies before producing ANY snapshot leaves its strata
// unobserved — no unbiased combined estimate exists, so the query fails
// (with the shard named) rather than returning a silently biased answer.
TEST(CoordFaults, DeathBeforeFirstAnswerFailsTheQuery) {
  const auto& dbs = ShardSet(2);
  ServerOptions server_options;
  server_options.runtime = WorkerConfig(2);
  server_options.shard_index = 0;
  server_options.shard_count = 2;
  BlinkServer real(*dbs[0], server_options);
  ASSERT_TRUE(real.Start().ok());

  // A worker that greets, then slams the connection on the first QUERY.
  uint16_t port = 0;
  auto listener = ListenTcp("127.0.0.1", 0, &port);
  ASSERT_TRUE(listener.ok());
  std::thread dead_worker([&listener] {
    const int fd = ::accept(listener->get(), nullptr, nullptr);
    if (fd < 0) {
      return;
    }
    OwnedFd conn(fd);
    for (;;) {
      auto payload = ReadFrame(conn.get());
      if (!payload.ok() || !payload->has_value()) {
        return;
      }
      auto frame = DecodeFrame(**payload);
      if (frame.ok() && frame->type == FrameType::kHello) {
        HelloFrame reply;
        reply.shard_index = 1;
        reply.shard_count = 2;
        reply.tables = {"sessions"};
        (void)WriteFrame(conn.get(), EncodeHello(reply));
      } else {
        return;  // QUERY → close with no answer
      }
    }
  });

  CoordinatorOptions options;
  options.workers.push_back({"127.0.0.1", real.port()});
  options.workers.push_back({"127.0.0.1", port});
  options.round_deadline_seconds = 0.5;
  Coordinator coordinator(options);
  auto answer = coordinator.Execute(
      "SELECT COUNT(*) FROM sessions ERROR WITHIN 1% AT CONFIDENCE 95%");
  EXPECT_FALSE(answer.ok());
  EXPECT_NE(answer.status().ToString().find("shard 1"), std::string::npos);
  dead_worker.join();
}

// --- Coordinator protocol front ----------------------------------------------

// blinkdb_cli-compatible: a client speaking the ordinary wire protocol to
// the CoordServer gets streamed PARTIALs and a FINAL that matches a direct
// Coordinator::Execute bit-for-bit.
TEST(CoordServerFront, ServesScatteredQueriesOverTheWireProtocol) {
  Fleet fleet = StartFleet(2, 2);
  CoordServer front(fleet.options);
  ASSERT_TRUE(front.Start().ok());

  BlinkClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", front.port(), "coord_test/1").ok());
  EXPECT_EQ(client.server().tables, std::vector<std::string>{"sessions"});

  const std::string sql =
      "SELECT AVG(bitrate) FROM sessions WHERE city = 'city_9' "
      "ERROR WITHIN 5% AT CONFIDENCE 95%";
  size_t partials = 0;
  auto outcome = client.Query(sql, [&partials](const PartialFrame& partial) {
    ++partials;
    EXPECT_GT(partial.progress.blocks_consumed, 0u);
  });
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_GT(partials, 0u);
  EXPECT_EQ(outcome->report.family, "sharded");

  Coordinator direct(fleet.options);
  auto expected = direct.Execute(sql);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(ResultFingerprint(outcome->result), ResultFingerprint(expected->result));
  front.Stop();
}

// The front clears a session's active flag before the FINAL leaves, so a
// client that sends its next QUERY the moment it reads a FINAL never draws
// BUSY. A front that cleared it after the FINAL (with TCP_NODELAY removing
// the delay that used to hide the race) drew 1 BUSY in 6,000 such queries.
// The race depends on timing, so a buggy front can pass this test by luck;
// a fixed one never fails it.
TEST(CoordServerFront, BackToBackQueriesOnOneSessionNeverDrawBusy) {
  Fleet fleet = StartFleet(2, 1);
  CoordServer front(fleet.options);
  ASSERT_TRUE(front.Start().ok());
  BlinkClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", front.port(), "coord_test/1").ok());
  const std::string sql =
      "SELECT COUNT(*) FROM sessions WHERE city = 'city_3' "
      "ERROR WITHIN 50% AT CONFIDENCE 95%";
  constexpr int kQueries = 2'000;
  int failed = 0;
  std::string first_failure;
  for (int i = 0; i < kQueries; ++i) {
    auto outcome = client.Query(sql);
    if (!outcome.ok()) {
      if (failed++ == 0) {
        first_failure = "query " + std::to_string(i) + ": " + outcome.status().ToString();
      }
    }
  }
  EXPECT_EQ(failed, 0) << first_failure;
  front.Stop();
}

// Open descriptors of this process.
size_t OpenFds() {
  size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/fd")) {
    (void)entry;
    ++n;
  }
  return n;
}

// A closed client session gives its socket back when its reader sees the
// EOF, not at Stop(): 200 connect/close cycles used to leave 200 descriptors
// (and finished threads) behind until the front stopped.
TEST(CoordServerFront, ClosedSessionsReleaseTheirSockets) {
  Fleet fleet = StartFleet(2, 1);
  CoordServer front(fleet.options);
  ASSERT_TRUE(front.Start().ok());
  const size_t before = OpenFds();
  for (int i = 0; i < 200; ++i) {
    BlinkClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", front.port(), "coord_test/1").ok());
  }  // ~BlinkClient closes
  // The last readers may still be between the EOF and the close.
  size_t after = OpenFds();
  for (int wait = 0; wait < 500 && after > before + 2; ++wait) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    after = OpenFds();
  }
  EXPECT_LE(after, before + 2) << "before " << before;
  front.Stop();
}

// --- Protocol additions ------------------------------------------------------

TEST(CoordProtocol, GrantRoundTripsAndShardRoleRidesHello) {
  GrantFrame grant;
  grant.id = 42;
  grant.blocks = 96;
  auto decoded = DecodeFrame(EncodeGrant(grant));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->type, FrameType::kGrant);
  EXPECT_EQ(std::get<GrantFrame>(decoded->payload).id, 42u);
  EXPECT_EQ(std::get<GrantFrame>(decoded->payload).blocks, 96u);

  HelloFrame hello;
  hello.peer = "w";
  hello.shard_index = 2;
  hello.shard_count = 3;
  auto hello_decoded = DecodeFrame(EncodeHello(hello));
  ASSERT_TRUE(hello_decoded.ok());
  EXPECT_EQ(std::get<HelloFrame>(hello_decoded->payload).shard_index, 2u);
  EXPECT_EQ(std::get<HelloFrame>(hello_decoded->payload).shard_count, 3u);

  QueryFrame query;
  query.id = 7;
  query.sql = "SELECT COUNT(*) FROM sessions";
  query.round_blocks = 4;
  query.grant_blocks = 8;
  query.confidence = 0.99;
  auto query_decoded = DecodeFrame(EncodeQuery(query));
  ASSERT_TRUE(query_decoded.ok());
  const auto& q = std::get<QueryFrame>(query_decoded->payload);
  EXPECT_EQ(q.round_blocks, 4u);
  EXPECT_EQ(q.grant_blocks, 8u);
  EXPECT_EQ(q.confidence, 0.99);
}

}  // namespace
}  // namespace blink
