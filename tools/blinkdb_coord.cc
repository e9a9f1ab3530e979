// blinkdb_coord — scatter/gather coordinator for sharded blinkdb_server
// workers (docs/ARCHITECTURE.md "Distributed scatter/gather").
//
// Three modes:
//   serve (default)   protocol front: listens on the wire protocol and
//                     scatters every QUERY through the worker fleet, so
//                     blinkdb_cli talks to a sharded deployment unchanged.
//   --execute SQL     one-shot: scatter the query, print rounds + the
//                     combined answer with per-shard attribution, exit.
//   --selfcheck       acceptance gate: scatter --query SQL to the workers,
//                     rebuild the same answer in-process from the recorded
//                     per-shard consumed prefixes (src/coord/selfcheck.h),
//                     and require the two to be bit-identical (%.17g).
//                     Exit 0 iff they are.
//
// Example (2-way deployment):
//   ./blinkdb_server --shard-index 0 --shard-count 2 --port-file w0 &
//   ./blinkdb_server --shard-index 1 --shard-count 2 --port-file w1 &
//   ./blinkdb_coord --workers 127.0.0.1:$(cat w0),127.0.0.1:$(cat w1)
//       --selfcheck --query "SELECT AVG(bitrate) FROM sessions
//       WHERE city = 'city_9' ERROR WITHIN 5% AT CONFIDENCE 95%"
//
// Flags:
//   --workers A,B,... worker addresses host:port, in shard order (required)
//   --port P          serve mode listen port, 0=ephemeral (default 0)
//   --port-file PATH  write the bound serve port here (default off)
//   --round-blocks B  blocks granted per scheduling round (default 4)
//   --deadline S      per-round straggler deadline, seconds (default 5)
//   --final-deadline S  one-shot/gather deadline, seconds (default 30)
//   --execute SQL     one-shot mode
//   --selfcheck       selfcheck mode; needs --query
//   --query SQL       the query the selfcheck scatters
//   --rows N          selfcheck: demo rows the workers were booted with
//                                               (default 120000)
//   --threads T       selfcheck: workers' --threads     (default 2)
//   --morsel-rows M   selfcheck: workers' --morsel-rows (default 512)
// The three selfcheck mirrors must match the worker flags — they shape the
// block-consumption trace the recorded prefixes came from.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/coord/coord_server.h"
#include "src/coord/coordinator.h"
#include "src/coord/selfcheck.h"
#include "src/util/string_util.h"
#include "src/workload/demo_db.h"

namespace {

const char* FlagValue(int argc, char** argv, const char* flag, const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      return argv[i + 1];
    }
  }
  return fallback;
}

bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      return true;
    }
  }
  return false;
}

// "host:port,host:port,..." in shard order.
bool ParseWorkers(const std::string& spec, std::vector<blink::ShardAddress>& out) {
  for (const auto& part : blink::Split(spec, ',')) {
    const auto colon = part.rfind(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 >= part.size()) {
      return false;
    }
    const int port = std::atoi(std::string(part.substr(colon + 1)).c_str());
    if (port <= 0 || port > 65535) {
      return false;
    }
    blink::ShardAddress address;
    address.host = std::string(part.substr(0, colon));
    address.port = static_cast<uint16_t>(port);
    out.push_back(std::move(address));
  }
  return !out.empty();
}

void PrintAnswer(const blink::ApproxAnswer& answer) {
  using namespace blink;
  const ExecutionReport& report = answer.report;
  std::printf("FINAL family=%s shards=%llu blocks=%llu/%llu error=%.2f%%%s%s\n",
              report.family.c_str(),
              static_cast<unsigned long long>(report.num_subqueries),
              static_cast<unsigned long long>(report.blocks_consumed),
              static_cast<unsigned long long>(report.blocks_read),
              100.0 * report.achieved_error,
              report.stopped_early ? " (stopped early)" : "",
              report.cancelled ? " (cancelled)" : "");
  for (size_t i = 0; i < report.pipeline_outcomes.size(); ++i) {
    const PipelineOutcome& shard = report.pipeline_outcomes[i];
    std::printf("  shard %zu: blocks=%llu/%llu rows=%llu rounds=%llu share=%.3f%s\n",
                i, static_cast<unsigned long long>(shard.blocks_consumed),
                static_cast<unsigned long long>(shard.blocks_total),
                static_cast<unsigned long long>(shard.rows_consumed),
                static_cast<unsigned long long>(shard.scheduled_rounds),
                shard.error_contribution,
                shard.degraded ? " DEGRADED" : "");
  }
  std::printf("%s", answer.result.ToString().c_str());
}

// Scatters to the live workers, rebuilds the answer in-process at the
// recorded per-shard prefixes, and compares %.17g fingerprints.
int RunSelfcheck(blink::Coordinator& coordinator, const std::string& sql,
                 uint64_t rows, const blink::RuntimeConfig& runtime_config) {
  using namespace blink;
  auto distributed = coordinator.Execute(sql);
  if (!distributed.ok()) {
    std::fprintf(stderr, "selfcheck: distributed run failed: %s\n",
                 distributed.status().ToString().c_str());
    return 1;
  }
  const auto& outcomes = distributed->report.pipeline_outcomes;
  const size_t n = coordinator.options().workers.size();
  if (outcomes.size() != n) {
    std::fprintf(stderr, "selfcheck: %zu shard outcomes for %zu workers\n",
                 outcomes.size(), n);
    return 1;
  }

  // Rebuild each worker's serving state (same seed, same striping) and freeze
  // it at the consumed prefix the distributed run recorded.
  std::vector<BlinkDB> dbs(n);
  std::vector<ShardReference> shards(n);
  for (size_t i = 0; i < n; ++i) {
    DemoDbOptions demo;
    demo.rows = rows;
    demo.shard_index = i;
    demo.shard_count = n;
    if (Status s = BuildConvivaDemo(dbs[i], demo); !s.ok()) {
      std::fprintf(stderr, "selfcheck: shard %zu rebuild failed: %s\n", i,
                   s.ToString().c_str());
      return 1;
    }
    shards[i].db = &dbs[i];
    shards[i].consumed_blocks = outcomes[i].blocks_consumed;
  }
  auto reference = RunShardedReference(sql, shards, runtime_config,
                                       coordinator.options().round_blocks);
  if (!reference.ok()) {
    std::fprintf(stderr, "selfcheck: reference run failed: %s\n",
                 reference.status().ToString().c_str());
    return 1;
  }

  const std::string got = ResultFingerprint(distributed->result);
  const std::string want = ResultFingerprint(*reference);
  if (got != want) {
    std::fprintf(stderr,
                 "selfcheck: MISMATCH\n--- distributed ---\n%s--- reference ---\n%s",
                 got.c_str(), want.c_str());
    return 1;
  }
  std::printf("selfcheck: OK — %zu shards bit-identical over %llu blocks\n", n,
              static_cast<unsigned long long>(distributed->report.blocks_consumed));
  PrintAnswer(*distributed);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace blink;

  CoordinatorOptions options;
  const std::string workers = FlagValue(argc, argv, "--workers", "");
  if (workers.empty() || !ParseWorkers(workers, options.workers)) {
    std::fprintf(stderr,
                 "usage: blinkdb_coord --workers host:port,... "
                 "[--port P] [--execute SQL] [--selfcheck --query SQL]\n");
    return 2;
  }
  options.round_blocks =
      static_cast<uint64_t>(std::atoll(FlagValue(argc, argv, "--round-blocks", "4")));
  options.round_deadline_seconds = std::atof(FlagValue(argc, argv, "--deadline", "5"));
  options.final_deadline_seconds =
      std::atof(FlagValue(argc, argv, "--final-deadline", "30"));
  Coordinator coordinator(options);

  if (HasFlag(argc, argv, "--selfcheck")) {
    const std::string query = FlagValue(argc, argv, "--query", "");
    if (query.empty()) {
      std::fprintf(stderr, "--selfcheck needs --query SQL\n");
      return 2;
    }
    const uint64_t rows =
        static_cast<uint64_t>(std::atoll(FlagValue(argc, argv, "--rows", "120000")));
    RuntimeConfig runtime_config;
    runtime_config.exec_threads =
        static_cast<size_t>(std::atoi(FlagValue(argc, argv, "--threads", "2")));
    runtime_config.morsel_rows =
        static_cast<uint32_t>(std::atoi(FlagValue(argc, argv, "--morsel-rows", "512")));
    return RunSelfcheck(coordinator, query, rows, runtime_config);
  }

  const std::string execute = FlagValue(argc, argv, "--execute", "");
  if (!execute.empty()) {
    uint64_t rounds = 0;
    auto answer = coordinator.Execute(
        execute, [&rounds](const QueryResult&, const StreamProgress& p) {
          ++rounds;  // every gathered round, the last (final_batch) one too
          std::printf("ROUND %llu blocks=%llu/%llu error=%.2f%%\n",
                      static_cast<unsigned long long>(rounds),
                      static_cast<unsigned long long>(p.blocks_consumed),
                      static_cast<unsigned long long>(p.blocks_total),
                      100.0 * p.achieved_error);
          std::fflush(stdout);
        });
    if (!answer.ok()) {
      std::fprintf(stderr, "ERROR %s\n", answer.status().ToString().c_str());
      return 1;
    }
    PrintAnswer(*answer);
    return 0;
  }

  // Serve mode: the protocol front of a sharded deployment.
  CoordServerOptions serve;
  serve.port = static_cast<uint16_t>(std::atoi(FlagValue(argc, argv, "--port", "0")));
  CoordServer server(std::move(options), serve);
  if (Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "start failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("coordinating %zu workers; listening on %s:%u\n",
              coordinator.options().workers.size(), serve.host.c_str(), server.port());
  std::fflush(stdout);
  const std::string port_file = FlagValue(argc, argv, "--port-file", "");
  if (!port_file.empty()) {
    if (std::FILE* f = std::fopen(port_file.c_str(), "w"); f != nullptr) {
      std::fprintf(f, "%u\n", server.port());
      std::fclose(f);
    } else {
      std::fprintf(stderr, "cannot write --port-file %s\n", port_file.c_str());
      return 1;
    }
  }
  for (;;) {
    ::pause();
  }
}
