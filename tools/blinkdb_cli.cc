// blinkdb_cli — interactive REPL (and one-shot runner) for a BlinkServer.
//
// Streams bounded queries and prints each PARTIAL as the answer converges:
//
//   $ ./blinkdb_cli --port 4411
//   connected to blinkdb-server/1 (protocol 1); tables: sessions
//   blink> SELECT COUNT(*) FROM sessions WHERE city = 'city_9' ERROR WITHIN 2% AT CONFIDENCE 95%
//   PARTIAL #1 blocks=8/118 rows=4096 error=9.31%
//   PARTIAL #2 blocks=16/118 rows=8192 error=4.02%
//   FINAL family={city} blocks=40/118 error=1.87% latency=0.42 s
//   ... result table ...
//
// Flags:
//   --host H           server address (default 127.0.0.1)
//   --port P           server port (required)
//   --execute SQL      run one query, print its frames, exit (for scripts/CI)
//   --append-rows N    generate N synthetic Conviva arrival rows client-side
//                      and APPEND them to the sessions table before --execute
//                      (or instead of the REPL); exercises streaming ingest
//   --append-seed S    RNG seed for the generated arrivals (default 7)
//   --append-table T   target table for --append-rows (default sessions)
//
// REPL commands: \q quits; anything else is sent as SQL.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "src/client/blink_client.h"
#include "src/util/string_util.h"
#include "src/workload/conviva.h"

namespace {

const char* FlagValue(int argc, char** argv, const char* flag, const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      return argv[i + 1];
    }
  }
  return fallback;
}

// Runs one query, rendering PARTIAL lines as they arrive and the FINAL
// answer (with its report summary) last. Returns false on failure.
bool RunQuery(blink::BlinkClient& client, const std::string& sql) {
  using namespace blink;
  auto outcome = client.Query(sql, [](const PartialFrame& partial) {
    std::printf("PARTIAL #%llu blocks=%llu/%llu rows=%llu error=%.2f%%%s\n",
                static_cast<unsigned long long>(partial.seq),
                static_cast<unsigned long long>(partial.progress.blocks_consumed),
                static_cast<unsigned long long>(partial.progress.blocks_total),
                static_cast<unsigned long long>(partial.progress.rows_consumed),
                100.0 * partial.progress.achieved_error,
                partial.progress.bound_met ? " (bound met)" : "");
    std::fflush(stdout);
  });
  if (!outcome.ok()) {
    std::printf("ERROR %s\n", outcome.status().ToString().c_str());
    return false;
  }
  const ExecutionReport& report = outcome->report;
  // Queueing vs work decompose: queue_latency is real wall time spent in the
  // server's admission queue, total_latency the modeled execution time.
  std::string annotations;
  if (!report.cache.empty()) {
    annotations += " cache=" + report.cache;
  }
  if (report.queue_latency > 0.0) {
    annotations += " queued=" + HumanSeconds(report.queue_latency);
  }
  if (report.effective_error_bound > 0.0) {
    char bound[32];
    std::snprintf(bound, sizeof(bound), " bound=%.2f%%",
                  100.0 * report.effective_error_bound);
    annotations += bound;
  }
  std::printf("FINAL family=%s blocks=%llu/%llu error=%.2f%% exec=%s%s%s%s\n",
              report.family.c_str(),
              static_cast<unsigned long long>(report.blocks_consumed),
              static_cast<unsigned long long>(report.blocks_read),
              100.0 * report.achieved_error,
              HumanSeconds(report.execution_latency).c_str(), annotations.c_str(),
              report.stopped_early ? " (stopped early)" : "",
              report.cancelled ? " (cancelled)" : "");
  std::printf("%s", outcome->result.ToString().c_str());
  std::fflush(stdout);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace blink;

  const std::string host = FlagValue(argc, argv, "--host", "127.0.0.1");
  const int port = std::atoi(FlagValue(argc, argv, "--port", "0"));
  const std::string execute = FlagValue(argc, argv, "--execute", "");
  const uint64_t append_rows =
      static_cast<uint64_t>(std::atoll(FlagValue(argc, argv, "--append-rows", "0")));
  const uint64_t append_seed =
      static_cast<uint64_t>(std::atoll(FlagValue(argc, argv, "--append-seed", "7")));
  const std::string append_table = FlagValue(argc, argv, "--append-table", "sessions");
  if (port <= 0 || port > 65535) {
    std::fprintf(stderr,
                 "usage: blinkdb_cli --port P [--host H] [--execute SQL] "
                 "[--append-rows N [--append-seed S] [--append-table T]]\n");
    return 2;
  }

  BlinkClient client;
  if (Status s = client.Connect(host, static_cast<uint16_t>(port), "blinkdb_cli/1");
      !s.ok()) {
    std::fprintf(stderr, "connect failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("connected to %s (protocol %lld); tables: %s\n",
              client.server().peer.c_str(),
              static_cast<long long>(client.server().protocol_version),
              Join(client.server().tables, ", ").c_str());

  if (append_rows > 0) {
    // Arrival rows are generated client-side (same schema and distributions
    // as the server's demo table) and streamed over one APPEND frame.
    Rng rng(append_seed);
    const Table batch = GenerateConvivaArrivals(ConvivaConfig{}, append_rows, rng);
    auto appended = client.Append(append_table, batch);
    if (!appended.ok()) {
      std::fprintf(stderr, "append failed: %s\n",
                   appended.status().ToString().c_str());
      return 1;
    }
    std::printf("APPENDED rows=%llu version=%llu\n",
                static_cast<unsigned long long>(appended->rows_appended),
                static_cast<unsigned long long>(appended->version));
    std::fflush(stdout);
    if (execute.empty()) {
      return 0;
    }
  }

  if (!execute.empty()) {
    return RunQuery(client, execute) ? 0 : 1;
  }

  std::string line;
  for (;;) {
    std::printf("blink> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) {
      break;
    }
    const std::string sql = std::string(StripWhitespace(line));
    if (sql.empty()) {
      continue;
    }
    if (sql == "\\q" || sql == "quit" || sql == "exit") {
      break;
    }
    RunQuery(client, sql);
  }
  return 0;
}
