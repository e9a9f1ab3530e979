// Seeded operation streams for the four benchmark workloads.
//
// Every stream is a pure function of (workload, seed, seconds) and of the
// demo table the servers generate themselves, so the same arguments always
// give a byte-identical query and append stream (pinned by selftest.cc).
#ifndef PERFBENCH_OPS_H_
#define PERFBENCH_OPS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/storage/table.h"

namespace perfbench {

enum class Workload { kAdhoc, kDashboard, kIngest, kScatter };

const char* WorkloadName(Workload workload);
std::optional<Workload> ParseWorkload(const std::string& name);

// The deployment every workload runs against: blinkdb_server at its default
// flags except --rows, and a 2-way sharded fleet for scatter.
inline constexpr uint64_t kDemoRows = 400'000;
inline constexpr uint64_t kShards = 2;
// Ingest: rows per APPEND, and completed reads (across readers) per APPEND.
inline constexpr uint64_t kAppendRows = 2'000;
inline constexpr uint64_t kReadsPerAppend = 8;
// Ingest: read-back queries the writer asks after each acknowledged APPEND.
inline constexpr uint64_t kProbesPerAppend = 2;
// Seed documented for performance claims: never use it while tuning a change.
inline constexpr uint64_t kHeldOutSeed = 20130415;

enum class Agg { kCount, kSum, kAvg, kQuantile };

// One bounded aggregate query, kept structured so the truth side can reuse
// its shape without the bound.
struct QuerySpec {
  Agg agg = Agg::kCount;
  std::string column;    // aggregate argument; empty for COUNT(*)
  std::string where;     // rendered predicate; empty for none
  std::string group_by;  // one column; empty for a scalar answer
  int error_pct = 0;     // ERROR WITHIN error_pct% AT CONFIDENCE 95%
  int time_seconds = 0;  // WITHIN time_seconds SECONDS (when error_pct == 0)
  bool drill_down = false;

  // The statement without its bound: what the exact answer is computed for.
  std::string Select() const;
  // The statement with its bound clause: what goes on the wire.
  std::string Sql() const;
};

struct Streams {
  // Query connections, each an ordered list of ops. The first `warmup` ops
  // of every connection are not timed.
  std::vector<std::vector<QuerySpec>> conns;
  size_t warmup = 0;
  // Ingest only: APPEND batches the writer sends during the measured phase,
  // and the writer's read-back queries, kProbesPerAppend after each
  // acknowledged batch. A read-back never overlaps an APPEND, so its exact
  // answer is known: these are the answers ingest's accuracy metrics score.
  uint64_t append_batches = 0;
  std::vector<QuerySpec> probes;

  size_t MeasuredQueries() const;
};

// Builds the op streams. `sessions` is the demo table (constants are drawn
// from its rows, so predicates follow the data's skew).
Streams MakeStreams(Workload workload, uint64_t seed, int seconds,
                    const blink::Table& sessions);

// Ingest batch `batch` of the run seeded `seed`: kAppendRows fresh
// Conviva-like rows from the demo generator's arrival process.
blink::Table AppendBatch(uint64_t seed, uint64_t batch);

// The APPEND frame payload carrying `rows` into the sessions table.
std::string AppendPayload(const blink::Table& rows, uint64_t id);

// Every SQL string of the streams plus every encoded APPEND frame, in op
// order: the bytes the servers receive.
std::string StreamBytes(const Streams& streams, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_OPS_H_
