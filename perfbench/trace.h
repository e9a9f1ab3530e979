// Benchmark-side tracing: spans recorded around the calls into each layer's
// public functions, kept in memory and written out when the run ends.
//
// The in-process replay drives the same op stream through the functions the
// server's RunQuery / OnAppend call, in the same order (ParseSelect,
// BlinkDB::Resolve, BlinkDB::PinLevels, QueryRuntime::Execute or
// ExecuteLeveled, EncodeFinal, DecodeFrame; BlinkDB::Append and
// MaintenanceTick), Coordinator::Execute for scatter, and the demo's setup
// steps. Span names are "<layer>.<step>"; a layer's self time is its spans'
// durations minus the part their children cover.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/ops.h"
#include "src/api/blinkdb.h"

namespace perfbench {

struct Span {
  std::string name;
  double start = 0.0;  // steady-clock seconds
  double end = 0.0;
  int64_t parent = -1;  // index of the parent span, -1 for a root
  int64_t op = -1;      // op id within the stream, -1 for setup
  std::string detail;   // e.g. the cache outcome of runtime.execute
};

class Tracer {
 public:
  int64_t Open(std::string name, int64_t parent, int64_t op);
  void Close(int64_t id);
  int64_t Add(std::string name, double start, double end, int64_t parent, int64_t op);
  Span& at(int64_t id) { return spans_[static_cast<size_t>(id)]; }
  const std::vector<Span>& spans() const { return spans_; }

  // Appends `other`'s spans, re-basing their parent links.
  void Merge(const Tracer& other);
  // One JSON object per line.
  blink::Status Write(const std::string& path) const;
  // Seconds of self time per layer (the name's prefix before the first '.').
  std::map<std::string, double> LayerSelfTimes() const;
  // Durations in seconds of the spans named `name` (and, when given, with
  // that detail).
  std::vector<double> Durations(const std::string& name,
                                const std::string& detail = "") const;

 private:
  std::vector<Span> spans_;
};

// Counts the replay observes at layer boundaries.
struct ReplayCounts {
  uint64_t queries = 0;
  uint64_t failed = 0;
  uint64_t rounds = 0;          // non-final progress callbacks
  uint64_t rows_read = 0;       // ExecutionReport::rows_read of cold executions
  double scan_seconds = 0.0;    // runtime.execute time of those executions
  uint64_t cache_evictions = 0;
  std::vector<double> live_runs;  // pinned runs per query
  uint64_t appends = 0;
  uint64_t ticks = 0;
  uint64_t merges = 0;
  uint64_t rows_appended = 0;
  uint64_t rows_rewritten = 0;  // rows of runs a tick published
  // Blocks each cold ("miss") execution consumed, by op. They depend on the
  // morsel size and round cadence, so they show whether the replay runs the
  // server's configuration.
  std::map<const QuerySpec*, uint64_t> cold_blocks;
};

// Replays a query workload (adhoc, dashboard, ingest) against `db` with the
// server's default runtime configuration and answer-cache size. Ingest
// interleaves one AppendBatch per kReadsPerAppend measured reads.
blink::Status ReplayServer(const Streams& streams, bool ingest, uint64_t seed,
                           blink::BlinkDB& db, Tracer& tracer, ReplayCounts* counts);

// Replays the scatter stream through an in-process Coordinator over the
// running shard workers.
blink::Status ReplayScatter(const Streams& streams, const std::vector<uint16_t>& workers,
                            Tracer& tracer, ReplayCounts* counts);

// What the demo set-up built for the `sessions` table.
struct SetupCounts {
  double table_rows = 0.0;
  double sample_rows = 0.0;    // rows of the table's sample families
  double raw_bytes = 0.0;      // column bytes before encoding
  double encoded_bytes = 0.0;  // and after

  double SampleRowsPerRow() const { return table_rows > 0 ? sample_rows / table_rows : 0.0; }
  double CompressionRatio() const { return encoded_bytes > 0 ? raw_bytes / encoded_bytes : 0.0; }
};

SetupCounts CountSetup(const blink::BlinkDB& db);

// Builds a throwaway copy of the demo database step by step, timing each
// step. The steps repeat BuildConvivaDemo's; the copy must come out as
// `demo`, counted from a database BuildConvivaDemo built, or this fails.
blink::Status TraceSetup(const SetupCounts& demo, Tracer& tracer);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
