// perfbench — the repository benchmark driver.
//
// Deploys the shipped binaries as separate processes (blinkdb_server at its
// default flags except --rows; for scatter two --shard-count 2 workers behind
// blinkdb_coord), drives one seeded closed-loop workload over the wire
// protocol, checks every answer against exact ground truth, and prints every
// metric by name with its unit. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). README.md in this directory documents workloads and metrics.
//
//   perfbench --workload adhoc|dashboard|ingest|scatter --seed N --seconds S
//             --trace 0|1 --work-dir DIR
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/metrics.h"
#include "perfbench/ops.h"
#include "perfbench/procs.h"
#include "perfbench/trace.h"
#include "perfbench/truth.h"
#include "perfbench/wire.h"
#include "src/workload/demo_db.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

constexpr double kConfidence = 0.95;
// Set-ups per run; setup_s is their median. One set-up's time moves with the
// shared host's speed; each costs about 2 s of the run.
constexpr int kSetups = 3;
constexpr double kReadyTimeoutS = 120.0;

struct Args {
  Workload workload = Workload::kAdhoc;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      const auto w = ParseWorkload(value);
      if (!w.has_value()) {
        return false;
      }
      args->workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::max(1, std::atoi(value.c_str()));
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return have_workload;
}

// ---- Deployment -------------------------------------------------------------

struct Deployment {
  Fleet fleet;
  uint16_t front = 0;             // the port clients talk to
  std::vector<uint16_t> workers;  // scatter shard workers
};

struct SetUpCost {
  double seconds = 0.0;  // median set-up time
  double rss_mb = 0.0;   // median peak RSS of the fleet right after set-up
};

// Launches the workload's server processes and waits for every port file.
// Returns the set-up time: launch until the last port file is written.
blink::Result<double> Deploy(Workload workload, const std::string& dir, Deployment* d) {
  const std::string rows = std::to_string(kDemoRows);
  auto port_file = [&](const std::string& name) {
    const std::string path = dir + "/" + name + ".port";
    fs::remove(path);
    return path;
  };
  const double start = Now();
  if (workload != Workload::kScatter) {
    const std::string file = port_file("server");
    auto pid = d->fleet.Launch(
        {PERFBENCH_SERVER_BIN, "--rows", rows, "--port-file", file}, dir + "/server.log");
    if (!pid.ok()) {
      return pid.status();
    }
    auto port = d->fleet.AwaitPort(file, *pid, kReadyTimeoutS);
    if (!port.ok()) {
      return port.status();
    }
    d->front = *port;
    return Now() - start;
  }
  std::vector<std::pair<pid_t, std::string>> launched;
  for (uint64_t i = 0; i < kShards; ++i) {
    const std::string name = "worker" + std::to_string(i);
    const std::string file = port_file(name);
    auto pid = d->fleet.Launch({PERFBENCH_SERVER_BIN, "--rows", rows, "--shard-index",
                                std::to_string(i), "--shard-count", std::to_string(kShards),
                                "--port-file", file},
                               dir + "/" + name + ".log");
    if (!pid.ok()) {
      return pid.status();
    }
    launched.emplace_back(*pid, file);
  }
  std::string workers;
  d->workers.clear();
  for (const auto& [pid, file] : launched) {
    auto port = d->fleet.AwaitPort(file, pid, kReadyTimeoutS);
    if (!port.ok()) {
      return port.status();
    }
    d->workers.push_back(*port);
    workers += (workers.empty() ? "" : ",") + std::string("127.0.0.1:") + std::to_string(*port);
  }
  const std::string file = port_file("coord");
  auto pid = d->fleet.Launch({PERFBENCH_COORD_BIN, "--workers", workers, "--port-file", file},
                             dir + "/coord.log");
  if (!pid.ok()) {
    return pid.status();
  }
  auto port = d->fleet.AwaitPort(file, *pid, kReadyTimeoutS);
  if (!port.ok()) {
    return port.status();
  }
  d->front = *port;
  return Now() - start;
}

// ---- The closed-loop phase --------------------------------------------------

struct QueryRecord {
  const QuerySpec* spec = nullptr;
  bool measured = false;
  Reply reply;
  // Ingest: APPENDs acknowledged before the send, and APPENDs sent by the
  // time the FINAL arrived. They differ when an APPEND was in flight.
  uint64_t acked_before = 0;
  uint64_t sent_after = 0;
  bool probe = false;  // ingest: the writer's read-back, scored for accuracy
};

struct PhaseResult {
  std::vector<QueryRecord> queries;
  std::vector<double> append_ms;
  std::vector<std::string> append_errors;
  uint64_t appends_acked = 0;
  // The measured phase's wall time, and the server processes' user+sys CPU
  // over it.
  double wall_s = 0.0;
  double cpu_s = 0.0;
  Tracer client_spans;  // traced runs only
};

// Releases the measured phase once every connection finished its warm-up,
// so the phase's clock and CPU snapshot exclude the warm-up.
class Gate {
 public:
  explicit Gate(size_t parties) : parties_(parties) {}

  void ArriveAndWait() {
    std::unique_lock<std::mutex> lock(mu_);
    ++arrived_;
    cv_.notify_all();
    cv_.wait(lock, [this] { return open_; });
  }

  // Waits for every party, runs `on_open`, then lets them all through.
  template <typename F>
  void Open(F on_open) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return arrived_ == parties_; });
    on_open();
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t parties_;
  size_t arrived_ = 0;
  bool open_ = false;
};

// Ingest pacing: the writer sends batch b once (b + 1) * kReadsPerAppend
// measured reads completed, counted across readers. The stream has at most
// one batch per kReadsPerAppend measured reads, so every batch becomes due.
struct IngestPace {
  std::mutex mu;
  std::condition_variable cv;
  uint64_t reads_done = 0;
  std::atomic<uint64_t> sent{0};
  std::atomic<uint64_t> acked{0};
};

void RunReader(const std::vector<QuerySpec>& ops, size_t warmup, uint16_t port, bool trace,
               Gate& gate, IngestPace* pace, std::vector<QueryRecord>* out, Tracer* spans) {
  WireConn conn;
  (void)conn.Connect(port);
  out->resize(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    if (i == warmup) {
      gate.ArriveAndWait();
    }
    QueryRecord& rec = (*out)[i];
    rec.spec = &ops[i];
    rec.measured = i >= warmup;
    const bool paced = pace != nullptr && rec.measured;
    if (paced) {
      rec.acked_before = pace->acked.load();
    }
    if (!conn.connected() && !conn.Connect(port).ok()) {
      rec.reply.error = "CONNECT";
    } else {
      rec.reply = conn.Query(ops[i].Sql());
    }
    // Every measured read counts, failed ones too, so the writer's last
    // batch always becomes due.
    if (paced) {
      rec.sent_after = pace->sent.load();
      std::lock_guard<std::mutex> lock(pace->mu);
      ++pace->reads_done;
      pace->cv.notify_all();
    }
    if (trace && rec.reply.ok()) {
      const Reply& r = rec.reply;
      const int64_t op = static_cast<int64_t>(i);
      const int64_t root = spans->Add("client.query", r.sent, r.done, -1, op);
      spans->Add("server.queue", r.sent, r.sent + r.final.report.queue_latency, root, op);
      spans->Add("client.first_answer", r.sent, r.first, root, op);
      spans->Add("client.decode", r.done - r.decode_s, r.done, root, op);
    }
  }
  if (warmup >= ops.size()) {
    gate.ArriveAndWait();
  }
}

void RunWriter(const Streams& streams, const std::vector<std::string>& payloads,
               uint16_t port, Gate& gate, IngestPace& pace, PhaseResult* result,
               std::vector<QueryRecord>* probes) {
  WireConn conn;
  const blink::Status connected = conn.Connect(port);
  gate.ArriveAndWait();
  for (uint64_t b = 0; b < streams.append_batches; ++b) {
    {
      std::unique_lock<std::mutex> lock(pace.mu);
      pace.cv.wait(lock, [&] { return pace.reads_done >= (b + 1) * kReadsPerAppend; });
    }
    if (!connected.ok() || !conn.connected()) {
      result->append_errors.push_back("CONNECT");
      continue;
    }
    ++pace.sent;
    const double start = Now();
    const std::string error = conn.Append(payloads[b], b + 1);
    if (!error.empty()) {
      result->append_errors.push_back(error);
      continue;
    }
    result->append_ms.push_back((Now() - start) * 1e3);
    ++pace.acked;
    for (uint64_t p = 0; p < kProbesPerAppend; ++p) {
      QueryRecord rec;
      rec.spec = &streams.probes[b * kProbesPerAppend + p];
      rec.measured = true;
      rec.probe = true;
      rec.acked_before = rec.sent_after = pace.acked.load();
      rec.reply = conn.Query(rec.spec->Sql());
      probes->push_back(std::move(rec));
      if (!conn.connected()) {
        break;
      }
    }
  }
}

blink::Result<PhaseResult> RunPhase(const Streams& streams, uint64_t seed, bool trace,
                                    Deployment& d) {
  PhaseResult result;
  // Encoded before the phase: the writer's clock covers only the exchange.
  std::vector<std::string> payloads;
  for (uint64_t b = 0; b < streams.append_batches; ++b) {
    payloads.push_back(AppendPayload(AppendBatch(seed, b), b + 1));
  }
  const bool ingest = streams.append_batches > 0;
  IngestPace pace;
  Gate gate(streams.conns.size() + (ingest ? 1 : 0));
  // One record list per connection; the writer's read-backs come last.
  std::vector<std::vector<QueryRecord>> records(streams.conns.size() + 1);
  std::vector<Tracer> spans(streams.conns.size());
  std::vector<std::thread> threads;
  for (size_t c = 0; c < streams.conns.size(); ++c) {
    threads.emplace_back([&, c] {
      RunReader(streams.conns[c], streams.warmup, d.front, trace, gate,
                ingest ? &pace : nullptr, &records[c], &spans[c]);
    });
  }
  if (ingest) {
    threads.emplace_back([&] {
      RunWriter(streams, payloads, d.front, gate, pace, &result, &records.back());
    });
  }
  double start = 0.0;
  blink::Result<double> cpu_start = 0.0;
  gate.Open([&] {
    cpu_start = d.fleet.CpuSeconds();
    start = Now();
  });
  for (auto& t : threads) {
    t.join();
  }
  result.wall_s = Now() - start;
  const blink::Result<double> cpu_end = d.fleet.CpuSeconds();
  if (!cpu_start.ok() || !cpu_end.ok()) {
    return blink::Status::Internal("server process vanished during the run");
  }
  result.cpu_s = *cpu_end - *cpu_start;
  result.appends_acked = pace.acked.load();
  for (auto& list : records) {
    for (auto& rec : list) {
      result.queries.push_back(std::move(rec));
    }
  }
  for (const Tracer& t : spans) {
    result.client_spans.Merge(t);
  }
  return result;
}

// ---- Checks and metrics -----------------------------------------------------

struct Checked {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, uint64_t> failures;  // reason -> count
  Accuracy accuracy;

  void Fail(const std::string& reason) {
    ++failed;
    ++failures[reason.substr(0, 400)];
  }
};

bool SameAnswer(const blink::FinalFrame& a, const blink::FinalFrame& b) {
  if (a.result.rows.size() != b.result.rows.size() ||
      a.report.stopped_early != b.report.stopped_early ||
      a.report.achieved_error != b.report.achieved_error ||
      a.report.effective_error_bound != b.report.effective_error_bound) {
    return false;
  }
  for (size_t i = 0; i < a.result.rows.size(); ++i) {
    const auto& x = a.result.rows[i];
    const auto& y = b.result.rows[i];
    if (!(x.group_values == y.group_values) || x.aggregates.size() != y.aggregates.size()) {
      return false;
    }
    for (size_t j = 0; j < x.aggregates.size(); ++j) {
      if (x.aggregates[j].value != y.aggregates[j].value ||
          x.aggregates[j].variance != y.aggregates[j].variance) {
        return false;
      }
    }
  }
  return true;
}

// Applies the answer checks to every op of a phase and scores the measured
// answers' accuracy.
void CheckPhase(Workload workload, const PhaseResult& phase, const Truth& truth,
                Checked* out) {
  // The last scored answer per statement: cache hits repeat it exactly, and
  // re-scoring a 500-group answer 10^4 times would dominate the run.
  struct Scored {
    const blink::FinalFrame* final = nullptr;
    CellScore score;
  };
  std::map<std::string, Scored> last;
  for (const QueryRecord& rec : phase.queries) {
    ++out->attempted;
    const Reply& r = rec.reply;
    if (!r.ok()) {
      out->Fail(r.error + " " + r.message + " [" + rec.spec->Sql() + "]");
      continue;
    }
    if (workload == Workload::kScatter) {
      const auto& shards = r.final.report.pipeline_outcomes;
      if (std::any_of(shards.begin(), shards.end(),
                      [](const blink::PipelineOutcome& o) { return o.degraded; })) {
        out->Fail("degraded shard");
        continue;
      }
    }
    CellScore score;
    std::optional<std::string> verdict;
    bool scored = rec.measured;
    Scored& seen = last[rec.spec->Sql()];
    if (workload != Workload::kIngest && seen.final != nullptr &&
        SameAnswer(*seen.final, r.final)) {
      score = seen.score;  // passed its check before
    } else if (workload == Workload::kIngest) {
      // Only the writer's read-backs are scored: they saw exactly the
      // acknowledged batches. A reader's query may have overlapped an APPEND
      // and seen between acked_before and sent_after batches; it is checked
      // against the later truth, whose groups include every group it may see.
      scored = rec.probe;
      verdict = ScoreAnswer(r.final.result, r.final.report,
                            truth.AfterAppends(*rec.spec, rec.sent_after), kConfidence, &score);
    } else {
      verdict = ScoreAnswer(r.final.result, r.final.report, truth.Exact(*rec.spec),
                            kConfidence, &score);
    }
    if (verdict.has_value()) {
      out->Fail(*verdict + " [" + rec.spec->Sql() + "]");
      continue;
    }
    seen = Scored{&r.final, score};
    if (scored) {
      out->accuracy.Add(score);
    }
  }
  out->attempted += phase.append_ms.size() + phase.append_errors.size();
  for (const auto& error : phase.append_errors) {
    out->Fail("APPEND " + error);
  }
}

// Ingest's closing check: an unfiltered COUNT(*) runs every pipeline to
// exhaustion with zero variance, so it must equal the base rows plus every
// acknowledged row.
void CheckIngestCount(uint16_t port, uint64_t acked, Checked* out) {
  ++out->attempted;
  WireConn conn;
  if (!conn.Connect(port).ok()) {
    out->Fail("final COUNT: connect");
    return;
  }
  const Reply r = conn.Query("SELECT COUNT(*) FROM sessions");
  const double want = static_cast<double>(kDemoRows + acked * kAppendRows);
  if (!r.ok() || r.final.result.rows.size() != 1 ||
      std::fabs(r.final.result.rows[0].aggregates[0].value - want) >= 0.5) {
    out->Fail("final COUNT != base rows + acknowledged rows");
  }
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
  // Printed in the summary only: not defined, not supported or possibly 0 on
  // some workload, while the JSON carries every metric on every workload.
  bool extra = false;
};

std::string CountNote(const Percentile& p) {
  return "n=" + std::to_string(p.n) + ", " + std::to_string(p.beyond) + " beyond";
}

// Client-observed QUERY-to-FINAL times of the measured queries that succeeded.
std::vector<double> MeasuredLatenciesMs(const PhaseResult& phase) {
  std::vector<double> latency_ms;
  for (const QueryRecord& rec : phase.queries) {
    if (rec.measured && rec.reply.ok()) {
      latency_ms.push_back((rec.reply.done - rec.reply.sent) * 1e3);
    }
  }
  return latency_ms;
}

// The end-to-end metrics of one untraced phase.
std::vector<Metric> EndToEnd(Workload workload, const PhaseResult& phase,
                             const Checked& checked, const SetUpCost& setup,
                             double rss_end_mb) {
  const std::vector<double> latency_ms = MeasuredLatenciesMs(phase);
  std::vector<double> first_ms;
  std::vector<double> model_s;
  for (const QueryRecord& rec : phase.queries) {
    if (rec.measured && rec.reply.ok()) {
      first_ms.push_back((rec.reply.first - rec.reply.sent) * 1e3);
      model_s.push_back(rec.reply.final.report.total_latency);
    }
  }
  const Percentile p50 = PercentileOf(latency_ms, 0.50);
  const Percentile p95 = PercentileOf(latency_ms, 0.95);
  const Percentile p99 = PercentileOf(latency_ms, 0.99);
  const Percentile first = PercentileOf(first_ms, 0.50);
  const double queries = static_cast<double>(latency_ms.size());
  // Over the whole phase: window medians moved with how the ingest merges
  // and the op mix fell into windows, and spread wider between runs.
  const double ops = queries + static_cast<double>(phase.append_ms.size());
  std::vector<Metric> m = {
      {"setup_s", setup.seconds, "s", "median of " + std::to_string(kSetups) + " set-ups"},
      {"rss_mb", setup.rss_mb, "MB", "peak RSS of the server processes after set-up"},
      {"query_p50_ms", p50.value, "ms", CountNote(p50)},
      {"query_p95_ms", p95.value, "ms", CountNote(p95)},
      {"first_answer_p50_ms", first.value, "ms", CountNote(first)},
      {"throughput_qps", queries / phase.wall_s, "1/s",
       std::to_string(latency_ms.size()) + " queries in " + std::to_string(phase.wall_s) + " s"},
      {"cpu_ms_per_op", phase.cpu_s * 1e3 / std::max(1.0, ops), "ms",
       std::to_string(phase.cpu_s) + " s of server CPU / " +
           std::to_string(static_cast<uint64_t>(ops)) + " ops"},
      {"ci_cover_share", checked.accuracy.CoverShare(), "ratio",
       "mean over " + std::to_string(checked.accuracy.answer_cover.size()) + " answers (" +
           std::to_string(checked.accuracy.cells) + " cells)"},
      {"within_5pct_share", checked.accuracy.WithinShare(0.05), "ratio",
       "of " + std::to_string(checked.accuracy.answer_rel_errors.size()) +
           " answers, by their median cell error"},
  };
  m.push_back({"rel_err_p50", PercentileOf(checked.accuracy.answer_rel_errors, 0.5).value,
               "ratio", "median over answers of their median cell error", true});
  // Printed but not part of the JSON contract: p99 is reportable only with
  // at least 10 samples beyond it, which scatter's run length does not give.
  if (p99.Reportable()) {
    m.push_back({"query_p99_ms", p99.value, "ms", CountNote(p99), true});
  }
  if (workload == Workload::kAdhoc || workload == Workload::kIngest) {
    const Percentile model = PercentileOf(model_s, 0.5);
    m.push_back({"model_latency_p50_s", model.value, "s", CountNote(model), true});
  }
  if (workload == Workload::kIngest) {
    const Percentile a50 = PercentileOf(phase.append_ms, 0.5);
    const Percentile a95 = PercentileOf(phase.append_ms, 0.95);
    m.push_back({"append_p50_ms", a50.value, "ms", CountNote(a50), true});
    m.push_back({"append_p95_ms", a95.value, "ms", CountNote(a95), true});
  }
  // The end-of-run peak moved by ±30% between runs of one seed: too noisy
  // to bound, so the JSON's rss_mb is taken after set-up.
  m.push_back({"rss_end_mb", rss_end_mb, "MB", "peak RSS at the end of the run", true});
  m.push_back({"failed_share",
               static_cast<double>(checked.failed) /
                   static_cast<double>(std::max<uint64_t>(1, checked.attempted)),
               "ratio", "the JSON's failed / attempted", true});
  return m;
}

// Whether the server's shed ladder answered at a wider bound than asked.
bool Widened(const QueryRecord& rec) {
  const double bound = rec.reply.final.report.effective_error_bound;
  return bound > 0 && bound > rec.spec->error_pct / 100.0 + 1e-12;
}

// The per-layer metrics of a traced run. Counts come from the untraced
// phase's FINAL reports; timings from the replay and the traced TCP phase.
std::vector<Metric> PerLayer(const PhaseResult& phase, const Tracer& replay,
                             const ReplayCounts& rc, const SetupCounts& sc,
                             const Tracer& setup) {
  uint64_t n = 0, hits = 0, resumes = 0, widened = 0, stopped = 0, partials = 0;
  double elp = 0, reused = 0, pipelines = 0, blocks = 0, rows = 0, matched = 0,
         scanned_rows = 0, bytes_scanned = 0, bytes_decoded = 0, degraded = 0;
  std::vector<double> final_bytes;
  std::vector<double> queue_ms;
  std::vector<double> probe_s;
  std::vector<double> exec_s;
  for (const QueryRecord& rec : phase.queries) {
    if (!rec.measured || !rec.reply.ok()) {
      continue;
    }
    const blink::ExecutionReport& report = rec.reply.final.report;
    const blink::QueryResult& result = rec.reply.final.result;
    ++n;
    hits += report.cache == "hit";
    resumes += report.cache == "resume";
    widened += Widened(rec);
    stopped += report.stopped_early;
    partials += rec.reply.partials;
    elp += static_cast<double>(report.elp.size());
    reused += static_cast<double>(report.blocks_reused);
    pipelines += static_cast<double>(report.pipeline_outcomes.size());
    blocks += static_cast<double>(report.blocks_consumed);
    rows += static_cast<double>(report.rows_read);
    matched += static_cast<double>(result.stats.rows_matched);
    scanned_rows += static_cast<double>(result.stats.rows_scanned);
    bytes_scanned += report.bytes_scanned;
    bytes_decoded += report.bytes_decoded;
    degraded += std::any_of(report.pipeline_outcomes.begin(), report.pipeline_outcomes.end(),
                            [](const blink::PipelineOutcome& o) { return o.degraded; });
    final_bytes.push_back(static_cast<double>(rec.reply.final_bytes));
    queue_ms.push_back(report.queue_latency * 1e3);
    probe_s.push_back(report.probe_latency);
    exec_s.push_back(report.execution_latency);
  }
  const double q = std::max<double>(1, static_cast<double>(n));
  // Scatter's rounds and pipelines are the coordinator's, not the plan
  // driver's.
  const bool sharded = !replay.Durations("coord.execute").empty();
  auto per = [&](double x) { return x / q; };
  auto share = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  auto us50 = [&](const char* name) { return PercentileOf(replay.Durations(name), 0.5).value * 1e6; };
  auto first_s = [&](const Tracer& t, const char* name) {
    const auto d = t.Durations(name);
    return d.empty() ? 0.0 : d.front();
  };
  const double self_total = [&] {
    double total = 0;
    for (const auto& [layer, s] : replay.LayerSelfTimes()) {
      total += s;
    }
    return total;
  }();
  std::vector<Metric> m = {
      {"sql.parse_us_p50", us50("sql.parse"), "us", ""},
      {"server.encode_us_p50", us50("server.encode"), "us", "FINAL encode"},
      {"client.decode_us_p50", us50("client.decode"), "us", "FINAL decode"},
      {"cache.hit_share", share(hits, q), "ratio", ""},
      {"cache.resume_share", share(resumes, q), "ratio", ""},
      {"cache.evictions", static_cast<double>(rc.cache_evictions), "count", "replay cache"},
      {"server.widened_share", share(widened, q), "ratio", ""},
      {"server.partials_per_query", per(partials), "count", ""},
      {"server.final_bytes_p50", PercentileOf(final_bytes, 0.5).value, "bytes", ""},
      {"runtime.elp_points_per_query", per(elp), "count", ""},
      {"runtime.blocks_reused_per_query", per(reused), "count", ""},
      {"runtime.stopped_early_share", share(stopped, q), "ratio", ""},
      {"plan.rounds_per_query", sharded ? 0.0 : share(rc.rounds, rc.queries), "count", "replay"},
      {"plan.pipelines_per_query", sharded ? 0.0 : per(pipelines), "count", ""},
      {"plan.blocks_per_query", per(blocks), "count", ""},
      {"exec.rows_per_query", per(rows), "count", ""},
      {"exec.match_share", share(matched, scanned_rows), "ratio", ""},
      {"exec.rows_per_ms", share(static_cast<double>(rc.rows_read), rc.scan_seconds * 1e3),
       "rows/ms", "replay, cold executions"},
      {"storage.bytes_scanned_per_query", per(bytes_scanned), "bytes", ""},
      {"storage.decoded_per_scanned", share(bytes_decoded, bytes_scanned), "ratio", ""},
      {"workload.generate_s", first_s(setup, "workload.generate"), "s", ""},
      {"optimizer.build_samples_s", first_s(setup, "optimizer.build_samples"), "s", ""},
      {"optimizer.sample_rows_per_row", sc.SampleRowsPerRow(), "ratio", ""},
      {"storage.compress_s", first_s(setup, "storage.compress"), "s", ""},
      {"storage.compression_ratio", sc.CompressionRatio(), "ratio", ""},
      {"sample.merge_share", share(static_cast<double>(rc.merges), static_cast<double>(rc.ticks)),
       "ratio", ""},
      {"sample.write_amp",
       share(static_cast<double>(rc.rows_appended + rc.rows_rewritten),
             static_cast<double>(rc.rows_appended)),
       "ratio", ""},
      {"sample.live_runs_p50", PercentileOf(rc.live_runs, 0.5).value, "count", ""},
      {"coord.rounds_per_query", sharded ? share(rc.rounds, rc.queries) : 0.0, "count",
       "replay"},
      {"coord.blocks_per_query", sharded ? per(blocks) : 0.0, "count", ""},
      {"coord.degraded_share", sharded ? share(degraded, q) : 0.0, "ratio", ""},
  };
  // Every workload reports the same layers; a bypassed layer's share is 0.
  const auto self = replay.LayerSelfTimes();
  for (const char* layer : {"sql", "api", "runtime", "plan", "server", "client", "sample",
                            "coord"}) {
    const auto it = self.find(layer);
    m.push_back({std::string(layer) + ".self_share",
                 it == self.end() ? 0.0 : share(it->second, self_total), "ratio",
                 "of replay self time"});
  }
  // Timings of layers some workload bypasses (no samples there).
  auto timing = [&m](const char* name, const std::vector<double>& values, double q,
                     double scale, const char* unit) {
    const Percentile p = PercentileOf(values, q);
    m.push_back({name, p.value * scale, unit, p.n == 0 ? "bypassed: no samples" : CountNote(p),
                 true});
  };
  timing("api.resolve_us_p50", replay.Durations("api.resolve"), 0.5, 1e6, "us");
  timing("api.pin_us_p50", replay.Durations("api.pin"), 0.5, 1e6, "us");
  timing("cache.hit_us_p50", replay.Durations("runtime.execute", "hit"), 0.5, 1e6, "us");
  timing("server.queue_ms_p50", queue_ms, 0.5, 1.0, "ms");
  timing("server.queue_ms_p99", queue_ms, 0.99, 1.0, "ms");
  timing("runtime.execute_ms_p50", replay.Durations("runtime.execute"), 0.5, 1e3, "ms");
  timing("runtime.execute_ms_p99", replay.Durations("runtime.execute"), 0.99, 1e3, "ms");
  timing("runtime.plan_ms_p50", replay.Durations("runtime.plan"), 0.5, 1e3, "ms");
  timing("plan.round_ms_p50", replay.Durations("plan.round"), 0.5, 1e3, "ms");
  timing("sample.append_ms_p50", replay.Durations("sample.append"), 0.5, 1e3, "ms");
  timing("sample.tick_ms_p50", replay.Durations("sample.tick"), 0.5, 1e3, "ms");
  timing("sample.tick_ms_p95", replay.Durations("sample.tick"), 0.95, 1e3, "ms");
  timing("coord.execute_ms_p50", replay.Durations("coord.execute"), 0.5, 1e3, "ms");
  timing("coord.round_ms_p50", replay.Durations("coord.round"), 0.5, 1e3, "ms");
  timing("catalog.register_s", setup.Durations("catalog.register"), 0.5, 1.0, "s");
  timing("cluster.model_probe_s_p50", probe_s, 0.5, 1.0, "s");
  timing("cluster.model_exec_s_p50", exec_s, 0.5, 1.0, "s");
  return m;
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-32s %14.6g %-7s %s%s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.extra ? "[summary only] " : "", m.note.c_str());
  }
}

void PrintJson(const Checked& checked, const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += checked.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(checked.attempted);
  json += ", \"failed\": " + std::to_string(checked.failed);
  json += ", \"metrics\": {";
  bool first = true;
  char value[64];
  for (const Metric& m : metrics) {
    if (m.extra) {
      continue;
    }
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += (first ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ---- One run ----------------------------------------------------------------

// Deploys kSetups times, keeping the last deployment.
blink::Result<SetUpCost> SetUp(Workload workload, const std::string& dir, Deployment& d) {
  std::vector<double> seconds;
  std::vector<double> rss;
  for (int i = 0; i < kSetups; ++i) {
    d.fleet.StopAll();
    auto setup = Deploy(workload, dir, &d);
    if (!setup.ok()) {
      return setup.status();
    }
    auto mb = d.fleet.PeakRssMb();
    if (!mb.ok()) {
      return mb.status();
    }
    seconds.push_back(*setup);
    rss.push_back(*mb);
  }
  return SetUpCost{PercentileOf(seconds, 0.5).value, PercentileOf(rss, 0.5).value};
}

std::vector<const QuerySpec*> AllSpecs(const Streams& streams) {
  std::vector<const QuerySpec*> specs;
  for (const auto& ops : streams.conns) {
    for (const auto& q : ops) {
      specs.push_back(&q);
    }
  }
  for (const auto& q : streams.probes) {
    specs.push_back(&q);
  }
  return specs;
}

void PrintFailures(const Checked& checked) {
  for (const auto& [why, count] : checked.failures) {
    std::printf("FAILED x%llu: %s\n", static_cast<unsigned long long>(count), why.c_str());
  }
}

// The replay's runtime copies blinkdb_server's flag defaults. A cold
// execution that consumed other blocks than the server's cold execution of
// the same op shows that the two configurations drifted apart. Widened ops
// ran at another bound, and ingest's measured reads on other batches, so
// they are left out. Returns the number of executions compared.
blink::Result<uint64_t> CheckReplayConfig(Workload workload, const PhaseResult& phase,
                                          const ReplayCounts& counts) {
  uint64_t compared = 0;
  for (const QueryRecord& rec : phase.queries) {
    const blink::ExecutionReport& report = rec.reply.final.report;
    if (!rec.reply.ok() || report.cache != "miss" || Widened(rec) ||
        (workload == Workload::kIngest && rec.measured)) {
      continue;
    }
    const auto it = counts.cold_blocks.find(rec.spec);
    if (it == counts.cold_blocks.end()) {
      continue;
    }
    ++compared;
    if (it->second != report.blocks_consumed) {
      return blink::Status::Internal(
          "the replay's runtime configuration differs from blinkdb_server's: " +
          std::to_string(it->second) + " blocks against the server's " +
          std::to_string(report.blocks_consumed) + " for [" + rec.spec->Sql() + "]");
    }
  }
  return compared;
}

// Traced mode: the same stream again on a fresh deployment with client spans
// on, then the in-process replay through each layer's public functions.
// Prints the traced summary and returns the per-layer metrics; the traced
// phase's checks are added to `checked`.
blink::Result<std::vector<Metric>> TracedRun(const Args& args, const Streams& streams,
                                             const std::string& dir, blink::BlinkDB& db,
                                             const SetupCounts& demo, const Truth& truth,
                                             const PhaseResult& untraced, Checked* checked) {
  const Workload workload = args.workload;
  Deployment deployment;
  BLINK_RETURN_IF_ERROR(Deploy(workload, dir, &deployment).status());
  auto traced = RunPhase(streams, args.seed, true, deployment);
  if (!traced.ok()) {
    return traced.status();
  }
  CheckPhase(workload, *traced, truth, checked);
  Tracer replay;
  ReplayCounts counts;
  if (workload == Workload::kScatter) {
    // The replay's coordinator scatters to the same shard workers.
    BLINK_RETURN_IF_ERROR(ReplayScatter(streams, deployment.workers, replay, &counts));
    deployment.fleet.StopAll();
  } else {
    deployment.fleet.StopAll();
    BLINK_RETURN_IF_ERROR(ReplayServer(streams, workload == Workload::kIngest, args.seed, db,
                                       replay, &counts));
    auto compared = CheckReplayConfig(workload, *traced, counts);
    if (!compared.ok()) {
      return compared.status();
    }
    std::printf("replay configuration: %llu cold executions consumed the server's blocks\n",
                static_cast<unsigned long long>(*compared));
  }
  Tracer setup;
  BLINK_RETURN_IF_ERROR(TraceSetup(demo, setup));

  const double traced_p50 = PercentileOf(MeasuredLatenciesMs(*traced), 0.5).value;
  const double untraced_p50 = PercentileOf(MeasuredLatenciesMs(untraced), 0.5).value;
  std::printf("tracing overhead: query_p50_ms %.4f traced - %.4f untraced = %+.4f ms\n",
              traced_p50, untraced_p50, traced_p50 - untraced_p50);
  std::printf("per-layer self time (in-process replay of %llu ops, %llu failed):\n",
              static_cast<unsigned long long>(counts.queries + counts.appends),
              static_cast<unsigned long long>(counts.failed));
  for (const auto& [layer, s] : replay.LayerSelfTimes()) {
    std::printf("  %-12s %12.3f ms\n", layer.c_str(), s * 1e3);
  }
  for (const auto& [layer, s] : setup.LayerSelfTimes()) {
    std::printf("  %-12s %12.3f ms  (set-up)\n", layer.c_str(), s * 1e3);
  }
  std::vector<Metric> layers = PerLayer(untraced, replay, counts, demo, setup);
  PrintMetrics("per-layer metrics:", layers);

  Tracer all = setup;
  all.Merge(traced->client_spans);
  all.Merge(replay);
  const std::string path = args.work_dir + "/spans-" + WorkloadName(workload) + "-seed" +
                           std::to_string(args.seed) + ".jsonl";
  BLINK_RETURN_IF_ERROR(all.Write(path));
  std::printf("spans: %zu written to %s\n", all.spans().size(), path.c_str());
  return layers;
}

int Run(const Args& args) {
  const Workload workload = args.workload;
  blink::BlinkDB db;
  blink::DemoDbOptions demo;
  demo.rows = kDemoRows;
  if (blink::Status s = blink::BuildConvivaDemo(db, demo); !s.ok()) {
    std::fprintf(stderr, "demo build failed: %s\n", s.ToString().c_str());
    return 1;
  }
  const SetupCounts demo_counts = CountSetup(db);
  const Streams streams =
      MakeStreams(workload, args.seed, args.seconds, db.catalog().Find("sessions")->table);
  // Port files and server logs of this run; a run killed by a signal leaves
  // them for the next run to clear.
  const std::string dir = args.work_dir + "/run";
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::printf("perfbench workload=%s seed=%llu seconds=%d trace=%d: %zu connections x %zu "
              "ops (%zu warm-up), %llu appends + %zu read-backs\n",
              WorkloadName(workload), static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, streams.conns.size(), streams.conns[0].size(),
              streams.warmup, static_cast<unsigned long long>(streams.append_batches),
              streams.probes.size());

  Checked checked;
  SetUpCost setup;
  double rss_end_mb = 0.0;
  std::optional<PhaseResult> phase;
  {
    Deployment deployment;
    auto cost = SetUp(workload, dir, deployment);
    if (!cost.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", cost.status().ToString().c_str());
      return 1;
    }
    setup = *cost;
    auto run = RunPhase(streams, args.seed, false, deployment);
    if (!run.ok()) {
      std::fprintf(stderr, "run failed: %s\n", run.status().ToString().c_str());
      return 1;
    }
    phase = std::move(*run);
    // A server that exited during the run keeps no memory map to read. Its
    // ops fail their checks; this records the exit itself.
    ++checked.attempted;
    if (auto rss = deployment.fleet.PeakRssMb(); rss.ok()) {
      rss_end_mb = *rss;
    } else {
      checked.Fail("server exited during the run: " + rss.status().ToString());
    }
    if (workload == Workload::kIngest) {
      CheckIngestCount(deployment.front, phase->appends_acked, &checked);
    }
  }  // the servers stop here, before the truth is computed

  Truth truth(db, args.seed, streams.append_batches);
  if (blink::Status s = truth.Prepare(AllSpecs(streams), 4); !s.ok()) {
    std::fprintf(stderr, "ground truth failed: %s\n", s.ToString().c_str());
    return 1;
  }
  CheckPhase(workload, *phase, truth, &checked);
  std::vector<Metric> metrics = EndToEnd(workload, *phase, checked, setup, rss_end_mb);
  PrintMetrics("end-to-end (tracing off):", metrics);
  if (args.trace) {
    auto layers = TracedRun(args, streams, dir, db, demo_counts, truth, *phase, &checked);
    if (!layers.ok()) {
      std::fprintf(stderr, "traced run failed: %s\n", layers.status().ToString().c_str());
      return 1;
    }
    metrics = std::move(*layers);
  }
  PrintFailures(checked);
  fs::remove_all(dir);
  PrintJson(checked, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload adhoc|dashboard|ingest|scatter --seed N "
                 "--seconds S --trace 0|1 [--work-dir DIR]\n");
    return 2;
  }
  perfbench::InstallSignalCleanup();
  return perfbench::Run(args);
}
