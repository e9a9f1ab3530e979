#include "perfbench/trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <utility>

#include "perfbench/wire.h"
#include "src/cache/answer_cache.h"
#include "src/coord/coordinator.h"
#include "src/server/protocol.h"
#include "src/server/server.h"
#include "src/sql/parser.h"
#include "src/workload/conviva.h"
#include "src/workload/demo_db.h"

namespace perfbench {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

// The runtime configuration blinkdb_server runs with at its default flags.
// The traced run compares the replay's cold executions with the server's,
// so a change of the morsel or round defaults fails it.
blink::RuntimeConfig ServerRuntime() {
  blink::RuntimeConfig config;
  config.exec_threads = 2;
  config.morsel_rows = 512;
  config.stream_batch_blocks = 4;
  return config;
}

// Times the terminal encode on the server and the decode on the client.
void EncodeAndDecode(Tracer& tracer, int64_t root, int64_t op, uint64_t id,
                     blink::ApproxAnswer answer) {
  blink::FinalFrame frame;
  frame.id = id;
  frame.result = std::move(answer.result);
  frame.report = std::move(answer.report);
  const int64_t encode = tracer.Open("server.encode", root, op);
  const std::string payload = blink::EncodeFinal(frame);
  tracer.Close(encode);
  const int64_t decode = tracer.Open("client.decode", root, op);
  const auto decoded = blink::DecodeFrame(payload);
  tracer.Close(decode);
  (void)decoded;
}

// A progress callback that records the plan's first callback as `first`, the
// intervals between callbacks as `round`, and times the PARTIAL encode the
// server runs inside each callback.
blink::ProgressCallback RoundTracer(Tracer& tracer, int64_t parent, int64_t op,
                                    const char* first, const char* round, double* last,
                                    uint64_t* rounds) {
  return [&tracer, parent, op, first, round, last, rounds](const blink::QueryResult& partial,
                                                           const blink::StreamProgress& p) {
    if (p.final_batch) {
      return;
    }
    tracer.Add(*rounds == 0 ? first : round, *last, Now(), parent, op);
    ++*rounds;
    const int64_t encode = tracer.Open("server.encode_partial", parent, op);
    blink::PartialFrame frame;
    frame.id = static_cast<uint64_t>(op) + 1;
    frame.seq = *rounds;
    frame.progress = p;
    frame.result = partial;
    const std::string payload = blink::EncodePartial(frame);
    tracer.Close(encode);
    *last = Now();
  };
}

blink::Status ReplayQuery(const QuerySpec& spec, int64_t op, const blink::BlinkDB& db,
                          const blink::QueryRuntime& runtime, blink::AnswerCache& cache,
                          Tracer& tracer, ReplayCounts* counts) {
  const std::string sql = spec.Sql();
  const int64_t root = tracer.Open("replay.query", -1, op);
  int64_t span = tracer.Open("sql.parse", root, op);
  auto stmt = blink::ParseSelect(sql);
  tracer.Close(span);
  if (!stmt.ok()) {
    return stmt.status();
  }
  span = tracer.Open("api.resolve", root, op);
  auto tables = db.Resolve(*stmt);
  tracer.Close(span);
  if (!tables.ok()) {
    return tables.status();
  }
  span = tracer.Open("api.pin", root, op);
  const auto pinned = db.PinLevels(stmt->table);
  tracer.Close(span);
  counts->live_runs.push_back(pinned.has_value()
                                  ? static_cast<double>(pinned->snapshot.runs.size())
                                  : 0.0);
  blink::CacheContext cache_ctx;
  cache_ctx.cache = &cache;
  cache_ctx.table_generation =
      pinned.has_value() ? pinned->generation : tables->fact->generation.load();
  if (pinned.has_value()) {
    cache_ctx.key_suffix = pinned->fingerprint;
  }
  const int64_t exec = tracer.Open("runtime.execute", root, op);
  double last = Now();
  uint64_t rounds = 0;
  auto progress =
      RoundTracer(tracer, exec, op, "runtime.plan", "plan.round", &last, &rounds);
  const blink::Table* dim = tables->dim != nullptr ? &tables->dim->table : nullptr;
  auto answer = pinned.has_value()
                    ? runtime.ExecuteLeveled(*stmt, tables->fact->name, tables->fact->table,
                                             tables->fact->scale_factor, pinned->levels, dim,
                                             progress, nullptr, cache_ctx)
                    : runtime.Execute(*stmt, tables->fact->name, tables->fact->table,
                                      tables->fact->scale_factor, dim, progress, nullptr,
                                      cache_ctx);
  tracer.Close(exec);
  counts->rounds += rounds;
  ++counts->queries;
  if (!answer.ok()) {
    ++counts->failed;
    tracer.Close(root);
    return blink::Status::Ok();
  }
  const std::string& outcome = answer->report.cache;
  tracer.at(exec).detail = outcome;
  if (outcome != "hit") {
    counts->rows_read += answer->report.rows_read;
    counts->scan_seconds += tracer.at(exec).end - tracer.at(exec).start;
  }
  if (outcome == "miss") {
    counts->cold_blocks[&spec] = answer->report.blocks_consumed;
  }
  EncodeAndDecode(tracer, root, op, static_cast<uint64_t>(op) + 1, std::move(*answer));
  tracer.Close(root);
  return blink::Status::Ok();
}

blink::Status ReplayAppend(uint64_t seed, uint64_t batch, int64_t op, blink::BlinkDB& db,
                           Tracer& tracer, ReplayCounts* counts) {
  blink::Table rows = AppendBatch(seed, batch);
  const uint64_t n = rows.num_rows();
  const int64_t root = tracer.Open("replay.append", -1, op);
  int64_t span = tracer.Open("sample.append", root, op);
  auto version = db.Append("sessions", std::move(rows));
  tracer.Close(span);
  if (!version.ok()) {
    return version.status();
  }
  const blink::LeveledStore* levels = db.Levels("sessions");
  const auto before = levels->Pin();
  span = tracer.Open("sample.tick", root, op);
  auto merged = db.MaintenanceTick("sessions");
  tracer.Close(span);
  tracer.Close(root);
  if (!merged.ok()) {
    return merged.status();
  }
  std::set<uint64_t> old_ids;
  for (const auto& run : before.runs) {
    old_ids.insert(run->id);
  }
  for (const auto& run : levels->Pin().runs) {
    if (old_ids.count(run->id) == 0) {
      counts->rows_rewritten += run->rows->num_rows();
    }
  }
  ++counts->appends;
  ++counts->ticks;
  counts->merges += *merged ? 1 : 0;
  counts->rows_appended += n;
  return blink::Status::Ok();
}

}  // namespace

int64_t Tracer::Open(std::string name, int64_t parent, int64_t op) {
  const double now = Now();
  return Add(std::move(name), now, now, parent, op);
}

void Tracer::Close(int64_t id) { at(id).end = Now(); }

int64_t Tracer::Add(std::string name, double start, double end, int64_t parent, int64_t op) {
  Span span;
  span.name = std::move(name);
  span.start = start;
  span.end = end;
  span.parent = parent;
  span.op = op;
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::Merge(const Tracer& other) {
  const int64_t base = static_cast<int64_t>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) {
      span.parent += base;
    }
    spans_.push_back(std::move(span));
  }
}

blink::Status Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return blink::Status::Internal("cannot write " + path);
  }
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  char line[512];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof(line),
                  "{\"id\": %zu, \"name\": %s, \"start_us\": %.3f, \"end_us\": %.3f, "
                  "\"parent\": %lld, \"op\": %lld, \"detail\": %s}\n",
                  i, JsonString(s.name).c_str(), (s.start - origin) * 1e6,
                  (s.end - origin) * 1e6, static_cast<long long>(s.parent),
                  static_cast<long long>(s.op), JsonString(s.detail).c_str());
    out << line;
  }
  return out ? blink::Status::Ok() : blink::Status::Internal("short write to " + path);
}

std::map<std::string, double> Tracer::LayerSelfTimes() const {
  std::vector<std::vector<size_t>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<size_t>(spans_[i].parent)].push_back(i);
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::vector<std::pair<double, double>> kids;
    for (size_t c : children[i]) {
      kids.emplace_back(std::max(s.start, spans_[c].start), std::min(s.end, spans_[c].end));
    }
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = s.start;
    for (const auto& [lo, hi] : kids) {
      const double from = std::max(lo, reach);
      if (hi > from) {
        covered += hi - from;
        reach = hi;
      }
    }
    self[s.name.substr(0, s.name.find('.'))] += std::max(0.0, (s.end - s.start) - covered);
  }
  return self;
}

std::vector<double> Tracer::Durations(const std::string& name,
                                      const std::string& detail) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name && (detail.empty() || s.detail == detail)) {
      out.push_back(s.end - s.start);
    }
  }
  return out;
}

blink::Status ReplayServer(const Streams& streams, bool ingest, uint64_t seed,
                           blink::BlinkDB& db, Tracer& tracer, ReplayCounts* counts) {
  const blink::QueryRuntime runtime(&db.samples(), &db.cluster(), ServerRuntime());
  blink::AnswerCache cache(blink::ServerOptions().answer_cache_entries);
  int64_t op = 0;
  uint64_t reads = 0;
  uint64_t batch = 0;
  size_t longest = 0;
  for (const auto& ops : streams.conns) {
    longest = std::max(longest, ops.size());
  }
  // The connections' ops interleave round-robin, warm-up first; appends
  // follow every kReadsPerAppend measured reads, as the writer paces them.
  for (size_t i = 0; i < longest; ++i) {
    for (const auto& ops : streams.conns) {
      if (i >= ops.size()) {
        continue;
      }
      BLINK_RETURN_IF_ERROR(ReplayQuery(ops[i], op++, db, runtime, cache, tracer, counts));
      if (ingest && i >= streams.warmup && ++reads % kReadsPerAppend == 0 &&
          batch < streams.append_batches) {
        BLINK_RETURN_IF_ERROR(ReplayAppend(seed, batch, op++, db, tracer, counts));
        for (uint64_t p = 0; p < kProbesPerAppend; ++p) {
          BLINK_RETURN_IF_ERROR(ReplayQuery(streams.probes[batch * kProbesPerAppend + p],
                                            op++, db, runtime, cache, tracer, counts));
        }
        ++batch;
      }
    }
  }
  counts->cache_evictions = cache.stats().evictions;
  return blink::Status::Ok();
}

blink::Status ReplayScatter(const Streams& streams, const std::vector<uint16_t>& workers,
                            Tracer& tracer, ReplayCounts* counts) {
  blink::CoordinatorOptions options;
  for (uint16_t port : workers) {
    blink::ShardAddress address;
    address.port = port;
    options.workers.push_back(address);
  }
  blink::Coordinator coordinator(options);
  int64_t op = 0;
  for (const auto& ops : streams.conns) {
    for (const QuerySpec& spec : ops) {
      const std::string sql = spec.Sql();
      const int64_t root = tracer.Open("replay.query", -1, op);
      // The coordinator front's first step is this same parse.
      const int64_t parse = tracer.Open("sql.parse", root, op);
      const auto stmt = blink::ParseSelect(sql);
      tracer.Close(parse);
      if (!stmt.ok()) {
        return stmt.status();
      }
      const int64_t exec = tracer.Open("coord.execute", root, op);
      double last = Now();
      uint64_t rounds = 0;
      auto answer = coordinator.Execute(
          sql, RoundTracer(tracer, exec, op, "coord.round", "coord.round", &last, &rounds));
      tracer.Close(exec);
      counts->rounds += rounds;
      ++counts->queries;
      if (!answer.ok()) {
        ++counts->failed;
      } else {
        EncodeAndDecode(tracer, root, op, static_cast<uint64_t>(op) + 1, std::move(*answer));
      }
      tracer.Close(root);
      ++op;
    }
  }
  return blink::Status::Ok();
}

SetupCounts CountSetup(const blink::BlinkDB& db) {
  SetupCounts counts;
  const blink::Table& table = db.catalog().Find("sessions")->table;
  counts.table_rows = static_cast<double>(table.num_rows());
  for (const blink::SampleFamily* family : db.samples().FamiliesFor("sessions")) {
    counts.sample_rows += static_cast<double>(family->storage_rows());
  }
  if (const blink::EncodedTable* blocks = table.encoded_blocks()) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      counts.raw_bytes += static_cast<double>(blocks->stats(c).raw_bytes);
      counts.encoded_bytes += static_cast<double>(blocks->stats(c).encoded_bytes);
    }
  }
  return counts;
}

blink::Status TraceSetup(const SetupCounts& demo, Tracer& tracer) {
  const blink::DemoDbOptions options;
  blink::ConvivaConfig config;
  config.num_rows = kDemoRows;
  config.num_cities = options.num_cities;
  config.num_urls = options.num_urls;
  blink::BlinkDB db;
  int64_t span = tracer.Open("workload.generate", -1, -1);
  blink::Table sessions = blink::GenerateConvivaTable(config);
  tracer.Close(span);
  const double scale = options.paper_bytes / (static_cast<double>(sessions.num_rows()) *
                                              sessions.EstimatedBytesPerRow());
  span = tracer.Open("catalog.register", -1, -1);
  BLINK_RETURN_IF_ERROR(db.RegisterTable("sessions", std::move(sessions), scale));
  tracer.Close(span);
  blink::PlannerConfig planner;
  planner.budget_fraction = 0.5;
  planner.cap_k = 500;
  planner.max_columns_per_set = 2;
  planner.uniform_fraction = 0.1;
  span = tracer.Open("optimizer.build_samples", -1, -1);
  auto plan = db.BuildSamples("sessions", blink::ConvivaTemplates(), planner);
  tracer.Close(span);
  if (!plan.ok()) {
    return plan.status();
  }
  span = tracer.Open("storage.compress", -1, -1);
  BLINK_RETURN_IF_ERROR(db.CompressStorage("sessions"));
  tracer.Close(span);

  const SetupCounts copy = CountSetup(db);
  if (copy.table_rows != demo.table_rows || copy.sample_rows != demo.sample_rows ||
      copy.encoded_bytes != demo.encoded_bytes) {
    char message[256];
    std::snprintf(message, sizeof(message),
                  "the traced set-up differs from BuildConvivaDemo: %.0f/%.0f/%.0f table rows/"
                  "sample rows/encoded bytes against %.0f/%.0f/%.0f",
                  copy.table_rows, copy.sample_rows, copy.encoded_bytes, demo.table_rows,
                  demo.sample_rows, demo.encoded_bytes);
    return blink::Status::Internal(message);
  }
  return blink::Status::Ok();
}

}  // namespace perfbench
