#include "perfbench/ops.h"

#include <algorithm>
#include <cmath>

#include "src/server/protocol.h"
#include "src/util/rng.h"
#include "src/workload/conviva.h"
#include "src/workload/demo_db.h"

namespace perfbench {
namespace {

using blink::Rng;
using blink::Table;

// Query ops per second of --seconds, across a workload's query connections.
// Sized so the measured phase lasts about --seconds on a 4-vCPU host; the op
// count itself never depends on the clock.
double NominalRate(Workload workload) {
  switch (workload) {
    case Workload::kAdhoc:
      return 220.0;
    case Workload::kDashboard:
      return 1500.0;
    case Workload::kIngest:
      return 75.0;
    case Workload::kScatter:
      return 30.0;
  }
  return 1.0;
}

const char* const kMeasureColumns[] = {"sessiontimems", "jointimems", "bufferingms",
                                       "bitrate"};
// Low-cardinality columns a query may GROUP BY, when its template has them.
const char* const kGroupable[] = {"endedflag", "os", "browser", "genre", "dt", "isp"};
// High-cardinality integer keys get range predicates, like the demo's own
// query instantiation (src/workload/conviva.cc).
bool IsRangeColumn(const std::string& col) { return col == "customer_id" || col == "asn"; }

// Predicate constants come from a fixed set of anchor rows, the same for
// every seed: a seed changes which queries are asked and in what order, but
// every run draws its selectivities from one population. Without this, the
// accuracy metrics moved more between seeds than any bound allows (the
// median relative error of ~300 scatter answers spread by a quarter).
constexpr uint64_t kAnchorSeed = 0x5e551015;
constexpr size_t kAnchors = 16;

std::vector<uint64_t> AnchorRows(const Table& sessions) {
  Rng rng(kAnchorSeed);
  std::vector<uint64_t> rows;
  for (size_t i = 0; i < kAnchors; ++i) {
    rows.push_back(rng.NextBounded(sessions.num_rows()));
  }
  return rows;
}

std::string Predicate(const std::string& col, const Table& sessions, uint64_t row) {
  const auto idx = sessions.schema().FindColumn(col);
  return col + (IsRangeColumn(col) ? " <= " : " = ") + sessions.GetValue(*idx, row).ToString();
}

// `n` category indices in exact proportion to `weights` (largest remainders
// get the leftovers), shuffled: every seed asks the same mix, in its own order.
std::vector<size_t> Balanced(size_t n, const std::vector<double>& weights, Rng& rng) {
  double total = 0;
  for (double w : weights) {
    total += w;
  }
  std::vector<size_t> out;
  std::vector<std::pair<double, size_t>> remainders;
  for (size_t i = 0; i < weights.size(); ++i) {
    const double exact = static_cast<double>(n) * weights[i] / total;
    const size_t whole = static_cast<size_t>(exact);
    out.insert(out.end(), whole, i);
    remainders.emplace_back(exact - static_cast<double>(whole), i);
  }
  std::stable_sort(remainders.begin(), remainders.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (size_t j = 0; out.size() < n; ++j) {
    out.push_back(remainders[j % remainders.size()].second);
  }
  rng.Shuffle(out);
  return out;
}

struct Shape {
  // AVG aggregates. Off where the union combiner merges per-run or
  // per-shard parts: an AVG part whose predicate matched no rows turns the
  // combined estimate non-finite, which the wire codec sends as null and the
  // client cannot decode (README.md, "Findings").
  bool avg = true;
  bool quantile = true;     // QUANTILE (not on leveled or sharded plans)
  bool time_bounds = true;  // WITHIN n SECONDS (not recombinable across shards)
};

constexpr int kErrorPcts[] = {1, 2, 5, 10};
constexpr int kTimeSeconds[] = {1, 2, 5};

// One ad-hoc query over Conviva template `tmpl`, grouped by `group_by` (one
// of the template's columns, or empty). `bound` indexes the error bounds,
// then the time bounds.
QuerySpec MakeQuery(const Table& sessions, const std::vector<uint64_t>& anchors,
                    uint64_t anchor, const blink::WorkloadTemplate& tmpl,
                    const std::string& group_by, bool disjunct, Agg agg, size_t bound,
                    Rng& rng) {
  QuerySpec q;
  std::vector<std::string> where_cols = tmpl.columns;
  if (!group_by.empty()) {
    q.group_by = group_by;
    where_cols.erase(std::find(where_cols.begin(), where_cols.end(), group_by));
  }
  // Every column of a conjunction takes its value from one anchor row, so
  // the conjunction matches at least that row.
  for (size_t i = 0; i < where_cols.size(); ++i) {
    q.where += (i > 0 ? " AND " : "") + Predicate(where_cols[i], sessions, anchor);
  }
  if (!q.where.empty() && disjunct) {
    // A second disjunct on a categorical column of the same template keeps
    // both branches served by the template's families.
    std::string col = "genre";
    for (const auto& c : where_cols) {
      if (!IsRangeColumn(c)) {
        col = c;
        break;
      }
    }
    q.where = "(" + q.where + ") OR " +
              Predicate(col, sessions, anchors[rng.NextBounded(anchors.size())]);
  }
  q.agg = agg;
  if (q.agg == Agg::kAvg && q.where.find(" OR ") != std::string::npos) {
    // A union plan's AVG goes through the union combiner, which can come back
    // undecodable when a disjunct matched no rows (README.md, "Findings").
    q.agg = Agg::kSum;
  }
  if (q.agg != Agg::kCount) {
    q.column = kMeasureColumns[rng.NextBounded(std::size(kMeasureColumns))];
  }
  if (bound < std::size(kErrorPcts)) {
    q.error_pct = kErrorPcts[bound];
  } else {
    q.time_seconds = kTimeSeconds[bound - std::size(kErrorPcts)];
  }
  return q;
}

// One cell of the ad-hoc mix: a template, its GROUP BY column (empty for
// none) and a bound.
struct Cell {
  size_t tmpl = 0;
  std::string group_by;
  size_t bound = 0;
};

// Ad-hoc queries in fixed proportions. Cells jointly: templates by their
// ConvivaTemplates() weight; half of a template's queries grouped, split
// evenly over its low-cardinality columns (none when it has none); 20%
// WITHIN {1,2,5} SECONDS, the rest ERROR WITHIN {1,2,5,10}%. Independently:
// 15% with an OR (a §4.1.2 union plan); COUNT 30%, SUM 20%, AVG 35%,
// QUANTILE 15%; each anchor row equally often. 10% of slots re-ask the
// connection's previous error-bounded query one rung tighter
// (10 -> 5 -> 2 -> 1%): the analyst drilling into an answer.
std::vector<QuerySpec> AdhocStream(const Table& sessions, Shape shape, size_t n, Rng& rng) {
  static const std::vector<blink::WorkloadTemplate> templates = blink::ConvivaTemplates();
  const std::vector<uint64_t> anchors = AnchorRows(sessions);
  // COUNT, SUM, AVG, QUANTILE; a disabled aggregate's share goes to SUM.
  std::vector<double> agg_weights = {0.30, 0.20, 0.35, 0.15};
  for (auto [enabled, index] : {std::pair{shape.avg, 2}, std::pair{shape.quantile, 3}}) {
    if (!enabled) {
      agg_weights[1] += agg_weights[static_cast<size_t>(index)];
      agg_weights[static_cast<size_t>(index)] = 0.0;
    }
  }
  const double time_share = shape.time_bounds ? 0.2 : 0.0;
  const std::vector<double> bound_weights = {
      0.2, 0.2, 0.2, 0.2, time_share / 3, time_share / 3, time_share / 3};
  // The grouping column and the bound set most of a query's cost, so their
  // combinations are exact too: drawn per query, the number of the heaviest
  // ones (grouped and tightly bounded) moved ingest's p95 by a quarter.
  std::vector<Cell> cells;
  std::vector<double> cell_weights;
  for (size_t t = 0; t < templates.size(); ++t) {
    std::vector<std::pair<std::string, double>> groupings;
    for (const auto& col : templates[t].columns) {
      if (std::find(std::begin(kGroupable), std::end(kGroupable), col) !=
          std::end(kGroupable)) {
        groupings.emplace_back(col, 0.0);
      }
    }
    for (auto& g : groupings) {
      g.second = 0.5 / static_cast<double>(groupings.size());
    }
    groupings.emplace_back("", groupings.empty() ? 1.0 : 0.5);
    for (const auto& [col, share] : groupings) {
      for (size_t b = 0; b < bound_weights.size(); ++b) {
        if (bound_weights[b] > 0) {
          cells.push_back({t, col, b});
          cell_weights.push_back(templates[t].weight * share * bound_weights[b]);
        }
      }
    }
  }
  const auto cell = Balanced(n, cell_weights, rng);
  const auto disjunct = Balanced(n, {0.85, 0.15}, rng);
  const auto agg = Balanced(n, agg_weights, rng);
  const auto drill = Balanced(n, {0.9, 0.1}, rng);
  // Selective anchors make the queries that run longest; drawn at random,
  // their count moved scatter's p95 by a quarter between seeds.
  const auto anchor = Balanced(n, std::vector<double>(anchors.size(), 1.0), rng);
  std::vector<QuerySpec> ops;
  ops.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (drill[i] == 1 && !ops.empty() && ops.back().error_pct > 1) {
      QuerySpec q = ops.back();
      q.error_pct = q.error_pct == 10 ? 5 : q.error_pct == 5 ? 2 : 1;
      q.drill_down = true;
      ops.push_back(q);
      continue;
    }
    const Cell& c = cells[cell[i]];
    ops.push_back(MakeQuery(sessions, anchors, anchors[anchor[i]], templates[c.tmpl],
                            c.group_by, disjunct[i] == 1, static_cast<Agg>(agg[i]), c.bound,
                            rng));
  }
  return ops;
}

QuerySpec Panel(Agg agg, std::string column, std::string where, std::string group_by,
                int error_pct) {
  QuerySpec q;
  q.agg = agg;
  q.column = std::move(column);
  q.where = std::move(where);
  q.group_by = std::move(group_by);
  q.error_pct = error_pct;
  return q;
}

// The dashboard's fixed 12 panels, all grouped, each with one fixed bound.
// The top panel is a 30-group breakdown by day whose cells are accurate;
// the other eleven break down by country (up to 200 groups) or city (up to
// 500), so a cache hit's cost is mostly FINAL encode and decode. A hit on a
// scalar or narrow panel is mostly thread hand-offs, whose cost on a shared
// VM moved by half between runs, against a fifth for a wide hit.
const std::vector<QuerySpec>& Panels() {
  static const std::vector<QuerySpec> panels = {
      Panel(Agg::kSum, "bitrate", "customer_id <= 20", "dt", 10),
      Panel(Agg::kCount, "", "endedflag = 1", "country", 5),
      Panel(Agg::kAvg, "sessiontimems", "genre = 'drama'", "city", 5),
      Panel(Agg::kAvg, "jointimems", "dt = 2", "country", 10),
      Panel(Agg::kSum, "sessiontimems", "isp = 'isp_3'", "city", 10),
      Panel(Agg::kCount, "", "", "city", 5),
      Panel(Agg::kAvg, "bitrate", "os = 'Windows'", "country", 2),
      Panel(Agg::kSum, "bitrate", "", "country", 5),
      Panel(Agg::kAvg, "bufferingms", "endedflag = 1", "city", 10),
      Panel(Agg::kCount, "", "browser = 'Chrome'", "country", 10),
      Panel(Agg::kAvg, "jointimems", "dt = 2", "city", 10),
      Panel(Agg::kCount, "", "os = 'Windows'", "city", 5),
  };
  return panels;
}

// Zipf(1) over the panels, in exact proportions: the top panel is refreshed
// most, and every seed asks the same mix in its own order.
std::vector<QuerySpec> DashboardStream(size_t n, Rng& rng) {
  const auto& panels = Panels();
  std::vector<double> weights;
  for (size_t i = 0; i < panels.size(); ++i) {
    weights.push_back(1.0 / static_cast<double>(i + 1));
  }
  std::vector<QuerySpec> ops = panels;  // the warm-up pass fills the cache
  for (size_t i : Balanced(n, weights, rng)) {
    ops.push_back(panels[i]);
  }
  return ops;
}

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kAdhoc:
      return "adhoc";
    case Workload::kDashboard:
      return "dashboard";
    case Workload::kIngest:
      return "ingest";
    case Workload::kScatter:
      return "scatter";
  }
  return "?";
}

std::optional<Workload> ParseWorkload(const std::string& name) {
  for (Workload w : {Workload::kAdhoc, Workload::kDashboard, Workload::kIngest,
                     Workload::kScatter}) {
    if (name == WorkloadName(w)) {
      return w;
    }
  }
  return std::nullopt;
}

std::string QuerySpec::Select() const {
  static const char* const kNames[] = {"COUNT", "SUM", "AVG", "QUANTILE"};
  std::string sql = "SELECT ";
  sql += kNames[static_cast<int>(agg)];
  sql += "(" + (agg == Agg::kCount ? std::string("*") : column);
  sql += agg == Agg::kQuantile ? ", 0.5)" : ")";
  sql += " FROM sessions";
  if (!where.empty()) {
    sql += " WHERE " + where;
  }
  if (!group_by.empty()) {
    sql += " GROUP BY " + group_by;
  }
  return sql;
}

std::string QuerySpec::Sql() const {
  if (error_pct > 0) {
    return Select() + " ERROR WITHIN " + std::to_string(error_pct) +
           "% AT CONFIDENCE 95%";
  }
  return Select() + " WITHIN " + std::to_string(time_seconds) + " SECONDS";
}

size_t Streams::MeasuredQueries() const {
  size_t n = 0;
  for (const auto& ops : conns) {
    n += ops.size() - warmup;
  }
  return n;
}

Streams MakeStreams(Workload workload, uint64_t seed, int seconds, const Table& sessions) {
  Rng root(Mix(seed) ^ Mix(static_cast<uint64_t>(workload) + 1));
  // One reader for ingest: the writer's read-backs are a second query
  // stream, so at most 2 queries run at once and the server's exec threads
  // (2 per query) stay within the 4 vCPUs.
  const size_t conns =
      workload == Workload::kScatter || workload == Workload::kIngest ? 1 : 2;
  const size_t per_conn = static_cast<size_t>(
      std::ceil(NominalRate(workload) * std::max(1, seconds) / static_cast<double>(conns)));
  Streams streams;
  Shape shape;
  switch (workload) {
    case Workload::kAdhoc:
      streams.warmup = 40;
      break;
    case Workload::kDashboard:
      streams.warmup = Panels().size();
      break;
    case Workload::kIngest:
      streams.warmup = 20;
      shape.avg = false;
      shape.quantile = false;
      break;
    case Workload::kScatter:
      streams.warmup = 20;
      shape.avg = false;
      shape.quantile = false;
      shape.time_bounds = false;
      break;
  }
  for (size_t c = 0; c < conns; ++c) {
    Rng rng = root.Split();
    streams.conns.push_back(workload == Workload::kDashboard
                                ? DashboardStream(per_conn, rng)
                                : AdhocStream(sessions, shape, streams.warmup + per_conn, rng));
  }
  if (workload == Workload::kIngest) {
    streams.append_batches = streams.MeasuredQueries() / kReadsPerAppend;
    Rng rng = root.Split();
    streams.probes =
        AdhocStream(sessions, shape, streams.append_batches * kProbesPerAppend, rng);
  }
  return streams;
}

Table AppendBatch(uint64_t seed, uint64_t batch) {
  const blink::DemoDbOptions demo;
  blink::ConvivaConfig config;
  config.num_cities = demo.num_cities;
  config.num_urls = demo.num_urls;
  Rng rng(Mix(seed) ^ Mix(0xa99e4d00ULL + batch));
  return blink::GenerateConvivaArrivals(config, kAppendRows, rng);
}

std::string AppendPayload(const Table& rows, uint64_t id) {
  blink::AppendFrame frame;
  frame.id = id;
  frame.table = "sessions";
  for (size_t c = 0; c < rows.num_columns(); ++c) {
    frame.columns.push_back(rows.schema().column(c).name);
  }
  for (uint64_t r = 0; r < rows.num_rows(); ++r) {
    std::vector<blink::Value> row;
    for (size_t c = 0; c < rows.num_columns(); ++c) {
      row.push_back(rows.GetValue(c, r));
    }
    frame.rows.push_back(std::move(row));
  }
  return blink::EncodeAppend(frame);
}

std::string StreamBytes(const Streams& streams, uint64_t seed) {
  std::string bytes;
  for (const auto& ops : streams.conns) {
    for (const auto& q : ops) {
      bytes += q.Sql();
      bytes += '\n';
    }
  }
  for (const auto& q : streams.probes) {
    bytes += q.Sql();
    bytes += '\n';
  }
  for (uint64_t b = 0; b < streams.append_batches; ++b) {
    bytes += AppendPayload(AppendBatch(seed, b), b + 1);
    bytes += '\n';
  }
  return bytes;
}

}  // namespace perfbench
