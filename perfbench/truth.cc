#include "perfbench/truth.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>

#include "perfbench/metrics.h"

namespace perfbench {
namespace {

// The additive parts of an ingest query's aggregate: COUNT(*) alone, or
// COUNT(*) and SUM(col), which AVG divides.
std::string PartsSelect(const QuerySpec& spec, const char* table, bool by_batch) {
  std::string sql = "SELECT COUNT(*)";
  if (spec.agg != Agg::kCount) {
    sql += ", SUM(" + spec.column + ")";
  }
  sql += " FROM ";
  sql += table;
  if (!spec.where.empty()) {
    sql += " WHERE " + spec.where;
  }
  std::string groups = spec.group_by;
  if (by_batch) {
    groups += groups.empty() ? "batch" : ", batch";
  }
  if (!groups.empty()) {
    sql += " GROUP BY " + groups;
  }
  return sql;
}

blink::Result<blink::QueryResult> RunExact(const blink::BlinkDB& db, const std::string& sql) {
  auto answer = db.QueryExact(sql);
  if (!answer.ok()) {
    return blink::Status::Internal("exact '" + sql + "': " + answer.status().ToString());
  }
  return std::move(answer->result);
}

}  // namespace

Truth::Truth(blink::BlinkDB& db, uint64_t seed, uint64_t batches)
    : db_(db), with_appends_(batches > 0) {
  if (!with_appends_) {
    return;
  }
  std::vector<blink::ColumnSpec> columns = AppendBatch(seed, 0).schema().columns();
  const size_t batch_col = columns.size();
  columns.push_back({"batch", blink::DataType::kInt64});
  blink::Table arrivals{blink::Schema(columns)};
  arrivals.Reserve(batches * kAppendRows);
  for (uint64_t b = 0; b < batches; ++b) {
    const blink::Table rows = AppendBatch(seed, b);
    for (uint64_t r = 0; r < rows.num_rows(); ++r) {
      std::vector<blink::Value> row;
      row.reserve(batch_col + 1);
      for (size_t c = 0; c < batch_col; ++c) {
        row.push_back(rows.GetValue(c, r));
      }
      row.emplace_back(static_cast<int64_t>(b));
      (void)arrivals.AppendRow(row);
    }
  }
  (void)db_.RegisterTable("arrivals", std::move(arrivals));
}

blink::Status Truth::Prepare(const std::vector<const QuerySpec*>& specs, size_t threads) {
  // Distinct statements, each computed once.
  std::vector<const QuerySpec*> todo;
  for (const QuerySpec* spec : specs) {
    const std::string key = spec->Select();
    const bool fresh = with_appends_ ? parts_.emplace(key, Parts{}).second
                                     : exact_.emplace(key, blink::QueryResult{}).second;
    if (fresh) {
      todo.push_back(spec);
    }
  }
  std::atomic<size_t> next{0};
  std::vector<blink::Status> errors(threads, blink::Status::Ok());
  auto work = [&](size_t worker) {
    for (size_t i = next++; i < todo.size(); i = next++) {
      const QuerySpec& spec = *todo[i];
      const std::string key = spec.Select();
      if (!with_appends_) {
        auto exact = RunExact(db_, key);
        if (!exact.ok()) {
          errors[worker] = exact.status();
          return;
        }
        exact_.at(key) = std::move(*exact);
        continue;
      }
      auto base = RunExact(db_, PartsSelect(spec, "sessions", false));
      auto arrivals = RunExact(db_, PartsSelect(spec, "arrivals", true));
      if (!base.ok() || !arrivals.ok()) {
        errors[worker] = base.ok() ? arrivals.status() : base.status();
        return;
      }
      Parts& parts = parts_.at(key);
      parts.base = std::move(*base);
      parts.arrivals = std::move(*arrivals);
    }
  };
  // The map nodes exist already; workers only fill distinct entries.
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back(work, t);
  }
  for (auto& thread : pool) {
    thread.join();
  }
  for (const auto& status : errors) {
    BLINK_RETURN_IF_ERROR(status);
  }
  return blink::Status::Ok();
}

const blink::QueryResult& Truth::Exact(const QuerySpec& spec) const {
  return exact_.at(spec.Select());
}

blink::QueryResult Truth::AfterAppends(const QuerySpec& spec, uint64_t batches) const {
  const Parts& parts = parts_.at(spec.Select());
  struct Cell {
    std::vector<blink::Value> group;
    double count = 0;
    double sum = 0;
  };
  std::map<std::string, Cell> cells;
  const size_t groups = spec.group_by.empty() ? 0 : 1;
  auto add = [&](const blink::ResultRow& row) {
    Cell& cell = cells[GroupKey(row.group_values, groups)];
    cell.group.assign(row.group_values.begin(), row.group_values.begin() + groups);
    cell.count += row.aggregates[0].value;
    if (row.aggregates.size() > 1) {
      cell.sum += row.aggregates[1].value;
    }
  };
  for (const auto& row : parts.base.rows) {
    add(row);
  }
  for (const auto& row : parts.arrivals.rows) {
    if (row.group_values.back().AsInt() < static_cast<int64_t>(batches)) {
      add(row);
    }
  }
  if (groups == 0 && cells.empty()) {
    cells[""];  // a scalar answer over no rows is 0, not absent
  }
  blink::QueryResult exact;
  exact.aggregate_names = {spec.Select()};
  for (auto& [key, cell] : cells) {
    if (cell.count == 0 && groups > 0) {
      continue;  // a group with no rows is absent
    }
    blink::ResultRow row;
    row.group_values = std::move(cell.group);
    blink::Estimate estimate;
    estimate.value = spec.agg == Agg::kCount ? cell.count
                     : spec.agg == Agg::kSum ? cell.sum
                                             : cell.sum / cell.count;
    row.aggregates.push_back(estimate);
    exact.rows.push_back(std::move(row));
  }
  return exact;
}

}  // namespace perfbench
