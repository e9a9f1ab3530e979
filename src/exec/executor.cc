#include "src/exec/executor.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <utility>

#include "src/exec/aggregation.h"
#include "src/plan/query_plan.h"

namespace blink {

using exec_internal::AggAccum;
using exec_internal::BindQuery;
using exec_internal::BoundAgg;
using exec_internal::BoundQuery;
using exec_internal::Finalize;
using exec_internal::GroupMap;
using exec_internal::GroupState;
using exec_internal::StratumCell;

namespace {

// IEEE-754 totalOrder as an integer: negative doubles have their magnitude
// bits flipped so larger magnitudes sort first. Two doubles share a key
// exactly when they share a bit pattern.
int64_t TotalOrderKey(double d) {
  int64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits < 0 ? bits ^ std::numeric_limits<int64_t>::max() : bits;
}

}  // namespace

bool GroupValueLess(const std::vector<Value>& a, const std::vector<Value>& b) {
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    const Value& x = a[i];
    const Value& y = b[i];
    if (x.type() != y.type()) {
      return x.type() < y.type();
    }
    switch (x.type()) {
      case DataType::kInt64:
        if (x.AsInt() != y.AsInt()) {
          return x.AsInt() < y.AsInt();
        }
        break;
      case DataType::kDouble: {
        const int64_t kx = TotalOrderKey(x.AsDouble());
        const int64_t ky = TotalOrderKey(y.AsDouble());
        if (kx != ky) {
          return kx < ky;
        }
        break;
      }
      case DataType::kString:
        if (x.AsString() != y.AsString()) {
          return x.AsString() < y.AsString();
        }
        break;
    }
  }
  return a.size() < b.size();
}

std::vector<Estimate> FlattenEstimates(const QueryResult& result) {
  std::vector<Estimate> flat;
  for (const auto& row : result.rows) {
    flat.insert(flat.end(), row.aggregates.begin(), row.aggregates.end());
  }
  return flat;
}

std::string QueryResult::ToString() const {
  std::string out;
  for (const auto& name : group_names) {
    out += name + "\t";
  }
  for (const auto& name : aggregate_names) {
    out += name + "\t";
  }
  out += "\n";
  for (const auto& row : rows) {
    for (const auto& v : row.group_values) {
      out += v.is_string() ? v.AsString() : v.ToString();
      out += "\t";
    }
    for (const auto& est : row.aggregates) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.4g +/- %.3g", est.value, est.ErrorAt(confidence));
      out += buf;
      out += "\t";
    }
    out += "\n";
  }
  return out;
}

// The one-shot executor is a 1-pipeline plan under the never-stop rule: one
// batch spanning every block, no intermediate finalization.
Result<QueryResult> ExecuteQuery(const SelectStatement& stmt, const Dataset& fact,
                                 const Table* dim, const ExecutionOptions& options) {
  QueryPlan plan;
  PipelineSpec spec;
  spec.stmt = stmt;
  spec.dataset = fact;
  spec.dim = dim;
  plan.pipelines.push_back(std::move(spec));
  PlanOptions plan_options;
  plan_options.exec = options;
  auto run = ExecutePlan(plan, plan_options);
  if (!run.ok()) {
    return run.status();
  }
  return std::move(run->result);
}

Result<QueryResult> ExecuteQuery(const SelectStatement& stmt, const Dataset& fact,
                                 const Table* dim) {
  return ExecuteQuery(stmt, fact, dim, ExecutionOptions{});
}

Result<QueryResult> ExecuteQueryScalar(const SelectStatement& stmt, const Dataset& fact,
                                       const Table* dim) {
  auto bound = BindQuery(stmt, fact, dim);
  if (!bound.ok()) {
    return bound.status();
  }
  const BoundQuery& bq = bound.value();
  const Table& table = *bq.table;

  GroupMap groups;
  std::vector<int64_t> key;
  const uint64_t n = fact.NumRows();
  ScanStats stats;
  stats.rows_scanned = n;
  stats.bytes_scanned = static_cast<double>(n) * table.EstimatedBytesPerRow();
  stats.blocks_scanned = CountMorsels(n, kDefaultMorselRows, fact.prefix_boundaries);
  stats.block_rows = kDefaultMorselRows;
  for (uint64_t row = 0; row < n; ++row) {
    uint64_t dim_row = 0;
    if (bq.join_fact_col.has_value()) {
      const auto it = bq.join_index.find(table.CellKey(*bq.join_fact_col, row));
      if (it == bq.join_index.end()) {
        continue;  // inner join: drop unmatched fact rows
      }
      dim_row = it->second;
    }
    if (bq.where.has_value() && !bq.where->Matches(row, dim_row)) {
      continue;
    }
    ++stats.rows_matched;

    key.clear();
    for (const auto& ref : bq.group_cols) {
      key.push_back(ref.side == TableSide::kFact ? table.CellKey(ref.index, row)
                                                 : dim->CellKey(ref.index, dim_row));
    }
    auto [it, inserted] = groups.try_emplace(key);
    GroupState& group = it->second;
    if (inserted) {
      group.aggs.resize(bq.aggs.size());
      group.first_row = row;
      group.first_dim_row = dim_row;
    }

    const uint32_t stratum = fact.RowStratum(row);
    for (size_t a = 0; a < bq.aggs.size(); ++a) {
      const BoundAgg& bound_agg = bq.aggs[a];
      double x = 1.0;
      if (bound_agg.agg.func != AggFunc::kCount) {
        const Table& t = bound_agg.arg.side == TableSide::kFact ? table : *dim;
        const uint64_t r = bound_agg.arg.side == TableSide::kFact ? row : dim_row;
        x = t.GetNumeric(bound_agg.arg.index, r);
      }
      AggAccum& accum = group.aggs[a];
      if (bound_agg.agg.func == AggFunc::kQuantile) {
        accum.values.emplace_back(x, row);
      } else {
        StratumCell& cell = accum.CellFor(stratum);
        cell.matched += 1.0;
        const double v = bound_agg.agg.func == AggFunc::kCount ? 1.0 : x;
        cell.sum += v;
        cell.sum_sq += v * v;
      }
    }
  }
  return Finalize(stmt, fact, bq, groups, stats, nullptr);
}

}  // namespace blink
