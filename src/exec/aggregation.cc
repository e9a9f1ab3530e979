#include "src/exec/aggregation.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/stats/estimators.h"
#include "src/util/string_util.h"

namespace blink {
namespace exec_internal {
namespace {

// Evaluates a HAVING predicate over a finished result row. Columns resolve to
// group values (by name) or aggregate estimates (by display name or alias).
bool EvalHaving(const Predicate& pred, const ResultRow& row,
                const std::vector<std::string>& group_names,
                const std::vector<std::string>& agg_names) {
  switch (pred.kind) {
    case Predicate::Kind::kAnd:
      for (const auto& child : pred.children) {
        if (!EvalHaving(child, row, group_names, agg_names)) {
          return false;
        }
      }
      return true;
    case Predicate::Kind::kOr:
      for (const auto& child : pred.children) {
        if (EvalHaving(child, row, group_names, agg_names)) {
          return true;
        }
      }
      return false;
    case Predicate::Kind::kCompare:
      break;
  }
  // Locate the referenced value.
  Value cell;
  bool found = false;
  for (size_t i = 0; i < group_names.size(); ++i) {
    if (EqualsIgnoreCase(group_names[i], pred.column)) {
      cell = row.group_values[i];
      found = true;
      break;
    }
  }
  if (!found) {
    for (size_t i = 0; i < agg_names.size(); ++i) {
      if (EqualsIgnoreCase(agg_names[i], pred.column)) {
        cell = Value(row.aggregates[i].value);
        found = true;
        break;
      }
    }
  }
  if (!found) {
    return false;
  }
  if (cell.is_string() != pred.literal.is_string()) {
    return false;
  }
  if (cell.is_string()) {
    const bool eq = cell.AsString() == pred.literal.AsString();
    return pred.op == CompareOp::kEq ? eq : pred.op == CompareOp::kNe && !eq;
  }
  const double lhs = cell.AsNumeric();
  const double rhs = pred.literal.AsNumeric();
  switch (pred.op) {
    case CompareOp::kEq:
      return lhs == rhs;
    case CompareOp::kNe:
      return lhs != rhs;
    case CompareOp::kLt:
      return lhs < rhs;
    case CompareOp::kLe:
      return lhs <= rhs;
    case CompareOp::kGt:
      return lhs > rhs;
    case CompareOp::kGe:
      return lhs >= rhs;
  }
  return false;
}

// Deterministic output order: lexicographic on group values.
bool GroupValueLess(const std::vector<Value>& a, const std::vector<Value>& b) {
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    if (a[i] == b[i]) {
      continue;
    }
    if (a[i].is_string() && b[i].is_string()) {
      return a[i].AsString() < b[i].AsString();
    }
    return a[i].AsNumeric() < b[i].AsNumeric();
  }
  return a.size() < b.size();
}

// Quantile weight of one reservoir entry. Full scans reproduce the dataset's
// per-row weight exactly; prefix scans re-derive the weight from the prefix's
// per-stratum consumed counts.
double QuantileWeightFor(const Dataset& fact, uint64_t row,
                         const std::vector<double>* prefix_sampled_rows) {
  if (prefix_sampled_rows == nullptr) {
    return fact.RowWeight(row);
  }
  const uint32_t stratum = fact.RowStratum(row);
  const StratumCounts counts = fact.CountsFor(stratum);
  const double sampled = stratum < prefix_sampled_rows->size()
                             ? (*prefix_sampled_rows)[stratum]
                             : counts.sampled_rows;
  return sampled > 0.0 ? counts.total_rows / sampled : 1.0;
}

}  // namespace

Result<BoundQuery> BindQuery(const SelectStatement& stmt, const Dataset& fact,
                             const Table* dim) {
  if (fact.table == nullptr) {
    return Status::InvalidArgument("dataset has no table");
  }
  BoundQuery bq;
  bq.table = fact.table;
  bq.dim = dim;
  const Table& table = *fact.table;
  // Dimension columns are only addressable through a JOIN: without one there
  // is no dim row to read, so the dim schema is invisible to resolution and
  // such references fail cleanly as unknown columns.
  const Schema* dim_schema =
      dim != nullptr && stmt.join.has_value() ? &dim->schema() : nullptr;
  BLINK_RETURN_IF_ERROR(ValidateQuery(stmt, table.schema(), dim_schema));

  for (const auto& g : stmt.group_by) {
    auto ref = ResolveColumn(g, table.schema(), dim_schema);
    if (!ref.ok()) {
      return ref.status();
    }
    bq.group_cols.push_back(*ref);
    bq.group_names.push_back(g);
  }
  for (const auto& item : stmt.items) {
    if (!item.is_aggregate) {
      continue;
    }
    BoundAgg bound;
    bound.agg = item.agg;
    if (!item.agg.count_star) {
      auto ref = ResolveColumn(item.agg.column, table.schema(), dim_schema);
      if (!ref.ok()) {
        return ref.status();
      }
      bound.arg = *ref;
    }
    bq.aggs.push_back(bound);
    bq.agg_names.push_back(SelectItemName(item));
  }

  if (stmt.where.has_value()) {
    auto compiled = CompiledPredicate::Compile(
        *stmt.where, table, stmt.join.has_value() ? dim : nullptr);
    if (!compiled.ok()) {
      return compiled.status();
    }
    bq.where = std::move(compiled.value());
  }

  // Build the join hash table (dim key -> first dim row). Per §2.1 the
  // dimension side is an exact in-memory table (typically a foreign key
  // target, so keys are unique).
  if (stmt.join.has_value()) {
    if (dim == nullptr) {
      return Status::InvalidArgument("join requested but no dimension table provided");
    }
    bq.join_fact_col = table.schema().FindColumn(stmt.join->left_column);
    const auto join_dim_col = dim->schema().FindColumn(stmt.join->right_column);
    bq.join_index.reserve(dim->num_rows());
    const bool string_key =
        table.schema().column(*bq.join_fact_col).type == DataType::kString;
    for (uint64_t r = 0; r < dim->num_rows(); ++r) {
      if (string_key) {
        // Dictionary codes differ between tables; key the index by the FACT
        // table's code for the dim row's string (absent => unjoinable).
        const int32_t fact_code =
            table.column(*bq.join_fact_col).dict->Find(dim->GetString(*join_dim_col, r));
        if (fact_code >= 0) {
          bq.join_index.emplace(fact_code, r);
        }
      } else {
        bq.join_index.emplace(dim->CellKey(*join_dim_col, r), r);
      }
    }
  }

  // Collect the fact columns the block path reads, and adopt the table's
  // compressed storage when it covers the dataset (a table that grew since
  // encoding reports no encoding; see Table::encoded_blocks).
  //
  // Gathered columns — grouping, aggregate arguments, the join key — need
  // materialized rows; columns only the predicate reads do not, which is what
  // lets the compressed scan serve them as encoded views.
  std::vector<size_t> gathered;
  for (const auto& ref : bq.group_cols) {
    if (ref.side == TableSide::kFact) {
      gathered.push_back(ref.index);
    }
  }
  for (const auto& bound : bq.aggs) {
    // COUNT never gathers its argument, so it charges no column bytes.
    if (bound.agg.func != AggFunc::kCount && bound.arg.side == TableSide::kFact) {
      gathered.push_back(bound.arg.index);
    }
  }
  if (bq.join_fact_col.has_value()) {
    gathered.push_back(*bq.join_fact_col);
  }
  std::sort(gathered.begin(), gathered.end());
  gathered.erase(std::unique(gathered.begin(), gathered.end()), gathered.end());

  if (bq.where.has_value()) {
    bq.fact_cols = bq.where->fact_columns();
  }
  bq.fact_cols.insert(bq.fact_cols.end(), gathered.begin(), gathered.end());
  std::sort(bq.fact_cols.begin(), bq.fact_cols.end());
  bq.fact_cols.erase(std::unique(bq.fact_cols.begin(), bq.fact_cols.end()),
                     bq.fact_cols.end());
  // fact_cols is predicate ∪ gathered, so anything not gathered is read by
  // the predicate alone.
  bq.fact_col_filter_only.assign(bq.fact_cols.size(), 0);
  for (size_t i = 0; i < bq.fact_cols.size(); ++i) {
    bq.fact_col_filter_only[i] =
        std::binary_search(gathered.begin(), gathered.end(), bq.fact_cols[i])
            ? 0
            : 1;
  }
  bq.encoded = table.encoded_blocks();
  return bq;
}

void ProcessMorsel(const BoundQuery& bq, const Dataset& fact, const Morsel& m,
                   WorkerScratch& s, MorselPartial& out, bool count_scanned) {
  const Table& table = *bq.table;
  const size_t n = static_cast<size_t>(m.rows());
  const bool joined = bq.join_fact_col.has_value();

  const uint32_t* strata =
      fact.strata != nullptr ? fact.strata->data() + m.begin : nullptr;

  // Per-block column views for every fact column this query touches: straight
  // pointers into the raw vectors, morsel-at-a-time decodes into this
  // worker's scratch, or — for filter-only columns of compressed storage —
  // encoded views the predicate evaluates without decoding. Each decoded span
  // charges its logical bytes; encoded views charge nothing, which is what
  // makes bytes_decoded mean "bytes actually materialized".
  if (s.spans.size() < table.num_columns()) {
    s.spans.resize(table.num_columns());
  }
  for (size_t i = 0; i < bq.fact_cols.size(); ++i) {
    const size_t col = bq.fact_cols[i];
    const bool filter_only =
        bq.use_encoded_views && bq.fact_col_filter_only[i] != 0;
    s.spans[col] =
        bq.encoded != nullptr
            ? bq.encoded->DecodeRange(col, m.begin, m.end, s.decode, filter_only)
            : table.BlockSpan(col, m.begin);
    if (s.spans[col].encoding == SpanEncoding::kDecoded) {
      const double width =
          table.schema().column(col).type == DataType::kString ? 4.0 : 8.0;
      out.bytes_decoded += static_cast<double>(n) * width;
    }
  }

  // 0. Scanned-row tally per stratum (whole block, before any filtering): the
  // prefix counts n_h(prefix) that validate estimates over a stopped prefix.
  if (count_scanned) {
    if (strata == nullptr) {
      out.stratum_scanned.assign(1, static_cast<double>(n));
    } else {
      uint32_t max_stratum = 0;
      for (size_t i = 0; i < n; ++i) {
        max_stratum = std::max(max_stratum, strata[i]);
      }
      out.stratum_scanned.assign(max_stratum + 1, 0.0);
      for (size_t i = 0; i < n; ++i) {
        out.stratum_scanned[strata[i]] += 1.0;
      }
    }
  }

  // 1. Candidate selection: all rows of the block, minus join misses.
  s.sel.resize(n);
  std::iota(s.sel.begin(), s.sel.end(), 0u);
  if (joined) {
    s.join_keys.resize(n);
    GatherCellKeysSpan(s.spans[*bq.join_fact_col],
                       table.schema().column(*bq.join_fact_col).type,
                       s.sel.data(), n, s.join_keys.data());
    s.dim_rows.resize(n);
    size_t kept = 0;
    for (size_t i = 0; i < n; ++i) {
      const auto it = bq.join_index.find(s.join_keys[i]);
      if (it != bq.join_index.end()) {  // inner join: drop unmatched fact rows
        s.sel[kept] = static_cast<uint32_t>(i);
        s.dim_rows[kept] = it->second;
        ++kept;
      }
    }
    s.sel.resize(kept);
    s.dim_rows.resize(kept);
  }

  // 2. Vectorized predicate: narrow the selection block-at-a-time.
  if (bq.where.has_value()) {
    bq.where->FilterBlock(s.spans.data(), s.sel, joined ? &s.dim_rows : nullptr,
                          &s.predicate);
  }
  const size_t cnt = s.sel.size();
  out.rows_matched += cnt;
  if (cnt == 0) {
    return;
  }

  // 3. Gather aggregate arguments once per block.
  s.agg_values.resize(bq.aggs.size());
  for (size_t a = 0; a < bq.aggs.size(); ++a) {
    const BoundAgg& bound = bq.aggs[a];
    if (bound.agg.func == AggFunc::kCount) {
      continue;
    }
    s.agg_values[a].resize(cnt);
    if (bound.arg.side == TableSide::kFact) {
      GatherNumericSpan(s.spans[bound.arg.index],
                        table.schema().column(bound.arg.index).type, s.sel.data(),
                        cnt, s.agg_values[a].data());
    } else {
      for (size_t i = 0; i < cnt; ++i) {
        s.agg_values[a][i] = bq.dim->GetNumeric(bound.arg.index, s.dim_rows[i]);
      }
    }
  }

  // 4a. Global aggregate: one group, tight per-aggregate loops.
  if (bq.group_cols.empty()) {
    auto [it, inserted] = out.groups.try_emplace(std::vector<int64_t>{});
    GroupState& group = it->second;
    if (inserted) {
      group.aggs.resize(bq.aggs.size());
    }
    for (size_t a = 0; a < bq.aggs.size(); ++a) {
      const BoundAgg& bound = bq.aggs[a];
      AggAccum& accum = group.aggs[a];
      if (bound.agg.func == AggFunc::kQuantile) {
        for (size_t i = 0; i < cnt; ++i) {
          accum.values.emplace_back(s.agg_values[a][i], m.begin + s.sel[i]);
        }
      } else if (bound.agg.func == AggFunc::kCount) {
        if (strata == nullptr) {
          // Single stratum, unit values: the whole block folds into one add
          // (exact, so identical to row-at-a-time accumulation).
          StratumCell& cell = accum.CellFor(0);
          const double c = static_cast<double>(cnt);
          cell.matched += c;
          cell.sum += c;
          cell.sum_sq += c;
        } else {
          for (size_t i = 0; i < cnt; ++i) {
            StratumCell& cell = accum.CellFor(strata[s.sel[i]]);
            cell.matched += 1.0;
            cell.sum += 1.0;
            cell.sum_sq += 1.0;
          }
        }
      } else {
        const double* vals = s.agg_values[a].data();
        if (strata == nullptr) {
          StratumCell& cell = accum.CellFor(0);
          for (size_t i = 0; i < cnt; ++i) {
            const double v = vals[i];
            cell.matched += 1.0;
            cell.sum += v;
            cell.sum_sq += v * v;
          }
        } else {
          for (size_t i = 0; i < cnt; ++i) {
            const double v = vals[i];
            StratumCell& cell = accum.CellFor(strata[s.sel[i]]);
            cell.matched += 1.0;
            cell.sum += v;
            cell.sum_sq += v * v;
          }
        }
      }
    }
    return;
  }

  // 4b. Grouped aggregate: gather group keys per column, then accumulate.
  s.group_keys.resize(bq.group_cols.size());
  for (size_t j = 0; j < bq.group_cols.size(); ++j) {
    const ColumnRef& ref = bq.group_cols[j];
    s.group_keys[j].resize(cnt);
    if (ref.side == TableSide::kFact) {
      GatherCellKeysSpan(s.spans[ref.index], table.schema().column(ref.index).type,
                         s.sel.data(), cnt, s.group_keys[j].data());
    } else {
      for (size_t i = 0; i < cnt; ++i) {
        s.group_keys[j][i] = bq.dim->CellKey(ref.index, s.dim_rows[i]);
      }
    }
  }
  if (s.group_hint > 0) {
    out.groups.reserve(s.group_hint);
  }
  for (size_t i = 0; i < cnt; ++i) {
    s.key.clear();
    for (size_t j = 0; j < bq.group_cols.size(); ++j) {
      s.key.push_back(s.group_keys[j][i]);
    }
    auto [it, inserted] = out.groups.try_emplace(s.key);
    GroupState& group = it->second;
    if (inserted) {
      group.aggs.resize(bq.aggs.size());
      group.first_row = m.begin + s.sel[i];
      group.first_dim_row = joined ? s.dim_rows[i] : 0;
    }
    const uint32_t stratum = strata != nullptr ? strata[s.sel[i]] : 0;
    for (size_t a = 0; a < bq.aggs.size(); ++a) {
      const BoundAgg& bound = bq.aggs[a];
      AggAccum& accum = group.aggs[a];
      if (bound.agg.func == AggFunc::kQuantile) {
        accum.values.emplace_back(s.agg_values[a][i], m.begin + s.sel[i]);
      } else {
        StratumCell& cell = accum.CellFor(stratum);
        cell.matched += 1.0;
        const double v =
            bound.agg.func == AggFunc::kCount ? 1.0 : s.agg_values[a][i];
        cell.sum += v;
        cell.sum_sq += v * v;
      }
    }
  }
  s.group_hint = out.groups.size();
}

void MergePartials(std::vector<MorselPartial>& partials, size_t num_aggs,
                   GroupMap& groups, ScanStats& stats,
                   std::vector<double>* scanned_per_stratum) {
  for (MorselPartial& partial : partials) {
    stats.rows_matched += partial.rows_matched;
    if (scanned_per_stratum != nullptr) {
      if (partial.stratum_scanned.size() > scanned_per_stratum->size()) {
        scanned_per_stratum->resize(partial.stratum_scanned.size(), 0.0);
      }
      for (size_t h = 0; h < partial.stratum_scanned.size(); ++h) {
        (*scanned_per_stratum)[h] += partial.stratum_scanned[h];
      }
    }
    for (auto& [key, pg] : partial.groups) {
      auto [it, inserted] = groups.try_emplace(key);
      GroupState& group = it->second;
      if (inserted) {
        group.first_row = pg.first_row;
        group.first_dim_row = pg.first_dim_row;
        group.aggs.resize(num_aggs);
      }
      for (size_t a = 0; a < num_aggs; ++a) {
        AggAccum& into = group.aggs[a];
        AggAccum& from = pg.aggs[a];
        if (!from.values.empty()) {
          into.values.insert(into.values.end(), from.values.begin(), from.values.end());
        }
        for (uint32_t s = 0; s < from.num_strata(); ++s) {
          const StratumCell& cell = from.cell(s);
          if (cell.matched == 0.0) {
            continue;
          }
          StratumCell& dst = into.CellFor(s);
          dst.matched += cell.matched;
          dst.sum += cell.sum;
          dst.sum_sq += cell.sum_sq;
        }
      }
    }
  }
}

Result<QueryResult> Finalize(const SelectStatement& stmt, const Dataset& fact,
                             const BoundQuery& bq, const GroupMap& groups,
                             ScanStats stats,
                             const std::vector<double>* prefix_sampled_rows) {
  QueryResult result;
  result.group_names = bq.group_names;
  result.aggregate_names = bq.agg_names;
  result.stats = stats;
  if (stmt.bounds.kind == QueryBounds::Kind::kError || stmt.report_error_columns) {
    result.confidence = stmt.bounds.confidence;
  }

  auto emit_row = [&](const GroupState& group) -> void {
    ResultRow row;
    row.group_values.reserve(bq.group_cols.size());
    for (const auto& ref : bq.group_cols) {
      row.group_values.push_back(ref.side == TableSide::kFact
                                     ? bq.table->GetValue(ref.index, group.first_row)
                                     : bq.dim->GetValue(ref.index, group.first_dim_row));
    }
    row.aggregates.reserve(bq.aggs.size());
    for (size_t a = 0; a < bq.aggs.size(); ++a) {
      const BoundAgg& bound = bq.aggs[a];
      const AggAccum& accum = group.aggs[a];
      if (bound.agg.func == AggFunc::kQuantile) {
        std::vector<std::pair<double, double>> value_weight;
        value_weight.reserve(accum.values.size());
        for (const auto& [value, fact_row] : accum.values) {
          value_weight.emplace_back(
              value, QuantileWeightFor(fact, fact_row, prefix_sampled_rows));
        }
        Estimate q = WeightedQuantile(std::move(value_weight), bound.agg.quantile_p);
        if (fact.is_exact()) {
          q.variance = 0.0;  // computed over the entire population
        }
        row.aggregates.push_back(q);
        continue;
      }
      std::vector<StratumSummary> strata;
      strata.reserve(accum.num_strata());
      for (uint32_t stratum_id = 0; stratum_id < accum.num_strata(); ++stratum_id) {
        const StratumCell& cell = accum.cell(stratum_id);
        if (cell.matched == 0.0) {
          continue;  // untouched stratum: contributes nothing
        }
        const StratumCounts counts = fact.CountsFor(stratum_id);
        StratumSummary s;
        s.total_rows = counts.total_rows;
        s.sampled_rows =
            prefix_sampled_rows != nullptr && stratum_id < prefix_sampled_rows->size()
                ? (*prefix_sampled_rows)[stratum_id]
                : counts.sampled_rows;
        s.matched = cell.matched;
        s.sum = cell.sum;
        s.sum_sq = cell.sum_sq;
        strata.push_back(s);
      }
      switch (bound.agg.func) {
        case AggFunc::kCount:
          row.aggregates.push_back(StratifiedCount(strata));
          break;
        case AggFunc::kSum:
          row.aggregates.push_back(StratifiedSum(strata));
          break;
        case AggFunc::kAvg:
          row.aggregates.push_back(StratifiedAvg(strata));
          break;
        case AggFunc::kQuantile:
          break;  // handled above
      }
    }
    result.rows.push_back(std::move(row));
  };

  // SQL semantics: a global aggregate (no GROUP BY) always yields one row,
  // even when nothing matched.
  if (groups.empty() && bq.group_cols.empty()) {
    GroupState empty_group;
    empty_group.aggs.resize(bq.aggs.size());
    emit_row(empty_group);
  } else {
    result.rows.reserve(groups.size());
    for (const auto& [group_key, group] : groups) {
      (void)group_key;
      emit_row(group);
    }
  }

  // HAVING filter on finished rows.
  if (stmt.having.has_value()) {
    std::vector<ResultRow> kept;
    kept.reserve(result.rows.size());
    for (auto& row : result.rows) {
      if (EvalHaving(*stmt.having, row, result.group_names, result.aggregate_names)) {
        kept.push_back(std::move(row));
      }
    }
    result.rows = std::move(kept);
  }

  std::sort(result.rows.begin(), result.rows.end(),
            [](const ResultRow& a, const ResultRow& b) {
              return GroupValueLess(a.group_values, b.group_values);
            });
  return result;
}

}  // namespace exec_internal
}  // namespace blink
