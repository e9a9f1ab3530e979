#include "src/plan/union_combiner.h"

#include <map>
#include <utility>

namespace blink {

UnionCombiner::UnionCombiner(const SelectStatement& stmt) {
  int count_pos = -1;
  size_t num_orig_aggs = 0;
  for (const auto& item : stmt.items) {
    if (item.is_aggregate) {
      if (item.agg.func == AggFunc::kCount && count_pos < 0) {
        count_pos = static_cast<int>(num_orig_aggs);
      }
      agg_funcs_.push_back(item.agg.func);
      ++num_orig_aggs;
    }
  }
  append_count_ = count_pos < 0;
  count_idx_ = append_count_ ? num_orig_aggs : static_cast<size_t>(count_pos);
}

void UnionCombiner::PrepareSubquery(SelectStatement& sub) const {
  if (!append_count_) {
    return;
  }
  SelectItem count_item;
  count_item.is_aggregate = true;
  count_item.agg.count_star = true;
  count_item.agg.func = AggFunc::kCount;
  count_item.alias = "__blink_count";
  sub.items.push_back(count_item);
}

double UnionCombiner::CellContribution(const ResultRow& row, size_t agg_idx) const {
  if (agg_idx >= agg_funcs_.size() || agg_idx >= row.aggregates.size()) {
    return 0.0;
  }
  const Estimate& est = row.aggregates[agg_idx];
  switch (agg_funcs_[agg_idx]) {
    case AggFunc::kCount:
    case AggFunc::kSum:
      return est.variance;
    case AggFunc::kAvg: {
      const double count =
          count_idx_ < row.aggregates.size() ? row.aggregates[count_idx_].value : 0.0;
      return count * count * est.variance;
    }
    case AggFunc::kQuantile:
      return 0.0;
  }
  return 0.0;
}

QueryResult UnionCombiner::Combine(const std::vector<QueryResult>& partials,
                                   double confidence) const {
  std::vector<const QueryResult*> refs;
  refs.reserve(partials.size());
  for (const auto& partial : partials) {
    refs.push_back(&partial);
  }
  return Combine(refs, confidence);
}

QueryResult UnionCombiner::Combine(const std::vector<const QueryResult*>& partials,
                                   double confidence) const {
  // Merge groups across partial results under the executor's group order,
  // so groups surfaced by different pipelines coalesce exactly when one scan
  // would have grouped them together, and the combined rows come out in the
  // order a single pipeline's rows do, whichever pipeline saw a group first.
  struct Combined {
    std::vector<Estimate> sums;        // per original aggregate: accumulated
    std::vector<double> weighted_num;  // for AVG: sum of value*count
    std::vector<double> total_count;   // for AVG: sum of counts
  };
  std::map<std::vector<Value>, Combined, decltype(&GroupValueLess)> merged(&GroupValueLess);
  for (const QueryResult* partial : partials) {
    for (const auto& row : partial->rows) {
      Combined& c = merged[row.group_values];
      if (c.sums.empty()) {
        c.sums.resize(agg_funcs_.size());
        c.weighted_num.assign(agg_funcs_.size(), 0.0);
        c.total_count.assign(agg_funcs_.size(), 0.0);
      }
      const double count_value =
          count_idx_ < row.aggregates.size() ? row.aggregates[count_idx_].value : 0.0;
      for (size_t a = 0; a < agg_funcs_.size(); ++a) {
        const Estimate& est = row.aggregates[a];
        switch (agg_funcs_[a]) {
          case AggFunc::kCount:
          case AggFunc::kSum:
            c.sums[a].value += est.value;
            c.sums[a].variance += est.variance;
            break;
          case AggFunc::kAvg:
            c.weighted_num[a] += est.value * count_value;
            c.total_count[a] += count_value;
            // Approximate numerator variance: count^2 * var(avg).
            c.sums[a].variance += count_value * count_value * est.variance;
            break;
          case AggFunc::kQuantile:
            // Quantiles cannot be recombined across disjuncts; the planner
            // never routes them through a union plan.
            break;
        }
      }
    }
  }

  QueryResult combined;
  combined.group_names = partials.front()->group_names;
  combined.aggregate_names.assign(partials.front()->aggregate_names.begin(),
                                  partials.front()->aggregate_names.begin() +
                                      static_cast<long>(agg_funcs_.size()));
  combined.confidence = confidence;
  for (const auto& [group_values, c] : merged) {
    ResultRow row;
    row.group_values = group_values;
    for (size_t a = 0; a < agg_funcs_.size(); ++a) {
      Estimate est = c.sums[a];
      if (agg_funcs_[a] == AggFunc::kAvg) {
        // A cell every part matched nothing in has no mean: the empty
        // estimate, as StratifiedAvg returns for the same cell.
        const double total = c.total_count[a];
        est = total > 0.0 ? Estimate{c.weighted_num[a] / total,
                                     c.sums[a].variance / (total * total)}
                          : Estimate{};
      }
      row.aggregates.push_back(est);
    }
    combined.rows.push_back(std::move(row));
  }
  return combined;
}

}  // namespace blink
