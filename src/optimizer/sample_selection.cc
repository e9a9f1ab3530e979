#include "src/optimizer/sample_selection.h"

#include <algorithm>
#include <cmath>

#include "src/lp/milp.h"

namespace blink {
namespace {

bool IsSubsetSorted(const std::vector<std::string>& sub,
                    const std::vector<std::string>& super) {
  return std::includes(super.begin(), super.end(), sub.begin(), sub.end());
}

// Greedy fallback: repeatedly add the candidate with the best marginal
// objective gain per storage byte, honoring budget and churn.
SelectionResult SolveGreedy(const std::vector<TemplateInfo>& templates,
                            const std::vector<ColumnSetStats>& candidates,
                            const SelectionConfig& config,
                            const std::vector<bool>* existing) {
  const size_t m = templates.size();
  const size_t a = candidates.size();
  SelectionResult result;

  std::vector<bool> chosen(a, false);
  std::vector<double> coverage(m, 0.0);  // current y_i
  double storage = 0.0;

  // Churn budget: with existing families, keep them all (zero churn) and
  // spend at most r * existing_storage on additions. Dropping existing
  // families never helps the greedy objective, so the churn constraint
  // reduces to a cap on new storage.
  double churn_budget = std::numeric_limits<double>::infinity();
  if (existing != nullptr && config.churn_r < 1.0) {
    double existing_storage = 0.0;
    for (size_t j = 0; j < a; ++j) {
      if ((*existing)[j]) {
        existing_storage += candidates[j].sample_bytes;
      }
    }
    churn_budget = config.churn_r * existing_storage;
    for (size_t j = 0; j < a; ++j) {
      if ((*existing)[j] && storage + candidates[j].sample_bytes <=
                                config.storage_budget_bytes) {
        chosen[j] = true;
        storage += candidates[j].sample_bytes;
        for (size_t i = 0; i < m; ++i) {
          coverage[i] =
              std::max(coverage[i], CoverageCoefficient(templates[i], candidates[j]));
        }
      }
    }
  }

  double spent_churn = 0.0;
  for (;;) {
    double best_ratio = 0.0;
    size_t best_j = a;
    double best_gain = 0.0;
    for (size_t j = 0; j < a; ++j) {
      if (chosen[j]) {
        continue;
      }
      const double cost = candidates[j].sample_bytes;
      if (storage + cost > config.storage_budget_bytes) {
        continue;
      }
      const bool is_new = existing == nullptr || !(*existing)[j];
      if (is_new && spent_churn + cost > churn_budget) {
        continue;
      }
      double gain = 0.0;
      for (size_t i = 0; i < m; ++i) {
        const double cov = CoverageCoefficient(templates[i], candidates[j]);
        if (cov > coverage[i]) {
          gain += templates[i].weight * static_cast<double>(templates[i].tail_count) *
                  (cov - coverage[i]);
        }
      }
      const double ratio = cost > 0.0 ? gain / cost : gain;
      if (gain > 0.0 && ratio > best_ratio) {
        best_ratio = ratio;
        best_j = j;
        best_gain = gain;
      }
    }
    if (best_j == a) {
      break;
    }
    chosen[best_j] = true;
    storage += candidates[best_j].sample_bytes;
    if (existing == nullptr || !(*existing)[best_j]) {
      spent_churn += candidates[best_j].sample_bytes;
    }
    result.objective += best_gain;
    for (size_t i = 0; i < m; ++i) {
      coverage[i] =
          std::max(coverage[i], CoverageCoefficient(templates[i], candidates[best_j]));
    }
  }

  for (size_t j = 0; j < a; ++j) {
    if (chosen[j]) {
      result.chosen.push_back(j);
    }
  }
  result.storage_bytes = storage;
  result.used_milp = false;
  // Recompute the exact objective from final coverage.
  result.objective = 0.0;
  for (size_t i = 0; i < m; ++i) {
    result.objective +=
        templates[i].weight * static_cast<double>(templates[i].tail_count) * coverage[i];
  }
  return result;
}

}  // namespace

double CoverageCoefficient(const TemplateInfo& tmpl, const ColumnSetStats& candidate) {
  if (tmpl.distinct_values == 0) {
    return 0.0;
  }
  if (!IsSubsetSorted(candidate.columns, tmpl.columns)) {
    return 0.0;
  }
  return std::min(1.0, static_cast<double>(candidate.distinct_values) /
                           static_cast<double>(tmpl.distinct_values));
}

SelectionResult SelectSampleColumnSets(const std::vector<TemplateInfo>& templates,
                                       const std::vector<ColumnSetStats>& candidates,
                                       const SelectionConfig& config,
                                       const std::vector<bool>* existing) {
  if (!config.use_milp) {
    return SolveGreedy(templates, candidates, config, existing);
  }

  const size_t m = templates.size();
  const size_t a = candidates.size();

  MilpProblem milp;
  // Variables: z_j (binary), y_i in [0,1], t_ij in [0,1] for covering pairs.
  // z_j carries a vanishing storage penalty so that ties break toward NOT
  // building families that contribute nothing to the objective.
  double max_store = 1.0;
  for (const auto& c : candidates) {
    max_store = std::max(max_store, c.sample_bytes);
  }
  std::vector<size_t> z_vars(a);
  for (size_t j = 0; j < a; ++j) {
    z_vars[j] = milp.lp.AddVariable(-1e-6 * candidates[j].sample_bytes / max_store, 1.0);
    milp.binary_vars.push_back(z_vars[j]);
  }
  std::vector<size_t> y_vars(m);
  for (size_t i = 0; i < m; ++i) {
    y_vars[i] = milp.lp.AddVariable(
        templates[i].weight * static_cast<double>(templates[i].tail_count), 1.0);
  }

  // (3) storage budget.
  {
    LinearConstraint budget;
    for (size_t j = 0; j < a; ++j) {
      budget.terms.emplace_back(z_vars[j], candidates[j].sample_bytes);
    }
    budget.relation = Relation::kLe;
    budget.rhs = config.storage_budget_bytes;
    milp.lp.AddConstraint(std::move(budget));
  }

  // (4) coverage, linearized.
  for (size_t i = 0; i < m; ++i) {
    LinearConstraint y_le_sum;       // y_i - sum_j cov_ij t_ij <= 0
    LinearConstraint t_sum;          // sum_j t_ij <= 1
    y_le_sum.terms.emplace_back(y_vars[i], 1.0);
    bool any = false;
    for (size_t j = 0; j < a; ++j) {
      const double cov = CoverageCoefficient(templates[i], candidates[j]);
      if (cov <= 0.0) {
        continue;
      }
      any = true;
      const size_t t_var = milp.lp.AddVariable(0.0, 1.0);
      y_le_sum.terms.emplace_back(t_var, -cov);
      t_sum.terms.emplace_back(t_var, 1.0);
      // t_ij <= z_j.
      milp.lp.AddConstraint({{{t_var, 1.0}, {z_vars[j], -1.0}}, Relation::kLe, 0.0});
    }
    if (!any) {
      // No candidate covers this template: force y_i = 0.
      milp.lp.AddConstraint({{{y_vars[i], 1.0}}, Relation::kLe, 0.0});
      continue;
    }
    y_le_sum.relation = Relation::kLe;
    y_le_sum.rhs = 0.0;
    milp.lp.AddConstraint(std::move(y_le_sum));
    t_sum.relation = Relation::kLe;
    t_sum.rhs = 1.0;
    milp.lp.AddConstraint(std::move(t_sum));
  }

  // (5) churn on re-solve: sum_j (delta_j + z_j - 2 delta_j z_j) Store_j
  //                          <= r * sum_j delta_j Store_j.
  if (existing != nullptr && config.churn_r < 1.0) {
    // sum_exist (1 - z_j) Store_j + sum_new z_j Store_j <= r * sum_exist Store_j
    //   ==>  -sum_exist z_j Store_j + sum_new z_j Store_j
    //          <= (r - 1) * sum_exist Store_j.
    LinearConstraint churn;
    double existing_storage = 0.0;
    for (size_t j = 0; j < a; ++j) {
      const double store = candidates[j].sample_bytes;
      if ((*existing)[j]) {
        existing_storage += store;
        churn.terms.emplace_back(z_vars[j], -store);
      } else {
        churn.terms.emplace_back(z_vars[j], store);
      }
    }
    churn.relation = Relation::kLe;
    churn.rhs = (config.churn_r - 1.0) * existing_storage;
    milp.lp.AddConstraint(std::move(churn));
  }

  const MilpSolution solution = SolveMilp(milp);
  if (solution.status != MilpStatus::kOptimal) {
    // Infeasible churn constraints or node-limit: fall back to greedy.
    return SolveGreedy(templates, candidates, config, existing);
  }

  SelectionResult result;
  result.used_milp = true;
  result.milp_nodes = solution.nodes_explored;
  for (size_t j = 0; j < a; ++j) {
    if (solution.values[z_vars[j]] > 0.5) {
      result.chosen.push_back(j);
      result.storage_bytes += candidates[j].sample_bytes;
    }
  }
  // Recompute the paper's objective G from the chosen sets (the solver's
  // value includes the vanishing tie-break penalty).
  for (const auto& tmpl : templates) {
    double coverage = 0.0;
    for (size_t j : result.chosen) {
      coverage = std::max(coverage, CoverageCoefficient(tmpl, candidates[j]));
    }
    result.objective += tmpl.weight * static_cast<double>(tmpl.tail_count) * coverage;
  }
  return result;
}

}  // namespace blink
