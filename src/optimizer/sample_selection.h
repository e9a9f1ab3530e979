// Sample-selection optimization (paper §3.2.1-§3.2.3).
//
// Given query templates with weights and skew metrics, candidate column sets
// with storage costs, and a storage budget S, choose which stratified sample
// families to build by maximizing
//     G = sum_i w_i * y_i * Delta(phiT_i)                       (2)
// subject to
//     sum_j Store(phi_j) * z_j <= S                             (3)
//     y_i <= max_{phi_j subset of phiT_i} |D(phi_j)|/|D(phiT_i)| * z_j   (4)
// and, when re-solving with existing families and churn limit r:
//     sum_j (delta_j - z_j)^2 Store_j <= r * sum_j delta_j Store_j      (5)
//
// The max in (4) is linearized with continuous assignment variables t_ij
// (t_ij <= z_j, sum_j t_ij <= 1, y_i <= sum_j cov_ij t_ij); since z is binary
// and y is maximized, the LP optimum of t concentrates on the best built
// subset, recovering the max exactly. (delta - z)^2 in (5) is linear for
// binary z: delta + z - 2*delta*z.
#ifndef BLINKDB_OPTIMIZER_SAMPLE_SELECTION_H_
#define BLINKDB_OPTIMIZER_SAMPLE_SELECTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/optimizer/column_stats.h"

namespace blink {

// One query template: its column set phiT_i (sorted, lower-cased), its
// normalized weight w_i, and the stats of its full column set.
struct TemplateInfo {
  std::vector<std::string> columns;
  double weight = 0.0;
  uint64_t distinct_values = 0;  // |D(phiT_i)|
  uint64_t tail_count = 0;       // Delta(phiT_i)
};

struct SelectionConfig {
  double storage_budget_bytes = 0.0;
  // Churn limit r in [0,1] for re-solves (constraint (5)); 1 = unrestricted.
  double churn_r = 1.0;
  // Solve exactly with branch-and-bound MILP; fall back to greedy when false
  // or when the instance exceeds kMilpMaxNodes (src/lp/milp.h).
  bool use_milp = true;
};

struct SelectionResult {
  std::vector<size_t> chosen;  // indices into the candidate vector
  double objective = 0.0;      // achieved G
  double storage_bytes = 0.0;  // cumulative Store of chosen sets
  bool used_milp = false;
  uint64_t milp_nodes = 0;
};

// Selects candidate column sets. `existing`, when provided, marks candidates
// already built (delta_j = 1) for the churn constraint.
SelectionResult SelectSampleColumnSets(const std::vector<TemplateInfo>& templates,
                                       const std::vector<ColumnSetStats>& candidates,
                                       const SelectionConfig& config,
                                       const std::vector<bool>* existing = nullptr);

// The coverage coefficient cov_ij = |D(phi_j)| / |D(phiT_i)| when phi_j is a
// subset of phiT_i, else 0. Exposed for tests.
double CoverageCoefficient(const TemplateInfo& tmpl, const ColumnSetStats& candidate);

}  // namespace blink

#endif  // BLINKDB_OPTIMIZER_SAMPLE_SELECTION_H_
