#include "src/lp/milp.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace blink {
namespace {

// A binary whose relaxed value lies within this of 0 or 1 counts as decided.
constexpr double kIntegralityTol = 1e-6;
// Prune nodes whose LP bound is within this absolute gap of the incumbent.
constexpr double kAbsoluteGap = 1e-9;

// A node fixes a subset of the binary variables to 0 or 1.
struct Node {
  std::vector<std::pair<size_t, int>> fixings;  // (var, value)
};

// Applies fixings by pinning bounds: x = v  <=>  ub = lo = v. Our LpProblem
// has implicit lower bound 0, so fixing to 1 adds constraint x >= 1 and
// ub = 1; fixing to 0 sets ub = 0.
LpProblem ApplyFixings(const LpProblem& base, const std::vector<std::pair<size_t, int>>& fixings) {
  LpProblem p = base;
  for (const auto& [var, value] : fixings) {
    if (value == 0) {
      p.upper_bounds[var] = 0.0;
    } else {
      p.upper_bounds[var] = 1.0;
      LinearConstraint c;
      c.terms = {{var, 1.0}};
      c.relation = Relation::kGe;
      c.rhs = 1.0;
      p.AddConstraint(std::move(c));
    }
  }
  return p;
}

}  // namespace

MilpSolution SolveMilp(const MilpProblem& problem) {
  MilpSolution best;
  best.status = MilpStatus::kInfeasible;
  best.objective = -std::numeric_limits<double>::infinity();

  std::vector<Node> stack;
  stack.push_back(Node{});
  uint64_t nodes = 0;
  bool hit_node_limit = false;

  while (!stack.empty()) {
    if (nodes >= kMilpMaxNodes) {
      hit_node_limit = true;
      break;
    }
    Node node = std::move(stack.back());
    stack.pop_back();
    ++nodes;

    const LpProblem sub = ApplyFixings(problem.lp, node.fixings);
    const LpSolution relax = SolveLp(sub);
    if (relax.status == LpStatus::kInfeasible) {
      continue;
    }
    if (relax.status == LpStatus::kUnbounded) {
      // An unbounded relaxation of a bounded-binary problem means the
      // continuous part is unbounded; surface as infeasible-for-B&B.
      continue;
    }
    if (relax.status == LpStatus::kIterationLimit) {
      continue;
    }
    if (relax.objective <= best.objective + kAbsoluteGap) {
      continue;  // bound prune
    }
    // Branch on the most undecided binary (fraction closest to 0.5).
    size_t branch_var = problem.lp.num_vars;
    double most_undecided = kIntegralityTol;
    for (size_t v : problem.binary_vars) {
      const double x = relax.values[v];
      const double frac = x - std::floor(x);
      const double undecided = std::min(frac, 1.0 - frac);
      if (undecided > most_undecided) {
        most_undecided = undecided;
        branch_var = v;
      }
    }
    if (branch_var == problem.lp.num_vars) {
      // Integral: candidate incumbent.
      if (relax.objective > best.objective) {
        best.status = MilpStatus::kOptimal;
        best.objective = relax.objective;
        best.values = relax.values;
        // Snap binaries exactly.
        for (size_t v : problem.binary_vars) {
          best.values[v] = std::round(best.values[v]);
        }
      }
      continue;
    }
    // Branch: explore the rounded-to-1 child first (greedy depth-first).
    Node zero = node;
    zero.fixings.emplace_back(branch_var, 0);
    Node one = std::move(node);
    one.fixings.emplace_back(branch_var, 1);
    const bool prefer_one = relax.values[branch_var] >= 0.5;
    if (prefer_one) {
      stack.push_back(std::move(zero));
      stack.push_back(std::move(one));
    } else {
      stack.push_back(std::move(one));
      stack.push_back(std::move(zero));
    }
  }

  best.nodes_explored = nodes;
  if (hit_node_limit && best.status != MilpStatus::kOptimal) {
    best.status = MilpStatus::kNodeLimit;
  }
  return best;
}

}  // namespace blink
