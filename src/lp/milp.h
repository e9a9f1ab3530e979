// Mixed-integer linear programming via LP-relaxation branch-and-bound.
//
// BlinkDB's sample-selection problem (§3.2.1, equations (2)-(5)) is a MILP
// with binary z_j variables; the paper solves it with GLPK. This solver
// handles that instance class exactly: maximize over continuous y / t
// variables and binary z variables.
#ifndef BLINKDB_LP_MILP_H_
#define BLINKDB_LP_MILP_H_

#include <cstdint>
#include <vector>

#include "src/lp/simplex.h"

namespace blink {

// A MILP: the LP plus integrality flags (only binary {0,1} integrality is
// supported, which is all the BlinkDB formulation needs).
struct MilpProblem {
  LpProblem lp;
  std::vector<size_t> binary_vars;  // indices into lp variables
};

enum class MilpStatus { kOptimal, kInfeasible, kNodeLimit };

struct MilpSolution {
  MilpStatus status = MilpStatus::kInfeasible;
  double objective = 0.0;
  std::vector<double> values;
  // Number of branch-and-bound nodes explored (for diagnostics/benchmarks).
  uint64_t nodes_explored = 0;
};

// Branch-and-bound nodes SolveMilp explores before it gives up with
// kNodeLimit (the sample selector then falls back to greedy).
constexpr uint64_t kMilpMaxNodes = 100'000;

// Depth-first best-incumbent branch-and-bound. Deterministic.
MilpSolution SolveMilp(const MilpProblem& problem);

}  // namespace blink

#endif  // BLINKDB_LP_MILP_H_
