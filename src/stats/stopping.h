// Error-driven early stopping for online incremental execution.
//
// BlinkDB's planner picks a sample resolution up front by projecting the
// Error-Latency Profile (§4.2), but the projection can over- or under-shoot.
// The incremental executor instead folds per-block partials into running
// closed-form estimates (sufficient statistics add over any partition of the
// scan, so the §4.3 estimators stay exact on every prefix) and consults a
// StopPolicy after each batch: stop the moment every group's error at the
// query's confidence is inside the bound, or when a block budget runs out.
//
// Guards keep the rule honest: tiny prefixes produce noisy variance
// estimates whose intervals under-cover, so no error stop may fire before
// `min_blocks` blocks and `min_matched` matched rows are in hand (the
// Monte-Carlo calibration suite in tests/calibration_test.cc verifies that
// stopped answers still cover at the nominal confidence).
#ifndef BLINKDB_STATS_STOPPING_H_
#define BLINKDB_STATS_STOPPING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/stats/estimators.h"

namespace blink {

// Worst error over a set of finished estimates at `confidence`: relative
// (ignoring zero-valued estimates, whose relative error is undefined) or
// absolute (confidence-interval half-width). This is the "max over
// groups/aggregates" metric ExecutionReport::achieved_error reports.
double MaxEstimateError(const std::vector<Estimate>& estimates, bool relative,
                        double confidence);

// Per-estimate decomposition of the same metric: element i is estimate i's
// error at `confidence` under MaxEstimateError's conventions (0 for exact
// estimates and for zero-valued estimates in relative mode), so the maximum
// of the returned vector equals MaxEstimateError. This is what the adaptive
// pipeline scheduler attributes across a union plan's pipelines.
std::vector<double> PerEstimateErrors(const std::vector<Estimate>& estimates,
                                      bool relative, double confidence);

// Index of the estimate that dominates MaxEstimateError (the argmax of
// PerEstimateErrors, first occurrence on ties). Returns estimates.size()
// when every estimate's error is zero — nothing dominates.
size_t DominatingEstimate(const std::vector<Estimate>& estimates, bool relative,
                          double confidence);

// The stopping rule evaluated on partial answers after every batch of
// blocks. Default-constructed, it never stops (the one-shot executor is
// streaming with this rule). For multi-pipeline union plans the rule is
// JOINT: it is evaluated on the combined §4.1.2 union answer, with
// blocks_consumed / rows_matched totalled across every pipeline, so an
// ERROR WITHIN disjunctive query stops on the union estimate — not when any
// single disjunct happens to look tight.
struct StopPolicy {
  // Target error; <= 0 disables error-driven stopping.
  double target_error = 0.0;
  bool relative = true;        // relative vs absolute target (ERROR WITHIN e%)
  double confidence = 0.95;    // confidence the error is evaluated at
  // Guards against spurious stops on tiny prefixes.
  uint64_t min_blocks = 4;
  double min_matched = 60.0;
  // Hard cap on blocks consumed (a time bound's block budget); 0 = none.
  uint64_t max_blocks = 0;

  struct Decision {
    // Worst error over the partial answer's groups/aggregates at `confidence`.
    double achieved_error = 0.0;
    // The error target is set and the partial answer meets it.
    bool bound_met = false;
    // bound_met AND the min-blocks / min-matched guards pass.
    bool stop = false;
  };

  // Evaluates the rule on the flattened estimates of a partial answer.
  Decision Evaluate(const std::vector<Estimate>& estimates, uint64_t blocks_consumed,
                    double rows_matched) const;
};

}  // namespace blink

#endif  // BLINKDB_STATS_STOPPING_H_
