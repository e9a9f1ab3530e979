// Metric math of the benchmark: percentiles that carry their sample count,
// answer scoring against exact ground truth, and /proc CPU and RSS parsing.
// Pure functions, pinned by selftest.cc.
#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/exec/executor.h"
#include "src/runtime/query_runtime.h"

namespace perfbench {

// A nearest-rank percentile with its sample count. `beyond` is how many
// samples lie strictly above the rank, so a p99 is only worth reporting when
// at least 10 samples sit beyond it (Reportable).
struct Percentile {
  double value = 0.0;
  size_t n = 0;
  size_t beyond = 0;

  bool Reportable() const { return n > 0 && beyond >= 10; }
};

// `q` in (0, 1]; an empty sample gives n == 0.
Percentile PercentileOf(std::vector<double> values, double q);

// A map key for the first `n` group values of a result row.
std::string GroupKey(const std::vector<blink::Value>& values, size_t n);

// Accuracy tallies over the (group, aggregate) cells of one exact answer.
struct CellScore {
  size_t cells = 0;
  size_t covered = 0;
  std::vector<double> rel_errors;  // cells with a nonzero exact value
};

// Accuracy over many answers, each answer weighing as much as any other (a
// 500-group answer's cells move together, so weighing cells let a few wide
// answers swing the totals from one seed to the next).
struct Accuracy {
  size_t cells = 0;
  std::vector<double> answer_cover;       // covered share of each answer's cells
  std::vector<double> answer_rel_errors;  // each answer's median cell error

  void Add(const CellScore& score);
  // The mean over answers of their covered share of cells.
  double CoverShare() const;
  // The share of answers whose median cell error is at most `limit`. A
  // share of a bulk of answers moves less between seeds than the median
  // error, which jumped between clusters of answers (same predicate, same
  // bound).
  double WithinShare(double limit) const;
};

// Scores one answer against its exact counterpart.
//  - A cell is covered when the answer has the group and its estimate's CI at
//    `confidence` (Estimate::ErrorAt) contains the exact value. A missing
//    group is uncovered, with relative error 1.
//  - The relative error |estimate - exact| / |exact| is recorded for cells
//    whose exact value is nonzero.
// Returns the reason the answer fails its check, or nullopt when it passes:
// a group the exact answer does not have, a different aggregate list, or an
// error-bounded answer that stopped early above its effective bound.
std::optional<std::string> ScoreAnswer(const blink::QueryResult& answer,
                                       const blink::ExecutionReport& report,
                                       const blink::QueryResult& exact,
                                       double confidence, CellScore* score);

// utime + stime, in seconds, from the text of /proc/<pid>/stat.
std::optional<double> ParseStatCpuSeconds(std::string_view stat, long ticks_per_second);
// Peak resident set (VmHWM), in MB, from the text of /proc/<pid>/status.
std::optional<double> ParseStatusPeakMb(std::string_view status);

// Reads a whole /proc file of a live process ("" when it is gone).
std::string ReadProcFile(int pid, const char* name);

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
