#include "perfbench/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>

namespace perfbench {

std::string GroupKey(const std::vector<blink::Value>& values, size_t n) {
  std::string key;
  for (size_t i = 0; i < n; ++i) {
    key += values[i].ToString();
    key += '\x1f';
  }
  return key;
}

Percentile PercentileOf(std::vector<double> values, double q) {
  Percentile p;
  p.n = values.size();
  if (values.empty()) {
    return p;
  }
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(values.size()))));
  p.value = values[rank - 1];
  p.beyond = values.size() - rank;
  return p;
}

void Accuracy::Add(const CellScore& score) {
  cells += score.cells;
  if (score.cells > 0) {
    answer_cover.push_back(static_cast<double>(score.covered) /
                           static_cast<double>(score.cells));
  }
  if (!score.rel_errors.empty()) {
    answer_rel_errors.push_back(PercentileOf(score.rel_errors, 0.5).value);
  }
}

double Accuracy::CoverShare() const {
  double sum = 0;
  for (double share : answer_cover) {
    sum += share;
  }
  return answer_cover.empty() ? 0.0 : sum / static_cast<double>(answer_cover.size());
}

double Accuracy::WithinShare(double limit) const {
  const auto within = std::count_if(answer_rel_errors.begin(), answer_rel_errors.end(),
                                    [limit](double e) { return e <= limit; });
  return answer_rel_errors.empty() ? 0.0
                                   : static_cast<double>(within) /
                                         static_cast<double>(answer_rel_errors.size());
}

std::optional<std::string> ScoreAnswer(const blink::QueryResult& answer,
                                       const blink::ExecutionReport& report,
                                       const blink::QueryResult& exact,
                                       double confidence, CellScore* score) {
  if (answer.aggregate_names.size() != exact.aggregate_names.size()) {
    return "answer has " + std::to_string(answer.aggregate_names.size()) +
           " aggregates, exact has " + std::to_string(exact.aggregate_names.size());
  }
  if (report.stopped_early && report.effective_error_bound > 0 &&
      report.achieved_error > report.effective_error_bound * (1 + 1e-9)) {
    return "stopped early at error " + std::to_string(report.achieved_error) +
           " above its bound " + std::to_string(report.effective_error_bound);
  }
  std::map<std::string, const blink::ResultRow*> got;
  for (const auto& row : answer.rows) {
    got[GroupKey(row.group_values, row.group_values.size())] = &row;
  }
  std::map<std::string, const blink::ResultRow*> want;
  for (const auto& row : exact.rows) {
    want[GroupKey(row.group_values, row.group_values.size())] = &row;
  }
  for (const auto& [key, row] : got) {
    if (want.count(key) == 0) {
      std::string shown;
      for (const auto& v : row->group_values) {
        shown += v.ToString() + " ";
      }
      return "answer has group " + shown + "that the exact answer lacks";
    }
  }
  for (const auto& [key, row] : want) {
    const auto it = got.find(key);
    for (size_t a = 0; a < row->aggregates.size(); ++a) {
      const double truth = row->aggregates[a].value;
      ++score->cells;
      if (it == got.end()) {
        if (truth != 0) {
          score->rel_errors.push_back(1.0);
        }
        continue;
      }
      const blink::Estimate& est = it->second->aggregates[a];
      const double miss = std::fabs(est.value - truth);
      // Exact strata can sum in another order than the full scan: allow
      // rounding noise on top of the interval.
      if (miss <= est.ErrorAt(confidence) + 1e-9 * std::max(1.0, std::fabs(truth))) {
        ++score->covered;
      }
      if (truth != 0) {
        score->rel_errors.push_back(miss / std::fabs(truth));
      }
    }
  }
  return std::nullopt;
}

std::optional<double> ParseStatCpuSeconds(std::string_view stat, long ticks_per_second) {
  // The command name (field 2) may hold spaces and parentheses; the fields
  // after its closing ')' start at field 3 (state). utime and stime are
  // fields 14 and 15.
  const size_t close = stat.rfind(')');
  if (close == std::string_view::npos || ticks_per_second <= 0) {
    return std::nullopt;
  }
  std::istringstream in{std::string(stat.substr(close + 1))};
  std::vector<std::string> fields{std::istream_iterator<std::string>(in),
                                  std::istream_iterator<std::string>()};
  if (fields.size() < 13) {
    return std::nullopt;
  }
  char* end = nullptr;
  const double utime = std::strtod(fields[11].c_str(), &end);
  const double stime = std::strtod(fields[12].c_str(), &end);
  return (utime + stime) / static_cast<double>(ticks_per_second);
}

std::optional<double> ParseStatusPeakMb(std::string_view status) {
  const size_t at = status.find("VmHWM:");
  if (at == std::string_view::npos) {
    return std::nullopt;
  }
  std::istringstream in{std::string(status.substr(at + 6))};
  double kb = 0;
  std::string unit;
  if (!(in >> kb >> unit) || unit != "kB") {
    return std::nullopt;
  }
  return kb / 1024.0;
}

std::string ReadProcFile(int pid, const char* name) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/" + name);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace perfbench
