// A Dataset is what the executor scans: either an exact table or a sample
// of one. Samples carry per-row stratum ids plus per-stratum counts, whose
// ratio is each row's effective sampling rate (§4.3; weight = N_h / n_h =
// 1 / rate), so the executor can compute unbiased answers and closed-form
// error bounds.
#ifndef BLINKDB_EXEC_DATASET_H_
#define BLINKDB_EXEC_DATASET_H_

#include <cstdint>
#include <vector>

#include "src/exec/morsel.h"
#include "src/storage/table.h"

namespace blink {

// Population/sample row counts for one stratum.
struct StratumCounts {
  double total_rows = 0.0;    // N_h in the original table
  double sampled_rows = 0.0;  // n_h rows present in this dataset
};

// Non-owning view over a table (exact) or a sample of it.
//
// Multi-resolution samples (§3.1 / Fig 4) store their physical rows
// smallest-resolution-first, so a logical sample is a *prefix* of the row
// store; `scan_rows` restricts the scan to that prefix. This is also what
// makes intermediate-data reuse (§4.4) work: a larger resolution's scan is a
// superset of a smaller one's.
struct Dataset {
  const Table* table = nullptr;

  // Null for exact tables / uniform samples (stratum 0 everywhere).
  const std::vector<uint32_t>* strata = nullptr;
  // Per-stratum counts: null for exact tables (implied {n, n}); for samples
  // it must cover every stratum id used.
  const std::vector<StratumCounts>* stratum_counts = nullptr;
  // 0 = scan the whole table; otherwise scan rows [0, scan_rows).
  uint64_t scan_rows = 0;
  // Ascending logical-prefix row counts of the family this dataset views
  // (one per resolution). Morsel carving cuts at these, so every resolution
  // is a whole number of blocks and §4.4 reuse is exact block arithmetic.
  // Null for standalone tables.
  const std::vector<uint64_t>* prefix_boundaries = nullptr;

  bool is_exact() const { return stratum_counts == nullptr; }

  uint64_t NumRows() const {
    if (table == nullptr) {
      return 0;
    }
    return scan_rows == 0 ? table->num_rows() : scan_rows;
  }

  double RowWeight(uint64_t row) const {
    if (stratum_counts != nullptr) {
      const StratumCounts& c = (*stratum_counts)[RowStratum(row)];
      return c.sampled_rows > 0.0 ? c.total_rows / c.sampled_rows : 1.0;
    }
    return 1.0;
  }
  uint32_t RowStratum(uint64_t row) const {
    return strata == nullptr ? 0 : (*strata)[row];
  }

  // Counts for stratum `id`, defaulting to the exact-table convention.
  StratumCounts CountsFor(uint32_t id) const {
    if (stratum_counts != nullptr && id < stratum_counts->size()) {
      return (*stratum_counts)[id];
    }
    const double n = table == nullptr ? 0.0 : static_cast<double>(table->num_rows());
    return {n, n};
  }

  // Block decomposition of this dataset's scan range, prefix-aligned.
  MorselPlan PlanMorsels(uint32_t target_rows = kDefaultMorselRows) const {
    return CarveMorsels(NumRows(), target_rows, prefix_boundaries);
  }

  // Convenience: exact view of a table.
  static Dataset Exact(const Table& t) {
    Dataset d;
    d.table = &t;
    return d;
  }
};

}  // namespace blink

#endif  // BLINKDB_EXEC_DATASET_H_
