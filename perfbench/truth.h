// Exact ground truth for the op streams, computed with BlinkDB::QueryExact on
// an in-process copy of the demo database outside the timed phase, once per
// predicate and shape (the bound never changes the truth).
#ifndef PERFBENCH_TRUTH_H_
#define PERFBENCH_TRUTH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/ops.h"
#include "src/api/blinkdb.h"

namespace perfbench {

class Truth {
 public:
  // `db` holds the demo sessions table. With `batches` > 0 the ingest
  // batches of `seed` are registered beside it as table "arrivals", with a
  // `batch` column, so any prefix of the appends can be added exactly.
  Truth(blink::BlinkDB& db, uint64_t seed, uint64_t batches);

  // Computes every answer `specs` will ask for, on `threads` threads.
  blink::Status Prepare(const std::vector<const QuerySpec*>& specs, size_t threads);

  // The exact answer over the base table (Prepare must have covered `spec`).
  const blink::QueryResult& Exact(const QuerySpec& spec) const;

  // The exact answer over the base table plus the first `batches` appends.
  // COUNT, SUM and AVG only.
  blink::QueryResult AfterAppends(const QuerySpec& spec, uint64_t batches) const;

 private:
  struct Parts {
    blink::QueryResult base;      // COUNT(*)[, SUM(col)] GROUP BY g
    blink::QueryResult arrivals;  // the same, GROUP BY g, batch
  };

  blink::BlinkDB& db_;
  bool with_appends_ = false;
  std::map<std::string, blink::QueryResult> exact_;  // by Select()
  std::map<std::string, Parts> parts_;                // by Select()
};

}  // namespace perfbench

#endif  // PERFBENCH_TRUTH_H_
