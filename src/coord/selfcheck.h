// In-process reference for the distributed scatter/gather path.
//
// Bit-identity is the repo's distributed acceptance bar: a coordinator run
// over N workers must produce EXACTLY (every %.17g digit) the answer an
// in-process execution produces from the same per-shard serving state and the
// same per-shard consumed block prefixes. This module rebuilds that
// reference: for each shard it re-parses the very SQL text the coordinator
// scattered, applies the worker session's paced-bounds override, executes on
// a runtime configured identically to the worker's, cancels at the recorded
// consumed prefix (round cadences match, so the cancel lands exactly on it),
// and folds the per-shard snapshots through the same UnionCombiner. Used by
// tests/coord_test.cc and `blinkdb_coord --selfcheck`.
#ifndef BLINKDB_COORD_SELFCHECK_H_
#define BLINKDB_COORD_SELFCHECK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/api/blinkdb.h"

namespace blink {

// One shard of the reference: the shard's serving state plus the consumed
// block prefix the distributed run recorded for it
// (ExecutionReport::pipeline_outcomes[i].blocks_consumed).
struct ShardReference {
  const BlinkDB* db = nullptr;
  uint64_t consumed_blocks = 0;
};

// Re-executes `sql` (the ORIGINAL bounded query, as given to the
// coordinator) against the shard states, freezing each shard at its recorded
// prefix, and returns the combined answer. `runtime_config` must equal the
// workers' ServerOptions::runtime and `round_blocks` the coordinator's round
// quantum — both shape the block-consumption trace the prefixes came from.
Result<QueryResult> RunShardedReference(const std::string& sql,
                                        const std::vector<ShardReference>& shards,
                                        const RuntimeConfig& runtime_config,
                                        uint64_t round_blocks);

// Full-precision rendering of an answer — group values (RenderSqlValue),
// estimate values and variances (%.17g) — for exact cross-run comparison.
// Two results compare equal iff they are bit-identical in every estimate.
std::string ResultFingerprint(const QueryResult& result);

}  // namespace blink

#endif  // BLINKDB_COORD_SELFCHECK_H_
