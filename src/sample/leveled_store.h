// Leveled ingest store: the write path's LSM-shaped sample maintenance
// (paper §2.1 / §4.5, "periodically replace samples with new ones in the
// background", grown into a live subsystem).
//
// Appends land as immutable level-0 runs. An L0 run is itself a valid newest
// stratum: it is scanned exactly (weight 1, zero variance), so it is a
// trivially valid sample prefix by construction — block-aligned because each
// run is its own morsel-carved scan range. Merges (MaintenanceTick, driven by
// the owner — the server ticks once after every append, so the writer pays)
// compact the oldest runs of an over-full level into one run at the next
// level and — once a run is large enough to be worth sampling — rebuild
// block-aligned sample families over it that mirror the base table's family
// shapes (reusing the §4.5 RebuildFamily machinery via BuildFamilyLike).
//
// Queries union the levels as extra plan pipelines (QueryRuntime::
// ExecuteLeveled): the base table's sample plus one pipeline per run, all
// combined by the §4.3 estimator merge under the existing joint stopping rule
// and adaptive grant attribution — a query over a live table is just a wider
// physical plan.
//
// Snapshot isolation: the manifest is a vector of shared_ptr<const Run>.
// Pin() copies it under the mutex; published runs are immutable, so a query
// sees exactly the level set it started with, merges and appends publish new
// manifests atomically, and replaced runs stay alive until the last pinned
// query drops them. Every publication calls `on_publish` (while still holding
// the manifest mutex) so the owner can bump its catalog generation — cached
// answers for a stale level set can then never be served.
#ifndef BLINKDB_SAMPLE_LEVELED_STORE_H_
#define BLINKDB_SAMPLE_LEVELED_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/sample/maintenance.h"
#include "src/storage/encoded_table.h"

namespace blink {

// Shape of one sample family a merged run must mirror — captured from the
// base table's families when the store is created.
struct FamilyShape {
  SampleFamily::Kind kind = SampleFamily::Kind::kUniform;
  std::vector<std::string> columns;  // lower-cased + sorted; empty for uniform
};

struct LeveledStoreOptions {
  // Merge trigger: a level holding this many runs compacts its oldest
  // `level_fanout` runs into one run at the next level.
  size_t level_fanout = 4;
  // Runs at or above this row count get sample families mirroring the base
  // table's shapes; smaller runs are scanned exactly.
  uint64_t sample_min_rows = 4096;
  // Family build options for run samples.
  SampleFamilyOptions sample;
  // Family build seeds derive deterministically from this and the merged
  // run's id, so replaying the same append/merge sequence rebuilds
  // bit-identical runs (the differential tests' quiescent reference).
  uint64_t seed = 0xb11dbULL;
  // When set, run row stores (and their families) get compressed block
  // storage before publication — the sticky-compression contract of
  // BlinkDB::CompressStorage extended to the write path.
  std::optional<BlockEncodeOptions> encode;
};

class LeveledStore {
 public:
  // One immutable run. Never mutated after publication; queries keep it
  // alive via shared_ptr while they scan.
  struct Run {
    uint64_t id = 0;
    int level = 0;  // 0 = freshest (sealed write buffer)
    std::shared_ptr<const Table> rows;
    // Sample families over `rows`, one per mirrored shape; empty = the run
    // is scanned exactly.
    std::vector<std::unique_ptr<const SampleFamily>> families;
  };

  // A pinned manifest: the exact level set a query executes against.
  struct Snapshot {
    uint64_t version = 0;
    std::vector<std::shared_ptr<const Run>> runs;  // arrival order, oldest first

    // Stable identity of the pinned run set, for cache keys: version plus the
    // run ids. Two different level sets can never share a fingerprint.
    std::string Fingerprint() const;
  };

  LeveledStore(Schema schema, std::vector<FamilyShape> shapes,
               LeveledStoreOptions options,
               std::function<void()> on_publish = {});

  LeveledStore(const LeveledStore&) = delete;
  LeveledStore& operator=(const LeveledStore&) = delete;

  // Seals `rows` as an immutable level-0 run and publishes it. Thread-safe
  // against concurrent Pin/Append/MaintenanceTick. Returns the manifest
  // version after publication; an empty batch publishes nothing and returns
  // the current version.
  Result<uint64_t> Append(Table rows);

  // Copies the current manifest. The returned runs are immutable and stay
  // alive as long as the snapshot does.
  Snapshot Pin() const;

  // One merge step: compacts the oldest `level_fanout` runs of the
  // shallowest over-full level into a single next-level run (building sample
  // families over it when it crosses sample_min_rows), publishes the new
  // manifest, and returns true. Returns false when no level is due. Merge
  // work runs outside the manifest mutex; concurrent appends and queries
  // proceed throughout.
  Result<bool> MaintenanceTick();

  const Schema& schema() const { return schema_; }
  const std::vector<FamilyShape>& shapes() const { return shapes_; }
  const LeveledStoreOptions& options() const { return options_; }
  uint64_t version() const;
  size_t run_count() const;

  // Appends every row of `src` to `dst` (schemas must match). Shared by the
  // merge path and the exact flatten path (BlinkDB::QueryExact).
  static Status AppendRows(Table& dst, const Table& src);

 private:
  Result<std::shared_ptr<const Run>> BuildMergedRun(
      const std::vector<std::shared_ptr<const Run>>& inputs, uint64_t out_id,
      int out_level) const;

  const Schema schema_;
  const std::vector<FamilyShape> shapes_;
  const LeveledStoreOptions options_;
  const std::function<void()> on_publish_;

  mutable std::mutex mu_;               // manifest + counters
  std::vector<std::shared_ptr<const Run>> runs_;
  uint64_t next_id_ = 1;
  uint64_t version_ = 0;

  std::mutex merge_mu_;                 // serializes mergers (ticks)
};

}  // namespace blink

#endif  // BLINKDB_SAMPLE_LEVELED_STORE_H_
