// Table catalog: named tables plus their logical-scale descriptors.
//
// The paper's datasets are 1-17 TB; this reproduction keeps row-scaled
// stand-ins in memory and records a `scale_factor` so the cluster latency
// model and storage accounting operate at paper scale (DESIGN.md §3).
#ifndef BLINKDB_CATALOG_CATALOG_H_
#define BLINKDB_CATALOG_CATALOG_H_

#include <atomic>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/storage/encoded_table.h"
#include "src/storage/table.h"
#include "src/util/status.h"

namespace blink {

struct TableEntry {
  std::string name;
  Table table;
  // Multiplier mapping in-memory bytes to simulated (paper-scale) bytes.
  double scale_factor = 1.0;
  // Dimension tables are exact and never sampled (§2.1: they fit in memory).
  bool is_dimension = false;
  // Compressed block storage is enabled for this table (CompressTable was
  // called); replacements re-encode with the recorded options, so the choice
  // is sticky across §4.5 maintenance flows. Per-column codec choices and
  // ratio/decode-cost stats live on table.encoded_blocks()->stats(col).
  bool compressed = false;
  BlockEncodeOptions encode_options;
  // Monotonic mutation counter: bumped on every change to what a query over
  // this table could observe — the table contents (ReplaceTable), its block
  // encoding (CompressTable), its sample families (BumpGeneration from
  // BuildSamples / AppendAndMaintain), and every leveled-store publication
  // (append or merge, via LeveledStore's on_publish hook). The answer cache
  // keys on it, so a snapshot taken before any mutation can never be served
  // after one. Atomic because ingest bumps it from append/merge threads while
  // concurrent queries read it when forming cache keys.
  std::atomic<uint64_t> generation{0};

  double logical_bytes() const {
    return static_cast<double>(table.num_rows()) * table.EstimatedBytesPerRow() *
           scale_factor;
  }
  double logical_rows() const {
    return static_cast<double>(table.num_rows()) * scale_factor;
  }
};

class Catalog {
 public:
  // Registers a table. Fails if the name is taken.
  Status AddTable(std::string name, Table table, double scale_factor = 1.0,
                  bool is_dimension = false);

  // Looks a table up by (case-insensitive) name; nullptr if absent.
  const TableEntry* Find(const std::string& name) const;

  // Replaces the contents of an existing table (data arrival / §4.5
  // maintenance flows); keeps scale factor and flags. A compressed table is
  // re-encoded with its recorded options.
  Status ReplaceTable(const std::string& name, Table table);

  // Builds compressed block storage for the table (per-column codec choice at
  // load time; see src/storage/encoded_table.h) and marks the entry so future
  // replacements stay compressed.
  Status CompressTable(const std::string& name, const BlockEncodeOptions& options = {});

  // Advances the table's generation without touching its contents — for
  // mutations that live outside the catalog but change query answers (sample
  // family builds/rebuilds). Returns the new generation, 0 if absent.
  uint64_t BumpGeneration(const std::string& name);

  std::vector<std::string> TableNames() const;

 private:
  // Keyed by lower-cased name; entries keep original casing.
  std::unordered_map<std::string, std::unique_ptr<TableEntry>> tables_;
};

}  // namespace blink

#endif  // BLINKDB_CATALOG_CATALOG_H_
