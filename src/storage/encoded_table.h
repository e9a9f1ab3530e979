// Compressed block storage for one table.
//
// An EncodedTable holds every column of a Table as a sequence of
// independently-decodable compressed blocks whose boundaries coincide with the
// scan's morsel carving (src/exec/morsel.h), including the sample-prefix cut
// points. Blocks therefore remain the universal unit of scheduling,
// accounting, and §4.4 reuse: the scheduler never sees the storage format,
// and a worker decodes exactly the blocks it was going to scan anyway.
//
// Codec choice is per column, made at encode time by trial-encoding a spread
// of blocks with each candidate codec and keeping the smallest; individual
// blocks the winner cannot beat still fall back to raw inside the codec layer
// (src/storage/block_codec.h). After encoding, every block is decoded once and
// verified bit-exact against the raw column — a column that fails (cannot
// happen for in-tree codecs; defensive against future ones) is re-encoded
// raw, so DecodeRange can promise bit-identical data unconditionally.
#ifndef BLINKDB_STORAGE_ENCODED_TABLE_H_
#define BLINKDB_STORAGE_ENCODED_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/storage/block_codec.h"
#include "src/storage/column_span.h"
#include "src/storage/schema.h"
#include "src/util/status.h"

namespace blink {

class Table;

// Encode-time knobs.
struct BlockEncodeOptions {
  // Rows per encoded block. Must match the scan's morsel carving for the
  // zero-copy-per-morsel fast path; other sizes still work (a morsel that
  // straddles blocks decodes the covering block range).
  uint32_t block_rows = 4096;  // == kDefaultMorselRows
};

// What the catalog records about one encoded column.
struct ColumnCodecStats {
  BlockCodec codec = BlockCodec::kRaw;  // the chosen (requested) codec
  uint64_t raw_bytes = 0;               // logical payload size
  uint64_t encoded_bytes = 0;           // stored size incl. per-block headers
  double encode_seconds = 0.0;
  double decode_seconds = 0.0;  // one full-column decode, measured at load

  double ratio() const {
    return encoded_bytes == 0 ? 1.0
                              : static_cast<double>(raw_bytes) /
                                    static_cast<double>(encoded_bytes);
  }
};

// Per-column reusable decode state: the scratch buffer the column's blocks
// decode into, plus which block range currently sits there.
struct ColumnDecodeScratch {
  uint64_t cached_begin = 1;  // cached block range [begin, end); begin > end
  uint64_t cached_end = 0;    // means "nothing cached"
  std::vector<int64_t> i64;
  std::vector<double> f64;
  std::vector<int32_t> codes;
  CodecScratch codec;
  // Encoded-view cache for the filter-only fast path: which block's parsed
  // structure sits in the view buffers, and as what. view_kind holds a
  // SpanEncoding; kDecoded records "this block has no encoded view" so raw/
  // Gorilla/delta blocks are not re-probed every morsel.
  uint64_t view_block = UINT64_MAX;
  uint8_t view_kind = 0;              // SpanEncoding of the cached view
  uint32_t view_width = 0;            // dict: packed bytes per index
  const uint8_t* view_idx = nullptr;  // dict: packed index stream
  std::vector<uint64_t> view_lanes;   // dict lanes, or RLE run value lanes
  std::vector<uint32_t> view_run_ends;  // RLE: exclusive run end offsets
};

// One worker's decode state across all columns. Reused morsel to morsel, so
// steady-state decode performs no allocation.
struct DecodeScratch {
  std::vector<ColumnDecodeScratch> columns;
};

class EncodedTable {
 public:
  // Encodes every column of `table`, carving blocks of at most
  // `options.block_rows` rows and additionally cutting at
  // `prefix_boundaries` (ascending row counts; typically the sample family's
  // resolution sizes), exactly like the scan's CarveMorsels.
  static Result<std::shared_ptr<const EncodedTable>> Encode(
      const Table& table, const BlockEncodeOptions& options,
      const std::vector<uint64_t>* prefix_boundaries = nullptr);

  uint64_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }
  uint64_t num_blocks() const { return starts_.size() - 1; }
  const ColumnCodecStats& stats(size_t col) const { return columns_[col].stats; }

  // Decodes rows [begin, end) of `col` into the column's scratch buffer and
  // returns a base-relative span (element i = row begin + i). The decoded
  // block range is cached in the scratch: re-reading any subrange of the
  // last-decoded blocks is free, so a morsel-per-block layout decodes each
  // block exactly once per scan.
  //
  // `filter_only` marks a column only the predicate reads (never gathered for
  // grouping, aggregation, or the join key). When the range sits inside one
  // dict- or RLE-coded block, such a column is served as an encoded view
  // (SpanEncoding::kDictIndex / kRleRuns) instead of decoded rows — the
  // operate-on-compressed fast path. Ranges that straddle blocks and blocks
  // under any other codec fall back to the decode path, so callers always get
  // a span the predicate kernels accept.
  ColumnSpan DecodeRange(size_t col, uint64_t begin, uint64_t end,
                         DecodeScratch& scratch, bool filter_only = false) const;

  // Stored (encoded) bytes of the blocks covering rows [0, rows) of `col` —
  // the wire-layer bytes_scanned accounting. Blocks are charged whole, like
  // every other per-block cost in the engine.
  uint64_t EncodedBytesInPrefix(size_t col, uint64_t rows) const;

  // Total stored bytes across all columns of the blocks covering [0, rows).
  uint64_t TotalEncodedBytesInPrefix(uint64_t rows) const;

 private:
  struct EncodedColumn {
    DataType type;
    std::string data;                // concatenated [codec byte][payload] blocks
    std::vector<uint64_t> offsets;   // block i is data[offsets[i], offsets[i+1])
    ColumnCodecStats stats;
  };

  EncodedTable() = default;

  // Index of the block containing `row`. Requires row < num_rows_.
  size_t BlockOf(uint64_t row) const;

  uint64_t num_rows_ = 0;
  std::vector<uint64_t> starts_;  // block row starts; starts_.back() == num_rows_
  std::vector<EncodedColumn> columns_;
};

}  // namespace blink

#endif  // BLINKDB_STORAGE_ENCODED_TABLE_H_
