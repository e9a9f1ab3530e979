#include "src/storage/encoded_table.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>

#include "src/exec/morsel.h"
#include "src/storage/table.h"

namespace blink {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Candidate codecs per column type, tried in order at load time.
std::vector<BlockCodec> CandidatesFor(DataType type) {
  switch (type) {
    case DataType::kInt64:
      return {BlockCodec::kDeltaDelta, BlockCodec::kDict, BlockCodec::kRle};
    case DataType::kDouble:
      return {BlockCodec::kGorilla, BlockCodec::kRle};
    case DataType::kString:
      return {BlockCodec::kDict, BlockCodec::kRle};
  }
  return {};
}

// How many evenly-spaced blocks each candidate codec trial-encodes when
// picking a column's codec.
constexpr size_t kTrialBlocks = 16;

// Minimum fraction of raw size a codec must shave off in trials to win the
// column; below it the column stays raw. Decode is never free, and a raw
// column serves single-block morsels zero-copy, so a 1.05× "win" is a loss.
constexpr double kMinSaving = 0.10;

// Evenly-spread sample of block indices for codec trials.
std::vector<size_t> TrialBlocks(size_t num_blocks) {
  std::vector<size_t> picks;
  if (num_blocks <= kTrialBlocks) {
    for (size_t i = 0; i < num_blocks; ++i) {
      picks.push_back(i);
    }
    return picks;
  }
  for (size_t i = 0; i < kTrialBlocks; ++i) {
    picks.push_back(i * num_blocks / kTrialBlocks);
  }
  return picks;
}

}  // namespace

// Encodes one typed column: codec trial, full encode, then a decode-and-verify
// pass that times the decoder and downgrades the column to raw on any
// mismatch. `encode`/`decode` adapt the type-specific codec entry points.
template <typename T, typename EncodeFn, typename DecodeFn>
static void EncodeColumnBlocks(const T* raw, const std::vector<Morsel>& blocks,
                               const std::vector<BlockCodec>& candidates,
                               EncodeFn encode, DecodeFn decode, uint64_t total_rows,
                               std::string& data, std::vector<uint64_t>& offsets,
                               ColumnCodecStats& stats) {
  stats.raw_bytes = total_rows * sizeof(T);

  // Blocks are laid out [codec byte][payload][pad]: every offset is kept at
  // 7 (mod 8) so each payload starts 8-byte aligned — raw blocks then serve
  // scan spans zero-copy, reinterpreted in place.
  const auto encode_all = [&](BlockCodec codec) {
    data.assign(7, '\0');
    offsets.assign(1, 7);
    for (const Morsel& b : blocks) {
      encode(codec, raw + b.begin, static_cast<size_t>(b.rows()), data);
      data.append((7 - data.size() % 8 + 8) % 8, '\0');
      offsets.push_back(data.size());
    }
  };

  // Trial: encode a spread of blocks with each candidate; the smallest wins
  // the column, but only if it shaves at least kMinSaving off raw storage —
  // decode cost makes a marginal ratio a net loss.
  BlockCodec best = BlockCodec::kRaw;
  size_t best_size = SIZE_MAX;
  const std::vector<size_t> picks = TrialBlocks(blocks.size());
  uint64_t trial_rows = 0;
  for (size_t b : picks) {
    trial_rows += blocks[b].rows();
  }
  for (BlockCodec codec : candidates) {
    std::string tmp;
    for (size_t b : picks) {
      encode(codec, raw + blocks[b].begin, static_cast<size_t>(blocks[b].rows()),
             tmp);
    }
    if (tmp.size() < best_size) {
      best_size = tmp.size();
      best = codec;
    }
  }
  const double trial_raw_bytes =
      static_cast<double>(trial_rows) * sizeof(T) + picks.size();
  if (static_cast<double>(best_size) > trial_raw_bytes * (1.0 - kMinSaving)) {
    best = BlockCodec::kRaw;
  }

  const auto t_encode = std::chrono::steady_clock::now();
  encode_all(best);
  stats.codec = best;
  stats.encode_seconds = SecondsSince(t_encode);

  // Verify every block decodes bit-exact against the raw column (and time the
  // decoder while at it). A failure downgrades the whole column to raw —
  // DecodeRange may then assume decoding never fails.
  std::vector<T> buf;
  CodecScratch scratch;
  const auto t_decode = std::chrono::steady_clock::now();
  bool verified = true;
  for (size_t i = 0; i < blocks.size(); ++i) {
    const size_t rows = static_cast<size_t>(blocks[i].rows());
    buf.resize(rows);
    const uint8_t* block =
        reinterpret_cast<const uint8_t*>(data.data()) + offsets[i];
    if (!decode(block, offsets[i + 1] - offsets[i], rows, buf.data(), scratch) ||
        std::memcmp(buf.data(), raw + blocks[i].begin, rows * sizeof(T)) != 0) {
      verified = false;
      break;
    }
  }
  stats.decode_seconds = SecondsSince(t_decode);
  if (!verified) {
    encode_all(BlockCodec::kRaw);
    stats.codec = BlockCodec::kRaw;
  }
  stats.encoded_bytes = data.size();
  data.shrink_to_fit();
}

Result<std::shared_ptr<const EncodedTable>> EncodedTable::Encode(
    const Table& table, const BlockEncodeOptions& options,
    const std::vector<uint64_t>* prefix_boundaries) {
  if (options.block_rows == 0) {
    return Status::InvalidArgument("block_rows must be positive");
  }
  auto encoded = std::shared_ptr<EncodedTable>(new EncodedTable());
  encoded->num_rows_ = table.num_rows();
  const MorselPlan plan =
      CarveMorsels(table.num_rows(), options.block_rows, prefix_boundaries);
  encoded->starts_.reserve(plan.morsels.size() + 1);
  for (const Morsel& m : plan.morsels) {
    encoded->starts_.push_back(m.begin);
  }
  encoded->starts_.push_back(table.num_rows());

  encoded->columns_.resize(table.num_columns());
  for (size_t col = 0; col < table.num_columns(); ++col) {
    EncodedColumn& ec = encoded->columns_[col];
    ec.type = table.schema().column(col).type;
    ec.offsets.assign(1, 0);
    const std::vector<BlockCodec> candidates = CandidatesFor(ec.type);
    switch (ec.type) {
      case DataType::kInt64:
        EncodeColumnBlocks(table.IntData(col), plan.morsels, candidates, EncodeBlockInt64,
                           DecodeBlockInt64, table.num_rows(), ec.data, ec.offsets, ec.stats);
        break;
      case DataType::kDouble:
        EncodeColumnBlocks(table.DoubleData(col), plan.morsels, candidates, EncodeBlockDouble,
                           DecodeBlockDouble, table.num_rows(), ec.data, ec.offsets, ec.stats);
        break;
      case DataType::kString:
        EncodeColumnBlocks(table.CodeData(col), plan.morsels, candidates, EncodeBlockCodes,
                           DecodeBlockCodes, table.num_rows(), ec.data, ec.offsets, ec.stats);
        break;
    }
  }
  return std::shared_ptr<const EncodedTable>(std::move(encoded));
}

size_t EncodedTable::BlockOf(uint64_t row) const {
  assert(row < num_rows_);
  const auto it = std::upper_bound(starts_.begin(), starts_.end(), row);
  return static_cast<size_t>(it - starts_.begin()) - 1;
}

ColumnSpan EncodedTable::DecodeRange(size_t col, uint64_t begin, uint64_t end,
                                     DecodeScratch& scratch,
                                     bool filter_only) const {
  assert(col < columns_.size() && begin < end && end <= num_rows_);
  if (scratch.columns.size() < columns_.size()) {
    scratch.columns.resize(columns_.size());
  }
  ColumnDecodeScratch& cs = scratch.columns[col];
  const size_t b0 = BlockOf(begin);
  const size_t b1 = BlockOf(end - 1) + 1;
  // Operate-on-compressed fast path: a filter-only range inside one dict- or
  // RLE-coded block is served as an encoded view — packed dictionary indices
  // or a run list — and never decoded to rows. The predicate kernels evaluate
  // it directly; the parsed block structure (dictionary lanes / runs) is
  // cached per column so a block-per-morsel scan parses each block once.
  if (filter_only && b1 - b0 == 1) {
    const EncodedColumn& ec = columns_[col];
    if (cs.view_block != b0) {
      const uint8_t* block =
          reinterpret_cast<const uint8_t*>(ec.data.data()) + ec.offsets[b0];
      const size_t size = ec.offsets[b0 + 1] - ec.offsets[b0];
      const size_t rows = static_cast<size_t>(starts_[b0 + 1] - starts_[b0]);
      const size_t lane_bytes =
          ec.type == DataType::kString ? sizeof(int32_t) : sizeof(int64_t);
      cs.view_kind = static_cast<uint8_t>(SpanEncoding::kDecoded);
      cs.view_idx = nullptr;
      cs.view_width = 0;
      if (ParseDictIndexView(block, size, rows, lane_bytes, cs.view_lanes,
                             &cs.view_idx, &cs.view_width)) {
        cs.view_kind = static_cast<uint8_t>(SpanEncoding::kDictIndex);
      } else if (ParseRleRunView(block, size, rows,
                                 static_cast<uint32_t>(lane_bytes * 8),
                                 cs.view_lanes, cs.view_run_ends)) {
        cs.view_kind = static_cast<uint8_t>(SpanEncoding::kRleRuns);
      }
      cs.view_block = b0;
    }
    const size_t at = static_cast<size_t>(begin - starts_[b0]);
    if (cs.view_kind == static_cast<uint8_t>(SpanEncoding::kDictIndex)) {
      ColumnSpan span;
      span.encoding = SpanEncoding::kDictIndex;
      span.dict = cs.view_lanes.data();
      span.dict_size = static_cast<uint32_t>(cs.view_lanes.size());
      span.dict_width = cs.view_width;
      span.dict_idx =
          cs.view_width > 0 ? cs.view_idx + at * cs.view_width : nullptr;
      return span;
    }
    if (cs.view_kind == static_cast<uint8_t>(SpanEncoding::kRleRuns)) {
      ColumnSpan span;
      span.encoding = SpanEncoding::kRleRuns;
      span.run_values = cs.view_lanes.data();
      span.run_ends = cs.view_run_ends.data();
      span.num_runs = static_cast<uint32_t>(cs.view_run_ends.size());
      span.rle_base = static_cast<uint32_t>(at);
      return span;
    }
    // Raw/Gorilla/delta2 block: no encoded view; serve it decoded below.
  }
  // Zero-copy fast path: a range inside one raw block reads the encoded
  // payload in place (the encoder aligns every payload to 8 bytes for exactly
  // this reinterpret). This is the steady state for raw columns whenever the
  // morsel carving matches the encode carving.
  if (b1 - b0 == 1) {
    const EncodedColumn& ec = columns_[col];
    const uint8_t* block =
        reinterpret_cast<const uint8_t*>(ec.data.data()) + ec.offsets[b0];
    if (static_cast<BlockCodec>(block[0]) == BlockCodec::kRaw &&
        reinterpret_cast<uintptr_t>(block + 1) % 8 == 0) {
      const uint8_t* payload = block + 1;
      const size_t at = static_cast<size_t>(begin - starts_[b0]);
      ColumnSpan span;
      switch (ec.type) {
        case DataType::kInt64:
          span.i64 = reinterpret_cast<const int64_t*>(payload) + at;
          break;
        case DataType::kDouble:
          span.f64 = reinterpret_cast<const double*>(payload) + at;
          break;
        case DataType::kString:
          span.codes = reinterpret_cast<const int32_t*>(payload) + at;
          break;
      }
      return span;
    }
  }
  if (b0 < cs.cached_begin || b1 > cs.cached_end) {
    const EncodedColumn& ec = columns_[col];
    const uint64_t base = starts_[b0];
    const size_t rows = static_cast<size_t>(starts_[b1] - base);
    const uint8_t* bytes = reinterpret_cast<const uint8_t*>(ec.data.data());
    bool ok = true;
    for (size_t b = b0; b < b1; ++b) {
      const size_t at = static_cast<size_t>(starts_[b] - base);
      const size_t n = static_cast<size_t>(starts_[b + 1] - starts_[b]);
      const uint8_t* block = bytes + ec.offsets[b];
      const size_t size = ec.offsets[b + 1] - ec.offsets[b];
      switch (ec.type) {
        case DataType::kInt64:
          cs.i64.resize(rows);
          ok = DecodeBlockInt64(block, size, n, cs.i64.data() + at, cs.codec);
          break;
        case DataType::kDouble:
          cs.f64.resize(rows);
          ok = DecodeBlockDouble(block, size, n, cs.f64.data() + at, cs.codec);
          break;
        case DataType::kString:
          cs.codes.resize(rows);
          ok = DecodeBlockCodes(block, size, n, cs.codes.data() + at, cs.codec);
          break;
      }
      // Every block was decode-verified at load; failure here is impossible
      // short of memory corruption.
      assert(ok);
      (void)ok;
    }
    cs.cached_begin = b0;
    cs.cached_end = b1;
  }
  const size_t offset = static_cast<size_t>(begin - starts_[cs.cached_begin]);
  ColumnSpan span;
  switch (columns_[col].type) {
    case DataType::kInt64:
      span.i64 = cs.i64.data() + offset;
      break;
    case DataType::kDouble:
      span.f64 = cs.f64.data() + offset;
      break;
    case DataType::kString:
      span.codes = cs.codes.data() + offset;
      break;
  }
  return span;
}

uint64_t EncodedTable::EncodedBytesInPrefix(size_t col, uint64_t rows) const {
  if (rows == 0 || num_rows_ == 0) {
    return 0;
  }
  const size_t last = BlockOf(std::min(rows, num_rows_) - 1);
  return columns_[col].offsets[last + 1];
}

uint64_t EncodedTable::TotalEncodedBytesInPrefix(uint64_t rows) const {
  uint64_t total = 0;
  for (size_t col = 0; col < columns_.size(); ++col) {
    total += EncodedBytesInPrefix(col, rows);
  }
  return total;
}

}  // namespace blink
