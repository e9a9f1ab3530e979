// In-memory columnar table. Strings are dictionary-encoded per column; the
// dictionary is shared (via shared_ptr) between a table and tables derived
// from it (samples, row selections), mirroring how BlinkDB's samples reuse the
// original table's storage layout (§3.1).
#ifndef BLINKDB_STORAGE_TABLE_H_
#define BLINKDB_STORAGE_TABLE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/storage/column_span.h"
#include "src/storage/schema.h"
#include "src/storage/value.h"
#include "src/util/status.h"

namespace blink {

class EncodedTable;
struct BlockEncodeOptions;

// A per-column string dictionary: code <-> string. Strings live in a deque
// (stable addresses across growth) and the hash index keys string_views into
// it, so Intern never materializes a temporary std::string — one hash lookup,
// zero allocation on the hit path that dominates ingest.
class Dictionary {
 public:
  // Returns the code for `s`, inserting it if new.
  int32_t Intern(std::string_view s);
  // Returns the code for `s`, or -1 if absent (lookup never mutates).
  int32_t Find(std::string_view s) const;
  // The string for a code. Requires 0 <= code < size().
  const std::string& At(int32_t code) const { return strings_[static_cast<size_t>(code)]; }
  size_t size() const { return strings_.size(); }

 private:
  std::deque<std::string> strings_;
  std::unordered_map<std::string_view, int32_t> index_;
};

// One typed column. Exactly one of the payload vectors is active, per `type`.
struct Column {
  DataType type;
  std::vector<int64_t> ints;      // kInt64
  std::vector<double> doubles;    // kDouble
  std::vector<int32_t> codes;     // kString: codes into *dict
  std::shared_ptr<Dictionary> dict;

  size_t size() const;
  void Reserve(size_t n);
};

class Table {
 public:
  Table() = default;
  explicit Table(Schema schema);

  const Schema& schema() const { return schema_; }
  uint64_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return schema_.num_columns(); }

  // Pre-allocates capacity for n rows.
  void Reserve(size_t n);

  // Appends one row. `values` must match the schema arity and types
  // (ints are accepted for double columns and widened).
  Status AppendRow(const std::vector<Value>& values);

  // Typed fast-path appenders: call one per column, in schema order, then
  // CommitRow(). Used by generators; no per-row validation.
  void AppendInt(size_t col, int64_t v) { columns_[col].ints.push_back(v); }
  void AppendDouble(size_t col, double v) { columns_[col].doubles.push_back(v); }
  void AppendString(size_t col, std::string_view v) {
    columns_[col].codes.push_back(columns_[col].dict->Intern(v));
  }
  void AppendStringCode(size_t col, int32_t code) { columns_[col].codes.push_back(code); }
  void CommitRow() { ++num_rows_; }

  // Typed accessors. Caller guarantees the column type.
  int64_t GetInt(size_t col, uint64_t row) const { return columns_[col].ints[row]; }
  double GetDouble(size_t col, uint64_t row) const { return columns_[col].doubles[row]; }
  int32_t GetStringCode(size_t col, uint64_t row) const { return columns_[col].codes[row]; }
  const std::string& GetString(size_t col, uint64_t row) const {
    return columns_[col].dict->At(columns_[col].codes[row]);
  }

  // Numeric view of an int or double cell.
  double GetNumeric(size_t col, uint64_t row) const;

  // Raw columnar block views for vectorized operators. Caller guarantees the
  // column type; pointers stay valid until rows are appended.
  const int64_t* IntData(size_t col) const { return columns_[col].ints.data(); }
  const double* DoubleData(size_t col) const { return columns_[col].doubles.data(); }
  const int32_t* CodeData(size_t col) const { return columns_[col].codes.data(); }

  // Base-relative view of one column's raw storage starting at row `base` —
  // the zero-copy counterpart of EncodedTable::DecodeRange.
  ColumnSpan BlockSpan(size_t col, uint64_t base) const;

  // Builds (or rebuilds) the compressed block representation of this table;
  // see src/storage/encoded_table.h. `prefix_boundaries` must match the scan
  // carving's cut points for this table (a sample family passes its
  // resolution sizes).
  Status BuildEncoded(const BlockEncodeOptions& options,
                      const std::vector<uint64_t>* prefix_boundaries = nullptr);

  // The compressed representation, or nullptr if BuildEncoded was never
  // called (or rows were appended since — appends invalidate it).
  const EncodedTable* encoded_blocks() const;

  // Generic (slow) accessor, for result printing and tests.
  Value GetValue(size_t col, uint64_t row) const;

  const Column& column(size_t i) const { return columns_[i]; }
  Column& column(size_t i) { return columns_[i]; }

  // A canonical per-row cell key for grouping/stratification: the int value,
  // the string code, or the bit pattern of the double.
  int64_t CellKey(size_t col, uint64_t row) const;

  // Builds a new table containing `rows` (in order), sharing dictionaries.
  Table SelectRows(const std::vector<uint64_t>& rows) const;

  // Approximate in-memory width of one row in bytes (used by the storage-cost
  // model; strings count their average dictionary length).
  double EstimatedBytesPerRow() const;

 private:
  Schema schema_;
  std::vector<Column> columns_;
  uint64_t num_rows_ = 0;
  std::shared_ptr<const EncodedTable> encoded_;  // null until BuildEncoded
};

// Encodes the composite key of a row over a fixed set of columns. Used for
// GROUP BY cells and for stratification on a column set phi. Keys compare by
// value (exact, not hashed-only), so distinct strata never collide.
class KeyEncoder {
 public:
  KeyEncoder(const Table& table, std::vector<size_t> key_columns);

  // Appends the row's key cells to `out` (clears it first).
  void Encode(uint64_t row, std::vector<int64_t>& out) const;

  const std::vector<size_t>& key_columns() const { return key_columns_; }

 private:
  const Table* table_;
  std::vector<size_t> key_columns_;
};

// Hash + equality for composite keys, so they can live in unordered_map.
struct KeyHash {
  size_t operator()(const std::vector<int64_t>& key) const;
};

}  // namespace blink

#endif  // BLINKDB_STORAGE_TABLE_H_
