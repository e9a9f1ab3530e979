#include "src/storage/table.h"

#include <cassert>
#include <cstring>

#include "src/storage/encoded_table.h"

namespace blink {

int32_t Dictionary::Intern(std::string_view s) {
  auto it = index_.find(s);
  if (it != index_.end()) {
    return it->second;
  }
  const int32_t code = static_cast<int32_t>(strings_.size());
  // The deque gives the stored string a stable address, so the index can key
  // a view into it.
  strings_.emplace_back(s);
  index_.emplace(std::string_view(strings_.back()), code);
  return code;
}

int32_t Dictionary::Find(std::string_view s) const {
  auto it = index_.find(s);
  if (it == index_.end()) {
    return -1;
  }
  return it->second;
}

size_t Column::size() const {
  switch (type) {
    case DataType::kInt64:
      return ints.size();
    case DataType::kDouble:
      return doubles.size();
    case DataType::kString:
      return codes.size();
  }
  return 0;
}

void Column::Reserve(size_t n) {
  switch (type) {
    case DataType::kInt64:
      ints.reserve(n);
      break;
    case DataType::kDouble:
      doubles.reserve(n);
      break;
    case DataType::kString:
      codes.reserve(n);
      break;
  }
}

Table::Table(Schema schema) : schema_(std::move(schema)) {
  columns_.resize(schema_.num_columns());
  for (size_t i = 0; i < schema_.num_columns(); ++i) {
    columns_[i].type = schema_.column(i).type;
    if (columns_[i].type == DataType::kString) {
      columns_[i].dict = std::make_shared<Dictionary>();
    }
  }
}

void Table::Reserve(size_t n) {
  for (auto& col : columns_) {
    col.Reserve(n);
  }
}

Status Table::AppendRow(const std::vector<Value>& values) {
  if (values.size() != schema_.num_columns()) {
    return Status::InvalidArgument("row arity does not match schema");
  }
  for (size_t i = 0; i < values.size(); ++i) {
    const Value& v = values[i];
    switch (columns_[i].type) {
      case DataType::kInt64:
        if (!v.is_int()) {
          return Status::InvalidArgument("expected INT64 for column " +
                                         schema_.column(i).name);
        }
        break;
      case DataType::kDouble:
        if (!v.is_int() && !v.is_double()) {
          return Status::InvalidArgument("expected numeric for column " +
                                         schema_.column(i).name);
        }
        break;
      case DataType::kString:
        if (!v.is_string()) {
          return Status::InvalidArgument("expected STRING for column " +
                                         schema_.column(i).name);
        }
        break;
    }
  }
  for (size_t i = 0; i < values.size(); ++i) {
    switch (columns_[i].type) {
      case DataType::kInt64:
        AppendInt(i, values[i].AsInt());
        break;
      case DataType::kDouble:
        AppendDouble(i, values[i].AsNumeric());
        break;
      case DataType::kString:
        AppendString(i, values[i].AsString());
        break;
    }
  }
  CommitRow();
  return Status::Ok();
}

double Table::GetNumeric(size_t col, uint64_t row) const {
  const Column& c = columns_[col];
  if (c.type == DataType::kInt64) {
    return static_cast<double>(c.ints[row]);
  }
  assert(c.type == DataType::kDouble);
  return c.doubles[row];
}

ColumnSpan Table::BlockSpan(size_t col, uint64_t base) const {
  const Column& c = columns_[col];
  ColumnSpan span;
  switch (c.type) {
    case DataType::kInt64:
      span.i64 = c.ints.data() + base;
      break;
    case DataType::kDouble:
      span.f64 = c.doubles.data() + base;
      break;
    case DataType::kString:
      span.codes = c.codes.data() + base;
      break;
  }
  return span;
}

Status Table::BuildEncoded(const BlockEncodeOptions& options,
                           const std::vector<uint64_t>* prefix_boundaries) {
  auto encoded = EncodedTable::Encode(*this, options, prefix_boundaries);
  BLINK_RETURN_IF_ERROR(encoded.status());
  encoded_ = std::move(encoded).value();
  return Status::Ok();
}

const EncodedTable* Table::encoded_blocks() const {
  // A table that grew since encoding silently drops back to raw scans rather
  // than serving a stale (shorter) encoding.
  if (encoded_ == nullptr || encoded_->num_rows() != num_rows_) {
    return nullptr;
  }
  return encoded_.get();
}

Value Table::GetValue(size_t col, uint64_t row) const {
  const Column& c = columns_[col];
  switch (c.type) {
    case DataType::kInt64:
      return Value(c.ints[row]);
    case DataType::kDouble:
      return Value(c.doubles[row]);
    case DataType::kString:
      return Value(c.dict->At(c.codes[row]));
  }
  return Value();
}

int64_t Table::CellKey(size_t col, uint64_t row) const {
  const Column& c = columns_[col];
  switch (c.type) {
    case DataType::kInt64:
      return c.ints[row];
    case DataType::kString:
      return c.codes[row];
    case DataType::kDouble: {
      double d = c.doubles[row];
      int64_t bits;
      static_assert(sizeof(bits) == sizeof(d));
      std::memcpy(&bits, &d, sizeof(bits));
      return bits;
    }
  }
  return 0;
}

Table Table::SelectRows(const std::vector<uint64_t>& rows) const {
  Table out(schema_);
  out.Reserve(rows.size());
  for (size_t i = 0; i < columns_.size(); ++i) {
    // Share the dictionary so codes remain valid and memory is not duplicated.
    if (columns_[i].type == DataType::kString) {
      out.columns_[i].dict = columns_[i].dict;
    }
  }
  for (uint64_t row : rows) {
    for (size_t i = 0; i < columns_.size(); ++i) {
      switch (columns_[i].type) {
        case DataType::kInt64:
          out.AppendInt(i, columns_[i].ints[row]);
          break;
        case DataType::kDouble:
          out.AppendDouble(i, columns_[i].doubles[row]);
          break;
        case DataType::kString:
          out.AppendStringCode(i, columns_[i].codes[row]);
          break;
      }
    }
    out.CommitRow();
  }
  return out;
}

double Table::EstimatedBytesPerRow() const {
  double bytes = 0.0;
  for (const auto& col : columns_) {
    switch (col.type) {
      case DataType::kInt64:
        bytes += 8.0;
        break;
      case DataType::kDouble:
        bytes += 8.0;
        break;
      case DataType::kString: {
        // Average string length in the dictionary + the code itself.
        double total_len = 0.0;
        const size_t n = col.dict ? col.dict->size() : 0;
        for (size_t i = 0; i < n; ++i) {
          total_len += static_cast<double>(col.dict->At(static_cast<int32_t>(i)).size());
        }
        bytes += 4.0 + (n > 0 ? total_len / static_cast<double>(n) : 0.0);
        break;
      }
    }
  }
  return bytes;
}

KeyEncoder::KeyEncoder(const Table& table, std::vector<size_t> key_columns)
    : table_(&table), key_columns_(std::move(key_columns)) {}

void KeyEncoder::Encode(uint64_t row, std::vector<int64_t>& out) const {
  out.clear();
  out.reserve(key_columns_.size());
  for (size_t col : key_columns_) {
    out.push_back(table_->CellKey(col, row));
  }
}

size_t KeyHash::operator()(const std::vector<int64_t>& key) const {
  // FNV-1a over the key cells, mixed per 64-bit lane.
  uint64_t h = 1469598103934665603ULL;
  for (int64_t cell : key) {
    uint64_t x = static_cast<uint64_t>(cell);
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    h = (h ^ x) * 1099511628211ULL;
  }
  return static_cast<size_t>(h);
}

}  // namespace blink
