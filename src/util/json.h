// Minimal JSON document model for the wire protocol (docs/PROTOCOL.md).
//
// The server and client exchange length-prefixed JSON frames; this module is
// the self-contained serializer/parser they share — no external dependency.
// Scope is deliberately small: UTF-8 text, objects with insertion-ordered
// keys, int64/double numbers, no comments, no trailing commas.
//
// Round-trip guarantee: doubles serialize with 17 significant digits
// ("%.17g"), which strtod parses back to the identical bit pattern — the
// property that makes a FINAL frame's estimates bit-identical to the
// in-process answer (tests/server_test.cc pins this). Non-finite doubles
// have no JSON representation and serialize as `null`; the protocol never
// legitimately produces them.
#ifndef BLINKDB_UTIL_JSON_H_
#define BLINKDB_UTIL_JSON_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "src/util/status.h"

namespace blink {

// A dynamically typed JSON value. Integers that fit int64 keep full
// precision through a round trip; every other number is a double.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  using Member = std::pair<std::string, JsonValue>;

  JsonValue() : data_(nullptr) {}
  JsonValue(std::nullptr_t) : data_(nullptr) {}                    // NOLINT
  JsonValue(bool v) : data_(v) {}                                  // NOLINT
  JsonValue(int64_t v) : data_(v) {}                               // NOLINT
  JsonValue(int v) : data_(static_cast<int64_t>(v)) {}             // NOLINT
  // Wire counters are specified as [0, 2^63) (docs/PROTOCOL.md §1), so the
  // int64 storage is lossless for every legal value.
  JsonValue(uint64_t v) : data_(static_cast<int64_t>(v)) {}        // NOLINT
  JsonValue(double v) : data_(v) {}                                // NOLINT
  JsonValue(std::string v) : data_(std::move(v)) {}                // NOLINT
  JsonValue(const char* v) : data_(std::string(v)) {}              // NOLINT

  static JsonValue Array() { return JsonValue(ArrayStorage{}); }
  static JsonValue Object() { return JsonValue(ObjectStorage{}); }

  Kind kind() const;
  bool is_null() const { return kind() == Kind::kNull; }
  bool is_bool() const { return kind() == Kind::kBool; }
  bool is_number() const { return kind() == Kind::kInt || kind() == Kind::kDouble; }
  bool is_string() const { return kind() == Kind::kString; }
  bool is_array() const { return kind() == Kind::kArray; }
  bool is_object() const { return kind() == Kind::kObject; }

  bool AsBool() const { return std::get<bool>(data_); }
  // The number's exact integer value: a JSON integer, or a double with no
  // fractional part inside [-2^63, 2^63) (a count may arrive as "3.0").
  // Empty for fractions, out-of-range magnitudes and non-numbers. This is the
  // only integer view, so no caller casts, wraps or truncates a double.
  std::optional<int64_t> AsInt() const;
  // Any number as a double (a JSON integer converts).
  double AsDouble() const;
  const std::string& AsString() const { return std::get<std::string>(data_); }

  // --- Arrays ---------------------------------------------------------------
  void Append(JsonValue v) { std::get<ArrayStorage>(data_).push_back(std::move(v)); }
  const std::vector<JsonValue>& items() const { return std::get<ArrayStorage>(data_); }

  // --- Objects (insertion-ordered; Set replaces an existing key) ------------
  JsonValue& Set(std::string key, JsonValue v);
  // Null when the key is absent.
  const JsonValue* Find(const std::string& key) const;
  const std::vector<Member>& members() const { return std::get<ObjectStorage>(data_); }

  // Compact serialization (no whitespace). Non-finite doubles emit `null`.
  std::string Serialize() const;

  // Strict parse of one JSON document (trailing non-whitespace is an error;
  // nesting is capped to guard the recursive descent).
  static Result<JsonValue> Parse(std::string_view text);

 private:
  using ArrayStorage = std::vector<JsonValue>;
  using ObjectStorage = std::vector<Member>;
  explicit JsonValue(ArrayStorage v) : data_(std::move(v)) {}
  explicit JsonValue(ObjectStorage v) : data_(std::move(v)) {}

  void SerializeTo(std::string& out) const;

  std::variant<std::nullptr_t, bool, int64_t, double, std::string, ArrayStorage,
               ObjectStorage>
      data_;
};

}  // namespace blink

#endif  // BLINKDB_UTIL_JSON_H_
