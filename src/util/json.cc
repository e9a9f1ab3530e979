#include "src/util/json.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace blink {
namespace {

constexpr int kMaxDepth = 64;

void AppendEscaped(std::string& out, const std::string& s) {
  out.push_back('"');
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(static_cast<char>(c));
        }
    }
  }
  out.push_back('"');
}

// Recursive-descent parser over a bounded cursor.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> Run() {
    auto value = ParseValue(0);
    if (!value.ok()) {
      return value;
    }
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Fail("trailing characters after JSON document");
    }
    return value;
  }

 private:
  Status Fail(const std::string& what) const {
    return Status::InvalidArgument("JSON parse error at offset " +
                                   std::to_string(pos_) + ": " + what);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  Result<JsonValue> ParseValue(int depth) {
    if (depth > kMaxDepth) {
      return Fail("nesting too deep");
    }
    SkipWhitespace();
    if (pos_ >= text_.size()) {
      return Fail("unexpected end of input");
    }
    const char c = text_[pos_];
    if (c == '{') {
      return ParseObject(depth);
    }
    if (c == '[') {
      return ParseArray(depth);
    }
    if (c == '"') {
      auto s = ParseString();
      if (!s.ok()) {
        return s.status();
      }
      return JsonValue(std::move(s.value()));
    }
    if (ConsumeLiteral("null")) {
      return JsonValue(nullptr);
    }
    if (ConsumeLiteral("true")) {
      return JsonValue(true);
    }
    if (ConsumeLiteral("false")) {
      return JsonValue(false);
    }
    return ParseNumber();
  }

  Result<JsonValue> ParseObject(int depth) {
    ++pos_;  // '{'
    JsonValue out = JsonValue::Object();
    SkipWhitespace();
    if (Consume('}')) {
      return out;
    }
    for (;;) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected object key");
      }
      auto key = ParseString();
      if (!key.ok()) {
        return key.status();
      }
      SkipWhitespace();
      if (!Consume(':')) {
        return Fail("expected ':' after object key");
      }
      auto value = ParseValue(depth + 1);
      if (!value.ok()) {
        return value;
      }
      out.Set(std::move(key.value()), std::move(value.value()));
      SkipWhitespace();
      if (Consume(',')) {
        continue;
      }
      if (Consume('}')) {
        return out;
      }
      return Fail("expected ',' or '}' in object");
    }
  }

  Result<JsonValue> ParseArray(int depth) {
    ++pos_;  // '['
    JsonValue out = JsonValue::Array();
    SkipWhitespace();
    if (Consume(']')) {
      return out;
    }
    for (;;) {
      auto value = ParseValue(depth + 1);
      if (!value.ok()) {
        return value;
      }
      out.Append(std::move(value.value()));
      SkipWhitespace();
      if (Consume(',')) {
        continue;
      }
      if (Consume(']')) {
        return out;
      }
      return Fail("expected ',' or ']' in array");
    }
  }

  Result<std::string> ParseString() {
    ++pos_;  // '"'
    std::string out;
    while (pos_ < text_.size()) {
      const unsigned char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (c < 0x20) {
        return Fail("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(static_cast<char>(c));
        ++pos_;
        continue;
      }
      ++pos_;  // backslash
      if (pos_ >= text_.size()) {
        break;
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Fail("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Fail("bad hex digit in \\u escape");
            }
          }
          // Encode the code point as UTF-8 (surrogate pairs are passed
          // through as-is; the protocol's strings are ASCII in practice).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Fail("unknown escape sequence");
      }
    }
    return Fail("unterminated string");
  }

  Result<JsonValue> ParseNumber() {
    const size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    bool integral = pos_ > start && text_[pos_ - 1] != '-';
    if (pos_ < text_.size() &&
        (text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      // Let strtod validate the rest of the mantissa/exponent.
      ++pos_;
      while (pos_ < text_.size() &&
             (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '+' || text_[pos_] == '-' || text_[pos_] == '.' ||
              text_[pos_] == 'e' || text_[pos_] == 'E')) {
        ++pos_;
      }
    }
    if (pos_ == start) {
      return Fail("expected a value");
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (integral) {
      errno = 0;
      char* end = nullptr;
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end == token.c_str() + token.size()) {
        return JsonValue(static_cast<int64_t>(v));
      }
      // Falls through: out-of-range integers degrade to double.
    }
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || !std::isfinite(v)) {
      return Fail("malformed number '" + token + "'");
    }
    return JsonValue(v);
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

JsonValue::Kind JsonValue::kind() const {
  switch (data_.index()) {
    case 0:
      return Kind::kNull;
    case 1:
      return Kind::kBool;
    case 2:
      return Kind::kInt;
    case 3:
      return Kind::kDouble;
    case 4:
      return Kind::kString;
    case 5:
      return Kind::kArray;
    default:
      return Kind::kObject;
  }
}

std::optional<int64_t> JsonValue::AsInt() const {
  if (kind() == Kind::kInt) {
    return std::get<int64_t>(data_);
  }
  if (kind() != Kind::kDouble) {
    return std::nullopt;
  }
  // The negated range test also rejects NaN; in range, the cast is exact.
  const double d = std::get<double>(data_);
  if (!(d >= -9223372036854775808.0 && d < 9223372036854775808.0) || std::trunc(d) != d) {
    return std::nullopt;
  }
  return static_cast<int64_t>(d);
}

double JsonValue::AsDouble() const {
  if (kind() == Kind::kInt) {
    return static_cast<double>(std::get<int64_t>(data_));
  }
  return std::get<double>(data_);
}

JsonValue& JsonValue::Set(std::string key, JsonValue v) {
  auto& members = std::get<ObjectStorage>(data_);
  for (auto& member : members) {
    if (member.first == key) {
      member.second = std::move(v);
      return *this;
    }
  }
  members.emplace_back(std::move(key), std::move(v));
  return *this;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  for (const auto& member : std::get<ObjectStorage>(data_)) {
    if (member.first == key) {
      return &member.second;
    }
  }
  return nullptr;
}

void JsonValue::SerializeTo(std::string& out) const {
  switch (kind()) {
    case Kind::kNull:
      out += "null";
      break;
    case Kind::kBool:
      out += std::get<bool>(data_) ? "true" : "false";
      break;
    case Kind::kInt:
      out += std::to_string(std::get<int64_t>(data_));
      break;
    case Kind::kDouble: {
      const double v = std::get<double>(data_);
      if (!std::isfinite(v)) {
        out += "null";  // JSON has no Inf/NaN; the protocol never emits them
        break;
      }
      char buf[32];
      // 17 significant digits round-trip every finite double exactly.
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      out += buf;
      break;
    }
    case Kind::kString:
      AppendEscaped(out, std::get<std::string>(data_));
      break;
    case Kind::kArray: {
      out.push_back('[');
      const auto& items = std::get<ArrayStorage>(data_);
      for (size_t i = 0; i < items.size(); ++i) {
        if (i > 0) {
          out.push_back(',');
        }
        items[i].SerializeTo(out);
      }
      out.push_back(']');
      break;
    }
    case Kind::kObject: {
      out.push_back('{');
      const auto& members = std::get<ObjectStorage>(data_);
      for (size_t i = 0; i < members.size(); ++i) {
        if (i > 0) {
          out.push_back(',');
        }
        AppendEscaped(out, members[i].first);
        out.push_back(':');
        members[i].second.SerializeTo(out);
      }
      out.push_back('}');
      break;
    }
  }
}

std::string JsonValue::Serialize() const {
  std::string out;
  SerializeTo(out);
  return out;
}

Result<JsonValue> JsonValue::Parse(std::string_view text) {
  return Parser(text).Run();
}

}  // namespace blink
