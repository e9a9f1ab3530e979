#include "src/sql/sql_render.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "src/util/string_util.h"

namespace blink {
namespace {

std::string RenderSqlString(const std::string& s) {
  std::string out = "'";
  for (char c : s) {
    if (c == '\'') {
      out += "''";
    } else {
      out += c;
    }
  }
  out += "'";
  return out;
}

std::string RenderSqlDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  std::string s = buf;
  if (s.find('e') == std::string::npos && s.find('E') == std::string::npos) {
    return s;
  }
  // %.17g chose exponent form, which the lexer rejects. Print the exact
  // fixed-point decimal expansion instead: 1074 fractional digits cover the
  // smallest denormal, and strtod's correct rounding maps the (exact)
  // expansion back to the same double. The integer part of a large value
  // runs to 309 digits, so the buffer is sized by a first measuring call.
  const int n = std::snprintf(nullptr, 0, "%.1074f", v);
  std::string big(static_cast<size_t>(n) + 1, '\0');
  std::snprintf(big.data(), big.size(), "%.1074f", v);
  big.resize(static_cast<size_t>(n));
  const size_t dot = big.find('.');
  size_t last = big.find_last_not_of('0');
  if (last == dot) {
    ++last;  // keep one fractional digit: "2." does not lex, "2.0" does
  }
  big.resize(last + 1);
  return big;
}

}  // namespace

std::string RenderSqlValue(const Value& v) {
  if (v.is_string()) {
    return RenderSqlString(v.AsString());
  }
  if (v.is_double()) {
    return RenderSqlDouble(v.AsDouble());
  }
  return std::to_string(v.AsInt());
}

std::string RenderPredicate(const Predicate& pred, RenderMode mode) {
  switch (pred.kind) {
    case Predicate::Kind::kCompare:
      return pred.column + " " + CompareOpName(pred.op) + " " + RenderSqlValue(pred.literal);
    case Predicate::Kind::kAnd:
    case Predicate::Kind::kOr: {
      std::vector<std::string> parts;
      parts.reserve(pred.children.size());
      for (const auto& child : pred.children) {
        parts.push_back(RenderPredicate(child, mode));
      }
      if (mode == RenderMode::kCanonical) {
        std::sort(parts.begin(), parts.end());
      }
      const char* sep = pred.kind == Predicate::Kind::kAnd ? " AND " : " OR ";
      std::string out = "(";
      for (size_t i = 0; i < parts.size(); ++i) {
        if (i > 0) {
          out += sep;
        }
        out += parts[i];
      }
      out += ")";
      return out;
    }
  }
  return "?";
}

std::string RenderSelect(const SelectStatement& stmt, RenderMode mode) {
  const bool canonical = mode == RenderMode::kCanonical;
  const auto ident = [canonical](const std::string& name) {
    return canonical ? AsciiToLower(name) : name;
  };
  std::string out = "SELECT ";
  for (size_t i = 0; i < stmt.items.size(); ++i) {
    if (i > 0) {
      out += ", ";
    }
    const auto& item = stmt.items[i];
    if (item.is_aggregate) {
      out += AggFuncName(item.agg.func);
      out += "(";
      if (item.agg.count_star) {
        out += "*";
      } else {
        out += ident(item.agg.column);
        if (item.agg.func == AggFunc::kQuantile) {
          out += ", " + RenderSqlDouble(item.agg.quantile_p);
        }
      }
      out += ")";
    } else {
      out += ident(item.column);
    }
    if (!item.alias.empty()) {
      out += " AS " + item.alias;
    }
  }
  out += " FROM " + ident(stmt.table);
  if (stmt.join.has_value()) {
    out += " JOIN " + ident(stmt.join->table) + " ON " + ident(stmt.join->left_column) +
           " = " + ident(stmt.join->right_column);
  }
  if (stmt.where.has_value()) {
    out += " WHERE " + RenderPredicate(*stmt.where, mode);
  }
  if (!stmt.group_by.empty()) {
    out += " GROUP BY ";
    for (size_t i = 0; i < stmt.group_by.size(); ++i) {
      if (i > 0) {
        out += ", ";
      }
      out += ident(stmt.group_by[i]);
    }
  }
  if (stmt.having.has_value()) {
    out += " HAVING " + RenderPredicate(*stmt.having, mode);
  }
  return out;
}

}  // namespace blink
