#include "src/sql/ast.h"

#include <algorithm>

#include "src/util/string_util.h"

namespace blink {

const char* AggFuncName(AggFunc f) {
  switch (f) {
    case AggFunc::kCount:
      return "COUNT";
    case AggFunc::kSum:
      return "SUM";
    case AggFunc::kAvg:
      return "AVG";
    case AggFunc::kQuantile:
      return "QUANTILE";
  }
  return "?";
}

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

Predicate Predicate::Compare(std::string col, CompareOp cmp, Value lit) {
  Predicate p;
  p.kind = Kind::kCompare;
  p.column = std::move(col);
  p.op = cmp;
  p.literal = std::move(lit);
  return p;
}

Predicate Predicate::And(std::vector<Predicate> kids) {
  Predicate p;
  p.kind = Kind::kAnd;
  p.children = std::move(kids);
  return p;
}

Predicate Predicate::Or(std::vector<Predicate> kids) {
  Predicate p;
  p.kind = Kind::kOr;
  p.children = std::move(kids);
  return p;
}

void Predicate::CollectColumns(std::vector<std::string>& out) const {
  if (kind == Kind::kCompare) {
    const std::string lower = AsciiToLower(column);
    if (std::find(out.begin(), out.end(), lower) == out.end()) {
      out.push_back(lower);
    }
    return;
  }
  for (const auto& child : children) {
    child.CollectColumns(out);
  }
}

bool Predicate::IsConjunctive() const {
  if (kind == Kind::kOr) {
    return false;
  }
  if (kind == Kind::kCompare) {
    return true;
  }
  for (const auto& child : children) {
    if (!child.IsConjunctive()) {
      return false;
    }
  }
  return true;
}

std::vector<std::string> SelectStatement::TemplateColumns() const {
  std::vector<std::string> cols;
  if (where.has_value()) {
    where->CollectColumns(cols);
  }
  if (having.has_value()) {
    having->CollectColumns(cols);
  }
  for (const auto& g : group_by) {
    const std::string lower = AsciiToLower(g);
    if (std::find(cols.begin(), cols.end(), lower) == cols.end()) {
      cols.push_back(lower);
    }
  }
  std::sort(cols.begin(), cols.end());
  return cols;
}

}  // namespace blink
