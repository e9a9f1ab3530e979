#include "src/sql/parser.h"

#include <cmath>

#include "src/sql/lexer.h"
#include "src/util/string_util.h"

namespace blink {
namespace {

// Keywords that terminate an expression list; identifiers matching these are
// never consumed as column names.
bool IsReservedTerminator(const Token& t) {
  for (const char* kw : {"FROM", "WHERE", "GROUP", "HAVING", "ERROR", "WITHIN", "JOIN",
                         "ON", "AND", "OR", "AS", "LIMIT", "BY", "AT", "CONFIDENCE",
                         "SECONDS", "RELATIVE", "ABSOLUTE"}) {
    if (t.IsWord(kw)) {
      return true;
    }
  }
  return false;
}

// Propagates the error status of a parser helper.
#define BLINK_ASSIGN(expr)          \
  do {                              \
    Status status_ = (expr);        \
    if (!status_.ok()) {            \
      return status_;               \
    }                               \
  } while (false)

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<SelectStatement> Parse() {
    SelectStatement stmt;
    BLINK_ASSIGN(Expect("SELECT"));
    // Select list.
    for (;;) {
      Status item_status = ParseSelectItem(stmt);
      if (!item_status.ok()) {
        return item_status;
      }
      if (!TryConsumeSymbol(",")) {
        break;
      }
    }
    BLINK_ASSIGN(Expect("FROM"));
    if (!Peek().Is(TokenType::kIdentifier)) {
      return Err("expected table name after FROM");
    }
    stmt.table = Next().text;

    if (PeekWord("JOIN")) {
      Next();
      JoinClause join;
      if (!Peek().Is(TokenType::kIdentifier)) {
        return Err("expected table name after JOIN");
      }
      join.table = Next().text;
      BLINK_ASSIGN(Expect("ON"));
      if (!Peek().Is(TokenType::kIdentifier)) {
        return Err("expected column in JOIN ON");
      }
      join.left_column = Unqualify(Next().text);
      if (!TryConsumeSymbol("=")) {
        return Err("expected '=' in JOIN ON");
      }
      if (!Peek().Is(TokenType::kIdentifier)) {
        return Err("expected column in JOIN ON");
      }
      join.right_column = Unqualify(Next().text);
      stmt.join = std::move(join);
    }

    if (PeekWord("WHERE")) {
      Next();
      auto pred = ParsePredicate();
      if (!pred.ok()) {
        return pred.status();
      }
      stmt.where = std::move(pred.value());
    }

    if (PeekWord("GROUP")) {
      Next();
      BLINK_ASSIGN(Expect("BY"));
      for (;;) {
        if (!Peek().Is(TokenType::kIdentifier) || IsReservedTerminator(Peek())) {
          return Err("expected column in GROUP BY");
        }
        stmt.group_by.push_back(Unqualify(Next().text));
        if (!TryConsumeSymbol(",")) {
          break;
        }
      }
    }

    if (PeekWord("HAVING")) {
      Next();
      auto pred = ParsePredicate();
      if (!pred.ok()) {
        return pred.status();
      }
      stmt.having = std::move(pred.value());
    }

    // Bounds.
    if (PeekWord("ERROR") || PeekWord("ABSOLUTE") || PeekWord("RELATIVE")) {
      // Relative iff prefixed RELATIVE, or unprefixed with a '%' error value.
      bool forced_absolute = false;
      bool forced_relative = false;
      if (PeekWord("ABSOLUTE")) {
        Next();
        forced_absolute = true;
      } else if (PeekWord("RELATIVE")) {
        Next();
        forced_relative = true;
      }
      BLINK_ASSIGN(Expect("ERROR"));
      BLINK_ASSIGN(Expect("WITHIN"));
      auto err = ParsePercentOrNumber();
      if (!err.ok()) {
        return err.status();
      }
      stmt.bounds.kind = QueryBounds::Kind::kError;
      stmt.bounds.relative =
          forced_relative || (!forced_absolute && err.value().was_percent);
      stmt.bounds.error = err.value().value;
      BLINK_ASSIGN(Expect("AT"));
      BLINK_ASSIGN(Expect("CONFIDENCE"));
      auto conf = ParsePercentOrNumber();
      if (!conf.ok()) {
        return conf.status();
      }
      stmt.bounds.confidence = NormalizeConfidence(conf.value());
    } else if (PeekWord("WITHIN")) {
      Next();
      if (!Peek().Is(TokenType::kNumber)) {
        return Err("expected number after WITHIN");
      }
      stmt.bounds.kind = QueryBounds::Kind::kTime;
      stmt.bounds.time_seconds = Next().number;
      BLINK_ASSIGN(Expect("SECONDS"));
    }

    TryConsumeSymbol(";");
    if (!Peek().Is(TokenType::kEnd)) {
      return Err("unexpected trailing input: '" + Peek().text + "'");
    }
    if (stmt.items.empty()) {
      return Err("empty select list");
    }
    return stmt;
  }

 private:
  struct ParsedNumber {
    double value;
    bool was_percent;
  };

  const Token& Peek(size_t ahead = 0) const {
    const size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Next() { return tokens_[pos_++]; }
  bool PeekWord(std::string_view w) const { return Peek().IsWord(w); }

  bool TryConsumeSymbol(std::string_view sym) {
    if (Peek().IsSymbol(sym)) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Expect(std::string_view word) {
    if (!Peek().IsWord(word)) {
      return Status::InvalidArgument("expected '" + std::string(word) + "' but found '" +
                                     Peek().text + "' at offset " +
                                     std::to_string(Peek().position));
    }
    ++pos_;
    return Status::Ok();
  }

  Status Err(std::string msg) const {
    return Status::InvalidArgument(msg + " at offset " + std::to_string(Peek().position));
  }

  static std::string Unqualify(const std::string& name) {
    const size_t dot = name.rfind('.');
    return dot == std::string::npos ? name : name.substr(dot + 1);
  }

  // Numbers optionally suffixed with '%': "10%" -> {0.10, true}.
  Result<ParsedNumber> ParsePercentOrNumber() {
    if (!Peek().Is(TokenType::kNumber)) {
      return Status::InvalidArgument("expected number at offset " +
                                     std::to_string(Peek().position));
    }
    ParsedNumber out{Next().number, false};
    if (TryConsumeSymbol("%")) {
      out.value /= 100.0;
      out.was_percent = true;
    }
    return out;
  }

  // Confidence may be written "95%", "0.95", or "95".
  static double NormalizeConfidence(const ParsedNumber& n) {
    if (n.was_percent) {
      return n.value;
    }
    return n.value > 1.0 ? n.value / 100.0 : n.value;
  }

  Status ParseSelectItem(SelectStatement& stmt) {
    // "RELATIVE ERROR AT 95% CONFIDENCE" pseudo-column (paper §2 example).
    if (PeekWord("RELATIVE") || PeekWord("ABSOLUTE")) {
      // Only treat as a report column when followed by ERROR AT (otherwise it
      // belongs to the bounds clause, which cannot appear in the select list).
      if (Peek(1).IsWord("ERROR") && Peek(2).IsWord("AT")) {
        Next();  // RELATIVE | ABSOLUTE
        Next();  // ERROR
        Next();  // AT
        auto conf = ParsePercentOrNumber();
        if (!conf.ok()) {
          return conf.status();
        }
        BLINK_ASSIGN(Expect("CONFIDENCE"));
        stmt.report_error_columns = true;
        stmt.bounds.confidence = NormalizeConfidence(conf.value());
        return Status::Ok();
      }
    }

    SelectItem item;
    const Token& t = Peek();
    if (!t.Is(TokenType::kIdentifier)) {
      return Err("expected select item");
    }
    auto parse_agg = [&](AggFunc func, bool needs_p) -> Status {
      Next();  // function name
      if (!TryConsumeSymbol("(")) {
        return Err("expected '('");
      }
      item.is_aggregate = true;
      item.agg.func = func;
      if (func == AggFunc::kCount && Peek().IsSymbol("*")) {
        Next();
        item.agg.count_star = true;
      } else {
        if (!Peek().Is(TokenType::kIdentifier)) {
          return Err("expected column in aggregate");
        }
        item.agg.column = Unqualify(Next().text);
      }
      if (needs_p) {
        if (!TryConsumeSymbol(",")) {
          return Err("expected ', <quantile>' in QUANTILE");
        }
        if (!Peek().Is(TokenType::kNumber)) {
          return Err("expected quantile fraction");
        }
        item.agg.quantile_p = Next().number;
        if (item.agg.quantile_p <= 0.0 || item.agg.quantile_p >= 1.0) {
          return Err("quantile fraction must be in (0,1)");
        }
      }
      if (!TryConsumeSymbol(")")) {
        return Err("expected ')'");
      }
      return Status::Ok();
    };

    if (t.IsWord("COUNT")) {
      BLINK_ASSIGN(parse_agg(AggFunc::kCount, false));
    } else if (t.IsWord("SUM")) {
      BLINK_ASSIGN(parse_agg(AggFunc::kSum, false));
    } else if (t.IsWord("AVG") || t.IsWord("MEAN")) {
      BLINK_ASSIGN(parse_agg(AggFunc::kAvg, false));
    } else if (t.IsWord("MEDIAN")) {
      BLINK_ASSIGN(parse_agg(AggFunc::kQuantile, false));
      item.agg.quantile_p = 0.5;
    } else if (t.IsWord("QUANTILE") || t.IsWord("PERCENTILE")) {
      BLINK_ASSIGN(parse_agg(AggFunc::kQuantile, true));
    } else if (IsReservedTerminator(t)) {
      return Err("expected select item");
    } else {
      item.column = Unqualify(Next().text);
    }

    if (PeekWord("AS")) {
      Next();
      if (!Peek().Is(TokenType::kIdentifier)) {
        return Err("expected alias after AS");
      }
      item.alias = Next().text;
    }
    stmt.items.push_back(std::move(item));
    return Status::Ok();
  }

  Result<Predicate> ParsePredicate() { return ParseOr(); }

  Result<Predicate> ParseOr() {
    auto left = ParseAnd();
    if (!left.ok()) {
      return left;
    }
    std::vector<Predicate> terms;
    terms.push_back(std::move(left.value()));
    while (PeekWord("OR")) {
      Next();
      auto right = ParseAnd();
      if (!right.ok()) {
        return right;
      }
      terms.push_back(std::move(right.value()));
    }
    if (terms.size() == 1) {
      return std::move(terms[0]);
    }
    return Predicate::Or(std::move(terms));
  }

  Result<Predicate> ParseAnd() {
    auto left = ParsePrimary();
    if (!left.ok()) {
      return left;
    }
    std::vector<Predicate> terms;
    terms.push_back(std::move(left.value()));
    while (PeekWord("AND")) {
      Next();
      auto right = ParsePrimary();
      if (!right.ok()) {
        return right;
      }
      terms.push_back(std::move(right.value()));
    }
    if (terms.size() == 1) {
      return std::move(terms[0]);
    }
    return Predicate::And(std::move(terms));
  }

  Result<Predicate> ParsePrimary() {
    if (TryConsumeSymbol("(")) {
      if (nesting_ == kMaxPredicateNesting) {
        return Status::InvalidArgument(
            "predicate nests deeper than " + std::to_string(kMaxPredicateNesting) +
            " parentheses at offset " + std::to_string(Peek().position));
      }
      ++nesting_;
      auto inner = ParsePredicate();
      --nesting_;
      if (!inner.ok()) {
        return inner;
      }
      if (!TryConsumeSymbol(")")) {
        return Status::InvalidArgument("expected ')' at offset " +
                                       std::to_string(Peek().position));
      }
      return inner;
    }
    if (!Peek().Is(TokenType::kIdentifier) || IsReservedTerminator(Peek())) {
      return Status::InvalidArgument("expected predicate at offset " +
                                     std::to_string(Peek().position));
    }
    const std::string column = Unqualify(Next().text);
    CompareOp op;
    if (TryConsumeSymbol("=")) {
      op = CompareOp::kEq;
    } else if (TryConsumeSymbol("!=")) {
      op = CompareOp::kNe;
    } else if (TryConsumeSymbol("<=")) {
      op = CompareOp::kLe;
    } else if (TryConsumeSymbol("<")) {
      op = CompareOp::kLt;
    } else if (TryConsumeSymbol(">=")) {
      op = CompareOp::kGe;
    } else if (TryConsumeSymbol(">")) {
      op = CompareOp::kGt;
    } else {
      return Status::InvalidArgument("expected comparison operator at offset " +
                                     std::to_string(Peek().position));
    }
    Value literal;
    if (Peek().Is(TokenType::kNumber)) {
      const Token& num = Next();
      // Integers stay integral so int-column comparisons are exact.
      if (num.text.find('.') == std::string::npos) {
        literal = Value(static_cast<int64_t>(std::llround(num.number)));
      } else {
        literal = Value(num.number);
      }
    } else if (Peek().Is(TokenType::kString)) {
      literal = Value(Next().text);
    } else {
      return Status::InvalidArgument("expected literal at offset " +
                                     std::to_string(Peek().position));
    }
    return Predicate::Compare(column, op, std::move(literal));
  }

#undef BLINK_ASSIGN

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  size_t nesting_ = 0;  // open parentheses around the predicate being parsed
};

}  // namespace

Result<SelectStatement> ParseSelect(std::string_view sql) {
  auto tokens = Tokenize(sql);
  if (!tokens.ok()) {
    return tokens.status();
  }
  Parser parser(std::move(tokens.value()));
  return parser.Parse();
}

}  // namespace blink
