#include <gtest/gtest.h>

#include "src/sql/analyzer.h"
#include "src/sql/lexer.h"
#include "src/sql/parser.h"
#include "src/sql/sql_render.h"
#include "tests/query_gen.h"

namespace blink {
namespace {

// --- Lexer -------------------------------------------------------------------

TEST(LexerTest, BasicTokens) {
  auto tokens = Tokenize("SELECT COUNT(*) FROM t WHERE x = 'a b' AND y >= 3.5");
  ASSERT_TRUE(tokens.ok());
  const auto& v = *tokens;
  EXPECT_TRUE(v[0].IsWord("select"));
  EXPECT_TRUE(v[1].IsWord("COUNT"));
  EXPECT_TRUE(v[2].IsSymbol("("));
  EXPECT_TRUE(v[3].IsSymbol("*"));
  // find the string literal
  bool found_string = false;
  bool found_ge = false;
  for (const auto& t : v) {
    if (t.Is(TokenType::kString) && t.text == "a b") {
      found_string = true;
    }
    if (t.IsSymbol(">=")) {
      found_ge = true;
    }
  }
  EXPECT_TRUE(found_string);
  EXPECT_TRUE(found_ge);
  EXPECT_TRUE(v.back().Is(TokenType::kEnd));
}

TEST(LexerTest, NumbersParsed) {
  auto tokens = Tokenize("10 3.25 0.5");
  ASSERT_TRUE(tokens.ok());
  EXPECT_DOUBLE_EQ((*tokens)[0].number, 10.0);
  EXPECT_DOUBLE_EQ((*tokens)[1].number, 3.25);
  EXPECT_DOUBLE_EQ((*tokens)[2].number, 0.5);
}

TEST(LexerTest, EscapedQuote) {
  auto tokens = Tokenize("'it''s'");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "it's");
}

TEST(LexerTest, UnterminatedStringFails) {
  EXPECT_FALSE(Tokenize("'oops").ok());
}

TEST(LexerTest, UnexpectedCharacterFails) {
  EXPECT_FALSE(Tokenize("SELECT @").ok());
}

TEST(LexerTest, MalformedNumericLiteralFails) {
  // "1.2.3" scans as ONE number token; strtod would quietly parse 1.2 and
  // leave ".3" dangling — the lexer must reject it, not mangle the query.
  EXPECT_FALSE(Tokenize("1.2.3").ok());
  EXPECT_FALSE(Tokenize("SELECT COUNT(*) FROM t WHERE x = 1.2.3").ok());
}

TEST(LexerTest, OutOfRangeNumericLiteralFails) {
  // 1 followed by 400 zeros overflows double to +inf; strtod reports it via
  // HUGE_VAL, which must surface as an error, not an infinite literal.
  const std::string huge = "1" + std::string(400, '0');
  EXPECT_FALSE(Tokenize(huge).ok());
  EXPECT_FALSE(Tokenize("SELECT * FROM t WHERE x < " + huge).ok());
  // Underflow is representable (0 or denormal) and stays accepted.
  auto tiny = Tokenize("0.0000000001");
  ASSERT_TRUE(tiny.ok());
  EXPECT_DOUBLE_EQ((*tiny)[0].number, 1e-10);
}

TEST(LexerTest, NotEqualsVariants) {
  auto tokens = Tokenize("a != b <> c");
  ASSERT_TRUE(tokens.ok());
  EXPECT_TRUE((*tokens)[1].IsSymbol("!="));
  EXPECT_TRUE((*tokens)[3].IsSymbol("!="));  // <> normalized
}

// --- Parser ------------------------------------------------------------------

TEST(ParserTest, PaperExampleErrorBound) {
  // Verbatim from §2 of the paper.
  auto stmt = ParseSelect(
      "SELECT COUNT(*) FROM Sessions WHERE Genre = 'western' GROUP BY OS "
      "ERROR WITHIN 10% AT CONFIDENCE 95%");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->table, "Sessions");
  ASSERT_EQ(stmt->items.size(), 1u);
  EXPECT_TRUE(stmt->items[0].is_aggregate);
  EXPECT_TRUE(stmt->items[0].agg.count_star);
  ASSERT_TRUE(stmt->where.has_value());
  EXPECT_EQ(stmt->where->kind, Predicate::Kind::kCompare);
  EXPECT_EQ(stmt->where->column, "Genre");
  ASSERT_EQ(stmt->group_by.size(), 1u);
  EXPECT_EQ(stmt->group_by[0], "OS");
  EXPECT_EQ(stmt->bounds.kind, QueryBounds::Kind::kError);
  EXPECT_TRUE(stmt->bounds.relative);
  EXPECT_NEAR(stmt->bounds.error, 0.10, 1e-12);
  EXPECT_NEAR(stmt->bounds.confidence, 0.95, 1e-12);
}

TEST(ParserTest, PaperExampleTimeBound) {
  auto stmt = ParseSelect(
      "SELECT COUNT(*), RELATIVE ERROR AT 95% CONFIDENCE FROM Sessions "
      "WHERE Genre = 'western' GROUP BY OS WITHIN 5 SECONDS");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->bounds.kind, QueryBounds::Kind::kTime);
  EXPECT_DOUBLE_EQ(stmt->bounds.time_seconds, 5.0);
  EXPECT_TRUE(stmt->report_error_columns);
  EXPECT_NEAR(stmt->bounds.confidence, 0.95, 1e-12);
  EXPECT_EQ(stmt->items.size(), 1u);  // the error pseudo-column is not an item
}

TEST(ParserTest, AggregateVariants) {
  auto stmt = ParseSelect(
      "SELECT SUM(x), AVG(y), MEAN(y), MEDIAN(z), QUANTILE(z, 0.99), COUNT(u) FROM t");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_EQ(stmt->items.size(), 6u);
  EXPECT_EQ(stmt->items[0].agg.func, AggFunc::kSum);
  EXPECT_EQ(stmt->items[1].agg.func, AggFunc::kAvg);
  EXPECT_EQ(stmt->items[2].agg.func, AggFunc::kAvg);
  EXPECT_EQ(stmt->items[3].agg.func, AggFunc::kQuantile);
  EXPECT_DOUBLE_EQ(stmt->items[3].agg.quantile_p, 0.5);
  EXPECT_EQ(stmt->items[4].agg.func, AggFunc::kQuantile);
  EXPECT_DOUBLE_EQ(stmt->items[4].agg.quantile_p, 0.99);
  EXPECT_EQ(stmt->items[5].agg.func, AggFunc::kCount);
  EXPECT_FALSE(stmt->items[5].agg.count_star);
  EXPECT_EQ(stmt->items[5].agg.column, "u");
}

TEST(ParserTest, Aliases) {
  auto stmt = ParseSelect("SELECT city, SUM(t) AS total FROM s GROUP BY city");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->items[0].column, "city");
  EXPECT_EQ(stmt->items[1].alias, "total");
}

TEST(ParserTest, ConjunctiveAndDisjunctivePredicates) {
  auto stmt = ParseSelect(
      "SELECT COUNT(*) FROM t WHERE a = 1 AND (b = 'x' OR c > 2.5) AND d <= 7");
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE(stmt->where.has_value());
  EXPECT_EQ(stmt->where->kind, Predicate::Kind::kAnd);
  EXPECT_FALSE(stmt->where->IsConjunctive());
  ASSERT_EQ(stmt->where->children.size(), 3u);
  EXPECT_EQ(stmt->where->children[1].kind, Predicate::Kind::kOr);
}

TEST(ParserTest, JoinClause) {
  auto stmt = ParseSelect(
      "SELECT AVG(price) FROM fact JOIN dim ON fact.key = dim.id WHERE dim_col = 3");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_TRUE(stmt->join.has_value());
  EXPECT_EQ(stmt->join->table, "dim");
  EXPECT_EQ(stmt->join->left_column, "key");
  EXPECT_EQ(stmt->join->right_column, "id");
}

TEST(ParserTest, HavingClause) {
  auto stmt = ParseSelect(
      "SELECT city, COUNT(*) AS n FROM t GROUP BY city HAVING n > 10");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_TRUE(stmt->having.has_value());
  EXPECT_EQ(stmt->having->column, "n");
}

TEST(ParserTest, AbsoluteErrorBound) {
  auto stmt = ParseSelect(
      "SELECT AVG(x) FROM t ABSOLUTE ERROR WITHIN 5 AT CONFIDENCE 99%");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->bounds.kind, QueryBounds::Kind::kError);
  EXPECT_FALSE(stmt->bounds.relative);
  EXPECT_DOUBLE_EQ(stmt->bounds.error, 5.0);
  EXPECT_NEAR(stmt->bounds.confidence, 0.99, 1e-12);
}

TEST(ParserTest, ConfidenceWithoutPercentSign) {
  auto stmt = ParseSelect("SELECT AVG(x) FROM t ERROR WITHIN 10% AT CONFIDENCE 0.95");
  ASSERT_TRUE(stmt.ok());
  EXPECT_NEAR(stmt->bounds.confidence, 0.95, 1e-12);
  auto stmt2 = ParseSelect("SELECT AVG(x) FROM t ERROR WITHIN 10% AT CONFIDENCE 95");
  ASSERT_TRUE(stmt2.ok());
  EXPECT_NEAR(stmt2->bounds.confidence, 0.95, 1e-12);
}

TEST(ParserTest, TrailingSemicolonAccepted) {
  EXPECT_TRUE(ParseSelect("SELECT COUNT(*) FROM t;").ok());
}

TEST(ParserTest, SyntaxErrors) {
  EXPECT_FALSE(ParseSelect("").ok());
  EXPECT_FALSE(ParseSelect("SELECT FROM t").ok());
  EXPECT_FALSE(ParseSelect("SELECT COUNT(* FROM t").ok());
  EXPECT_FALSE(ParseSelect("SELECT COUNT(*) FROM").ok());
  EXPECT_FALSE(ParseSelect("SELECT COUNT(*) FROM t WHERE").ok());
  EXPECT_FALSE(ParseSelect("SELECT COUNT(*) FROM t WHERE x =").ok());
  EXPECT_FALSE(ParseSelect("SELECT COUNT(*) FROM t GROUP city").ok());
  EXPECT_FALSE(ParseSelect("SELECT COUNT(*) FROM t WITHIN SECONDS").ok());
  EXPECT_FALSE(ParseSelect("SELECT COUNT(*) FROM t trailing garbage").ok());
  EXPECT_FALSE(ParseSelect("SELECT QUANTILE(x, 1.5) FROM t").ok());
}

// "SELECT COUNT(*) FROM t WHERE ((...(x = 1)...))" at `depth` parentheses.
std::string NestedWhere(size_t depth) {
  return "SELECT COUNT(*) FROM t WHERE " + std::string(depth, '(') + "x = 1" +
         std::string(depth, ')');
}

// The parser recurses once per parenthesis, so nesting is bounded: before the
// bound, 10,000 levels (~20 KB of SQL) overflowed an 8 MB thread stack.
// Rejection happens at the first level past the bound, never deeper.
TEST(ParserTest, PredicateNestingIsBounded) {
  auto at_limit = ParseSelect(NestedWhere(kMaxPredicateNesting));
  ASSERT_TRUE(at_limit.ok()) << at_limit.status().ToString();
  ASSERT_TRUE(at_limit->where.has_value());
  EXPECT_EQ(at_limit->where->kind, Predicate::Kind::kCompare);
  EXPECT_EQ(at_limit->where->column, "x");

  for (size_t depth : {kMaxPredicateNesting + 1, size_t{10'000}, size_t{100'000}}) {
    auto deep = ParseSelect(NestedWhere(depth));
    ASSERT_FALSE(deep.ok()) << depth << " levels parsed";
    EXPECT_EQ(deep.status().code(), StatusCode::kInvalidArgument) << depth;
  }
  // The bound counts open parentheses, not their total: many shallow groups
  // side by side still parse.
  std::string wide = "SELECT COUNT(*) FROM t WHERE (x = 1)";
  for (size_t i = 0; i < 2 * kMaxPredicateNesting; ++i) {
    wide += " OR (x = 1)";
  }
  EXPECT_TRUE(ParseSelect(wide).ok());
}

TEST(ParserTest, TemplateColumnsFromWhereGroupByHaving) {
  auto stmt = ParseSelect(
      "SELECT COUNT(*) FROM t WHERE City = 'NY' AND Genre = 'a' "
      "GROUP BY OS HAVING URL = 'x'");
  ASSERT_TRUE(stmt.ok());
  // Sorted, lower-cased, deduplicated.
  const auto cols = stmt->TemplateColumns();
  ASSERT_EQ(cols.size(), 4u);
  EXPECT_EQ(cols[0], "city");
  EXPECT_EQ(cols[1], "genre");
  EXPECT_EQ(cols[2], "os");
  EXPECT_EQ(cols[3], "url");
}

TEST(ParserTest, TemplateColumnsDeduplicated) {
  auto stmt = ParseSelect(
      "SELECT COUNT(*) FROM t WHERE city = 'NY' OR city = 'SF' GROUP BY city");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->TemplateColumns().size(), 1u);
}

// --- Renderer -----------------------------------------------------------------

// Same tree with exact literals. Numbers compare as the doubles the predicate
// evaluator reads: an integral double re-parses as an int.
bool SamePredicate(const Predicate& a, const Predicate& b) {
  if (a.kind != b.kind || a.children.size() != b.children.size()) {
    return false;
  }
  if (a.kind == Predicate::Kind::kCompare) {
    if (a.column != b.column || a.op != b.op ||
        a.literal.is_string() != b.literal.is_string()) {
      return false;
    }
    return a.literal.is_string() ? a.literal.AsString() == b.literal.AsString()
                                 : a.literal.AsNumeric() == b.literal.AsNumeric();
  }
  for (size_t i = 0; i < a.children.size(); ++i) {
    if (!SamePredicate(a.children[i], b.children[i])) {
      return false;
    }
  }
  return true;
}

TEST(RenderTest, RenderParseRenderIsAFixedPointWithExactLiterals) {
  Rng rng(20'130'415);
  for (int i = 0; i < 500; ++i) {
    const std::string sql = testgen::RandomQuery(rng, /*allow_quantile=*/true);
    auto stmt = ParseSelect(sql);
    ASSERT_TRUE(stmt.ok()) << sql << ": " << stmt.status().ToString();
    for (RenderMode mode : {RenderMode::kFaithful, RenderMode::kCanonical}) {
      const std::string rendered = RenderSelect(*stmt, mode);
      auto reparsed = ParseSelect(rendered);
      ASSERT_TRUE(reparsed.ok()) << rendered << ": " << reparsed.status().ToString();
      EXPECT_EQ(RenderSelect(*reparsed, mode), rendered) << sql;
      if (mode == RenderMode::kFaithful) {
        EXPECT_TRUE(SamePredicate(*reparsed->where, *stmt->where)) << sql << "\n" << rendered;
      }
    }
  }
}

TEST(RenderTest, LiteralsRoundTripExactly) {
  // Bounds are how a statement is answered, not what it asks: never rendered.
  auto stmt = ParseSelect(
      "SELECT City, MEDIAN(x) AS m FROM T WHERE (b = 'it''s' OR a > 0.1) AND "
      "c <= 100000000000000000000.0 AND d < 0.00001 GROUP BY City WITHIN 2 SECONDS");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const std::string faithful =
      "SELECT City, QUANTILE(x, 0.5) AS m FROM T WHERE ((b = 'it''s' OR a > "
      "0.10000000000000001) AND c <= 100000000000000000000.0 AND d < "
      "0.00001000000000000000081803053914031309545862313825637102127075195312"
      "5) GROUP BY City";
  EXPECT_EQ(RenderSelect(*stmt), faithful);
  EXPECT_EQ(RenderSelect(*stmt, RenderMode::kCanonical),
            "SELECT city, QUANTILE(x, 0.5) AS m FROM t WHERE ((a > 0.10000000000000001 OR "
            "b = 'it''s') AND c <= 100000000000000000000.0 AND d < "
            "0.00001000000000000000081803053914031309545862313825637102127075195312"
            "5) GROUP BY city");
  // A value whose integer part alone runs to 301 digits still renders whole.
  const std::string huge = RenderSqlValue(Value(1e300));
  ASSERT_EQ(huge.size(), 303u);
  auto reparsed = ParseSelect("SELECT COUNT(*) FROM t WHERE x < " + huge);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->where->literal.AsDouble(), 1e300);
}

// --- Analyzer ----------------------------------------------------------------

Schema FactSchema() {
  return Schema({{"city", DataType::kString},
                 {"os", DataType::kString},
                 {"session_time", DataType::kDouble},
                 {"customer_id", DataType::kInt64}});
}

Schema DimSchema() {
  return Schema({{"id", DataType::kInt64}, {"region", DataType::kString}});
}

TEST(AnalyzerTest, ResolvesFactThenDim) {
  const Schema fact = FactSchema();
  const Schema dim = DimSchema();
  auto ref = ResolveColumn("region", fact, &dim);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(ref->side, TableSide::kDim);
  auto ref2 = ResolveColumn("CITY", fact, &dim);
  ASSERT_TRUE(ref2.ok());
  EXPECT_EQ(ref2->side, TableSide::kFact);
  EXPECT_FALSE(ResolveColumn("nope", fact, &dim).ok());
}

TEST(AnalyzerTest, ValidQueryPasses) {
  auto stmt = ParseSelect(
      "SELECT os, AVG(session_time) FROM s WHERE city = 'NY' GROUP BY os");
  ASSERT_TRUE(stmt.ok());
  EXPECT_TRUE(ValidateQuery(*stmt, FactSchema(), nullptr).ok());
}

TEST(AnalyzerTest, UnknownColumnRejected) {
  auto stmt = ParseSelect("SELECT AVG(nope) FROM s");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(ValidateQuery(*stmt, FactSchema(), nullptr).code(), StatusCode::kNotFound);
}

TEST(AnalyzerTest, StringAggregateRejected) {
  auto stmt = ParseSelect("SELECT SUM(city) FROM s");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(ValidateQuery(*stmt, FactSchema(), nullptr).code(),
            StatusCode::kInvalidArgument);
}

TEST(AnalyzerTest, NonGroupedPassthroughRejected) {
  auto stmt = ParseSelect("SELECT city, COUNT(*) FROM s");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(ValidateQuery(*stmt, FactSchema(), nullptr).code(),
            StatusCode::kInvalidArgument);
}

TEST(AnalyzerTest, TypeMismatchInPredicateRejected) {
  auto stmt = ParseSelect("SELECT COUNT(*) FROM s WHERE city = 3");
  ASSERT_TRUE(stmt.ok());
  EXPECT_FALSE(ValidateQuery(*stmt, FactSchema(), nullptr).ok());
  auto stmt2 = ParseSelect("SELECT COUNT(*) FROM s WHERE session_time = 'x'");
  ASSERT_TRUE(stmt2.ok());
  EXPECT_FALSE(ValidateQuery(*stmt2, FactSchema(), nullptr).ok());
}

TEST(AnalyzerTest, StringInequalityRejected) {
  auto stmt = ParseSelect("SELECT COUNT(*) FROM s WHERE city < 'NY'");
  ASSERT_TRUE(stmt.ok());
  EXPECT_FALSE(ValidateQuery(*stmt, FactSchema(), nullptr).ok());
}

TEST(AnalyzerTest, JoinValidation) {
  auto stmt = ParseSelect(
      "SELECT AVG(session_time) FROM s JOIN d ON customer_id = id");
  ASSERT_TRUE(stmt.ok());
  const Schema fact = FactSchema();
  const Schema dim = DimSchema();
  EXPECT_TRUE(ValidateQuery(*stmt, fact, &dim).ok());
  // Without a dim schema, the join must be rejected.
  EXPECT_FALSE(ValidateQuery(*stmt, fact, nullptr).ok());
}

TEST(AnalyzerTest, SelectItemNames) {
  auto stmt = ParseSelect(
      "SELECT COUNT(*), SUM(session_time) AS total, QUANTILE(session_time, 0.9) FROM s");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(SelectItemName(stmt->items[0]), "COUNT(*)");
  EXPECT_EQ(SelectItemName(stmt->items[1]), "total");
  EXPECT_EQ(SelectItemName(stmt->items[2]).substr(0, 9), "QUANTILE(");
}

}  // namespace
}  // namespace blink
