// Recursive-descent parser for the BlinkDB SQL dialect.
//
// Grammar (keywords case-insensitive):
//   SELECT item ("," item)* FROM table [JOIN t ON a = b]
//     [WHERE predicate] [GROUP BY col ("," col)*] [HAVING predicate]
//     [ERROR WITHIN num ["%"] AT CONFIDENCE num ["%"] | WITHIN num SECONDS]
//   item := COUNT "(" ("*" | col) ")" | (SUM|AVG|MEAN) "(" col ")"
//         | MEDIAN "(" col ")" | (QUANTILE|PERCENTILE) "(" col "," num ")"
//         | col | [RELATIVE|ABSOLUTE] ERROR AT num "%" CONFIDENCE
//   predicate := and_expr (OR and_expr)* ; and_expr := prim (AND prim)*
//   prim := "(" predicate ")" | col (=|!=|<|<=|>|>=) literal
#ifndef BLINKDB_SQL_PARSER_H_
#define BLINKDB_SQL_PARSER_H_

#include <cstddef>
#include <string_view>

#include "src/sql/ast.h"
#include "src/util/status.h"

namespace blink {

// Deepest parenthesis nesting a predicate may have. The parser recurses once
// per level, so without a bound one hostile WHERE (10,000 levels is ~20 KB of
// SQL) overflows the parsing thread's stack and kills the server; 256 is far
// past any hand-written query.
constexpr size_t kMaxPredicateNesting = 256;

// Parses one SELECT statement. Returns InvalidArgument with a position-tagged
// message on syntax errors and on nesting past kMaxPredicateNesting.
Result<SelectStatement> ParseSelect(std::string_view sql);

}  // namespace blink

#endif  // BLINKDB_SQL_PARSER_H_
