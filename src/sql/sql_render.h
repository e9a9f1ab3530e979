// The one statement renderer: parsed statements and predicates back to SQL
// text of the dialect.
//
// Every literal is rendered exactly: doubles with enough digits to reproduce
// the same bit pattern after the lexer's strtod (and never in exponent form,
// which the lexer does not accept), strings with embedded quotes escaped by
// the '' convention. The bounds clause (ERROR WITHIN / WITHIN n SECONDS) is
// never rendered: it says how to answer, not what, and each caller owns it —
// the coordinator paces its workers itself, and one cached answer serves
// every bound. Two modes share that rendering:
//   - kFaithful keeps the statement's order and spelling, so the text
//     re-parses to an equivalent statement with bit-identical literals. The
//     coordinator scatters this text to its workers.
//   - kCanonical names the answer a statement asks for: AND/OR children are
//     sorted, and the table, join, select-list and GROUP BY identifiers are
//     lower-cased (aliases and predicate columns keep their case). Statements
//     that render equal ask for the same answer; the answer cache keys on
//     this text and the DNF rewrite drops duplicate disjuncts with it.
#ifndef BLINKDB_SQL_SQL_RENDER_H_
#define BLINKDB_SQL_SQL_RENDER_H_

#include <string>

#include "src/sql/ast.h"
#include "src/storage/value.h"

namespace blink {

enum class RenderMode { kFaithful, kCanonical };

// A literal: an int; a double rendered so the lexer's strtod reproduces it
// bit-exactly (%.17g when that stays in plain decimal, else the exact
// fixed-point expansion every finite double has); or a 'quoted' string with
// embedded quotes doubled ('' — the lexer's escape). A parsed statement
// carries only finite, non-negative numbers (the dialect has no unary
// minus); negative and non-finite doubles still render at full precision,
// for display, but do not lex.
std::string RenderSqlValue(const Value& v);

std::string RenderPredicate(const Predicate& pred, RenderMode mode);

// Renders `stmt` without its bounds clause.
std::string RenderSelect(const SelectStatement& stmt,
                         RenderMode mode = RenderMode::kFaithful);

}  // namespace blink

#endif  // BLINKDB_SQL_SQL_RENDER_H_
