// Abstract syntax for the BlinkDB SQL dialect (§2 of the paper): HiveQL-style
// aggregation queries extended with error bounds
//   ... ERROR WITHIN 10% AT CONFIDENCE 95%
// and response-time bounds
//   ... WITHIN 5 SECONDS
#ifndef BLINKDB_SQL_AST_H_
#define BLINKDB_SQL_AST_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/storage/value.h"

namespace blink {

// Aggregate functions with closed-form error estimates (paper Table 2).
// MEDIAN is QUANTILE with p = 0.5; MEAN is an alias of AVG.
enum class AggFunc { kCount, kSum, kAvg, kQuantile };

const char* AggFuncName(AggFunc f);

// One aggregate call, e.g. SUM(session_time) or QUANTILE(latency, 0.99).
struct AggExpr {
  AggFunc func = AggFunc::kCount;
  bool count_star = false;   // COUNT(*)
  std::string column;        // argument column (empty for COUNT(*))
  double quantile_p = 0.5;   // for kQuantile
};

// Comparison operators allowed in predicates.
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CompareOpName(CompareOp op);

// A boolean predicate tree over comparisons of a column with a literal.
// The paper distinguishes conjunctive and disjunctive WHERE clauses (§4.1);
// the runtime rewrites disjunctions into unions of conjunctive queries.
struct Predicate {
  enum class Kind { kCompare, kAnd, kOr };
  Kind kind = Kind::kCompare;

  // kCompare payload.
  std::string column;
  CompareOp op = CompareOp::kEq;
  Value literal;

  // kAnd / kOr payload.
  std::vector<Predicate> children;

  static Predicate Compare(std::string col, CompareOp cmp, Value lit);
  static Predicate And(std::vector<Predicate> kids);
  static Predicate Or(std::vector<Predicate> kids);

  // Collects the distinct column names referenced by this predicate.
  void CollectColumns(std::vector<std::string>& out) const;

  // True if no kOr node appears anywhere in the tree.
  bool IsConjunctive() const;
};

// JOIN <table> ON <left.col> = <right.col> (single equi-join; §2.1 allows
// joins where the dimension side fits in memory or a stratified sample
// covers the join key).
struct JoinClause {
  std::string table;
  std::string left_column;   // column of the FROM table
  std::string right_column;  // column of the joined table
};

// The user's accuracy or latency requirement attached to a query.
struct QueryBounds {
  enum class Kind { kNone, kError, kTime };
  Kind kind = Kind::kNone;
  // kError: target relative (fraction, e.g. 0.10) or absolute error.
  double error = 0.0;
  bool relative = true;
  double confidence = 0.95;
  // kTime: response-time budget in (simulated cluster) seconds.
  double time_seconds = 0.0;
};

// One item of the SELECT list: a group-by column passthrough or an aggregate.
struct SelectItem {
  bool is_aggregate = false;
  std::string column;  // passthrough column name (when !is_aggregate)
  AggExpr agg;         // aggregate (when is_aggregate)
  std::string alias;   // optional AS alias
};

// A parsed SELECT statement.
struct SelectStatement {
  std::vector<SelectItem> items;
  std::string table;
  std::optional<JoinClause> join;
  std::optional<Predicate> where;
  std::vector<std::string> group_by;
  std::optional<Predicate> having;
  QueryBounds bounds;
  // If true the query requested error reporting columns explicitly
  // (e.g. "SELECT COUNT(*), RELATIVE ERROR AT 95% CONFIDENCE ...").
  bool report_error_columns = false;

  // The query template (§2.1 "Workload Characteristics"): the set of columns
  // appearing in WHERE, GROUP BY, and HAVING clauses, deduplicated and
  // lower-cased. HAVING columns count as WHERE columns (paper footnote 5).
  std::vector<std::string> TemplateColumns() const;
};

}  // namespace blink

#endif  // BLINKDB_SQL_AST_H_
