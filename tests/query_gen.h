// Seeded random table/query generator shared by the randomized suites
// (tests/fuzz_differential_test.cc, tests/answer_cache_test.cc,
// tests/cache_resume_test.cc). Everything is a pure function of the caller's
// Rng, so each suite picks its own seed and stays reproducible.
#ifndef BLINKDB_TESTS_QUERY_GEN_H_
#define BLINKDB_TESTS_QUERY_GEN_H_

#include <cstdint>
#include <string>

#include "src/sql/sql_render.h"
#include "src/storage/table.h"
#include "src/util/rng.h"

namespace blink {
namespace testgen {

// A small mixed-type fact table: a (10 distinct ints), v (doubles in
// [0, 100)), s (12 distinct strings), u (uniform doubles in [0, 1)).
inline Table MakeFact(uint64_t rows = 16'000) {
  Table t(Schema({{"a", DataType::kInt64},
                  {"v", DataType::kDouble},
                  {"s", DataType::kString},
                  {"u", DataType::kDouble}}));
  t.Reserve(rows);
  Rng rng(62'003);
  for (uint64_t i = 0; i < rows; ++i) {
    t.AppendInt(0, static_cast<int64_t>(rng.NextBounded(10)));
    t.AppendDouble(1, rng.NextDouble() * 100.0);
    t.AppendString(2, "s_" + std::to_string(rng.NextBounded(12)));
    t.AppendDouble(3, rng.NextDouble());
    t.CommitRow();
  }
  return t;
}

// A batch of freshly-arrived rows with MakeFact()'s schema and per-column
// distributions, drawn from the caller's Rng — the ingest suites' append
// payloads. Same rng state + same `rows` → bit-identical batch, which is
// what lets two BlinkDB instances replay an append sequence into identical
// leveled stores.
inline Table MakeArrivalBatch(Rng& rng, uint64_t rows) {
  Table t(Schema({{"a", DataType::kInt64},
                  {"v", DataType::kDouble},
                  {"s", DataType::kString},
                  {"u", DataType::kDouble}}));
  t.Reserve(rows);
  for (uint64_t i = 0; i < rows; ++i) {
    t.AppendInt(0, static_cast<int64_t>(rng.NextBounded(10)));
    t.AppendDouble(1, rng.NextDouble() * 100.0);
    t.AppendString(2, "s_" + std::to_string(rng.NextBounded(12)));
    t.AppendDouble(3, rng.NextDouble());
    t.CommitRow();
  }
  return t;
}

// One comparison leaf. Double literals carry every digit of the drawn value,
// and one string draw in 13 is a literal with embedded quotes that spells a
// predicate of its own, so the suites reach the literals a lossy rendering
// would confuse.
inline std::string RandomLeaf(Rng& rng) {
  static const char* ops[] = {"=", "!=", "<", "<=", ">", ">="};
  switch (rng.NextBounded(4)) {
    case 0:
      return "a " + std::string(ops[rng.NextBounded(6)]) + " " +
             std::to_string(rng.NextBounded(10));
    case 1: {
      const std::string op = ops[rng.NextBounded(6)];
      return "v " + op + " " + RenderSqlValue(Value(rng.NextDouble() * 100.0));
    }
    case 2: {
      const std::string op = rng.NextBernoulli(0.5) ? "<" : ">";
      return "u " + op + " " + RenderSqlValue(Value(rng.NextDouble()));
    }
    default: {
      const std::string op = rng.NextBernoulli(0.5) ? "=" : "!=";
      const uint64_t k = rng.NextBounded(13);
      const std::string literal = k < 12 ? "s_" + std::to_string(k) : "s_1' OR s = 's_2";
      return "s " + op + " " + RenderSqlValue(Value(literal));
    }
  }
}

// Up to `max_disjuncts` disjuncts, each a conjunction of 1-2 leaves.
inline std::string RandomPredicate(Rng& rng, uint64_t max_disjuncts) {
  const uint64_t disjuncts = 1 + rng.NextBounded(max_disjuncts);
  std::string sql;
  for (uint64_t d = 0; d < disjuncts; ++d) {
    if (d > 0) {
      sql += " OR ";
    }
    if (rng.NextBernoulli(0.3)) {
      sql += "(" + RandomLeaf(rng) + " AND " + RandomLeaf(rng) + ")";
    } else {
      sql += RandomLeaf(rng);
    }
  }
  return sql;
}

// A full SELECT over MakeFact()'s schema spanning the planner's surface:
// optional GROUP BY, 1-3 aggregates (COUNT / SUM / AVG, plus MEDIAN when
// `allow_quantile`), and a random WHERE of up to 4 disjuncts.
inline std::string RandomQuery(Rng& rng, bool allow_quantile) {
  static const char* aggs[] = {"COUNT(*)", "SUM(v)", "AVG(v)", "MEDIAN(v)"};
  static const char* groups[] = {"", "s", "a"};
  const std::string group = groups[rng.NextBounded(3)];
  std::string sql = "SELECT ";
  if (!group.empty()) {
    sql += group + ", ";
  }
  const int num_aggs = 1 + static_cast<int>(rng.NextBounded(3));
  for (int i = 0; i < num_aggs; ++i) {
    if (i > 0) {
      sql += ", ";
    }
    sql += aggs[rng.NextBounded(allow_quantile ? 4 : 3)];
  }
  sql += " FROM t WHERE " + RandomPredicate(rng, 4);
  if (!group.empty()) {
    sql += " GROUP BY " + group;
  }
  return sql;
}

}  // namespace testgen
}  // namespace blink

#endif  // BLINKDB_TESTS_QUERY_GEN_H_
