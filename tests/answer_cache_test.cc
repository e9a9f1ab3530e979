// Answer cache units: key semantics, bounded sharded LRU behavior, and the
// canonical-predicate property the key rests on.
//
//  - Keys: everything that determines the answer or the scan decomposition
//    (table + generation, morsel size, storage flags, select/group shape,
//    canonical WHERE) lands in the key; the error bound and confidence are
//    deliberately absent (one snapshot serves every bound).
//  - LRU: capacity is enforced per shard, lookups refresh recency, inserts
//    replace in place, and concurrent mixed traffic is safe (exercised under
//    TSan by scripts/check.sh).
//  - Canonicalization property (seeded generator from tests/query_gen.h):
//    predicates equal modulo AND/OR operand order canonicalize identically;
//    predicates that canonicalize identically are semantically identical on
//    a concrete table (row-by-row differential against CompiledPredicate).
//  - Catalog generations: every mutation path a query could observe bumps
//    the per-table counter the cache keys on.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/api/blinkdb.h"
#include "src/cache/answer_cache.h"
#include "src/exec/predicate.h"
#include "src/sql/parser.h"
#include "src/sql/sql_render.h"
#include "src/util/rng.h"
#include "src/workload/conviva.h"
#include "tests/query_gen.h"

namespace blink {
namespace {

SelectStatement MustParse(const std::string& sql) {
  auto stmt = ParseSelect(sql);
  EXPECT_TRUE(stmt.ok()) << sql << ": " << stmt.status().ToString();
  return std::move(stmt.value());
}

std::string KeyOf(const std::string& sql, uint64_t generation = 7,
                  uint32_t morsel_rows = 512, bool compressed = false,
                  bool views = false) {
  return AnswerCacheKey(MustParse(sql), generation, morsel_rows, compressed, views);
}

// --- Key semantics -----------------------------------------------------------

TEST(AnswerCacheKeyTest, BoundAndConfidenceAreExcluded) {
  const std::string base = "SELECT COUNT(*) FROM t WHERE a = 3";
  const std::string key = KeyOf(base);
  // Any error bound at any confidence shares the snapshot: error-bounded
  // streamed scans consume the family's largest resolution in prefix order,
  // so the consumed prefix is bound-independent.
  EXPECT_EQ(KeyOf(base + " ERROR WITHIN 1% AT CONFIDENCE 95%"), key);
  EXPECT_EQ(KeyOf(base + " ERROR WITHIN 10% AT CONFIDENCE 99%"), key);
  EXPECT_EQ(KeyOf(base + " ERROR WITHIN 0.01% AT CONFIDENCE 90%"), key);
}

TEST(AnswerCacheKeyTest, AnswerShapeAndScanDecompositionAreIncluded) {
  const std::string base = "SELECT COUNT(*) FROM t WHERE a = 3";
  const std::string key = KeyOf(base);
  // Different answer: aggregates, grouping, predicate, table.
  EXPECT_NE(KeyOf("SELECT SUM(v) FROM t WHERE a = 3"), key);
  EXPECT_NE(KeyOf("SELECT COUNT(*), AVG(v) FROM t WHERE a = 3"), key);
  EXPECT_NE(KeyOf("SELECT s, COUNT(*) FROM t WHERE a = 3 GROUP BY s"), key);
  EXPECT_NE(KeyOf("SELECT COUNT(*) FROM t WHERE a = 4"), key);
  EXPECT_NE(KeyOf("SELECT COUNT(*) FROM u WHERE a = 3"), key);
  // Literals are keyed exactly: doubles that differ past the sixth decimal.
  EXPECT_NE(KeyOf("SELECT COUNT(*) FROM t WHERE v <= 1000.0000001"),
            KeyOf("SELECT COUNT(*) FROM t WHERE v <= 1000.0000004"));
  // Different scan decomposition: generation, morsel size, storage path.
  EXPECT_NE(KeyOf(base, /*generation=*/8), key);
  EXPECT_NE(KeyOf(base, 7, /*morsel_rows=*/1024), key);
  EXPECT_NE(KeyOf(base, 7, 512, /*compressed=*/true), key);
  EXPECT_NE(KeyOf(base, 7, 512, true, /*views=*/true), key);
}

TEST(AnswerCacheKeyTest, PredicateOrderDoesNotChangeTheKey) {
  EXPECT_EQ(KeyOf("SELECT COUNT(*) FROM t WHERE a = 3 AND v < 10"),
            KeyOf("SELECT COUNT(*) FROM t WHERE v < 10 AND a = 3"));
  EXPECT_EQ(KeyOf("SELECT COUNT(*) FROM t WHERE a = 1 OR (v < 2 AND u > 0.5)"),
            KeyOf("SELECT COUNT(*) FROM t WHERE (u > 0.5 AND v < 2) OR a = 1"));
}

// --- LRU ---------------------------------------------------------------------

std::shared_ptr<const CacheEntry> Entry(uint64_t blocks) {
  auto entry = std::make_shared<CacheEntry>();
  entry->blocks_consumed = blocks;
  return entry;
}

TEST(AnswerCacheTest, EvictsLeastRecentlyUsedAtCapacity) {
  AnswerCache cache(/*capacity=*/3, /*num_shards=*/1);
  cache.Insert("k1", Entry(1));
  cache.Insert("k2", Entry(2));
  cache.Insert("k3", Entry(3));
  ASSERT_NE(cache.Lookup("k1"), nullptr);  // refresh: k2 is now the LRU tail
  cache.Insert("k4", Entry(4));
  EXPECT_EQ(cache.Lookup("k2"), nullptr);
  ASSERT_NE(cache.Lookup("k1"), nullptr);
  ASSERT_NE(cache.Lookup("k3"), nullptr);
  ASSERT_NE(cache.Lookup("k4"), nullptr);
  EXPECT_EQ(cache.size(), 3u);
  const AnswerCacheStats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 4u);
  EXPECT_EQ(stats.evictions, 1u);
}

TEST(AnswerCacheTest, InsertReplacesInPlace) {
  AnswerCache cache(/*capacity=*/2, /*num_shards=*/1);
  cache.Insert("k", Entry(10));
  cache.Insert("k", Entry(20));  // a resumed run re-inserts a refreshed entry
  EXPECT_EQ(cache.size(), 1u);
  auto entry = cache.Lookup("k");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->blocks_consumed, 20u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(AnswerCacheTest, CapacitySpreadsAcrossShards) {
  AnswerCache cache(/*capacity=*/16, /*num_shards=*/4);
  for (int i = 0; i < 64; ++i) {
    cache.Insert("key_" + std::to_string(i), Entry(static_cast<uint64_t>(i)));
  }
  // Per-shard bounds are capacity/shards rounded up; the total never
  // exceeds one extra entry per shard.
  EXPECT_LE(cache.size(), 16u + 4u);
  EXPECT_GE(cache.stats().evictions, 64u - (16u + 4u));
}

// Concurrent mixed traffic over the sharded LRU; scripts/check.sh runs this
// under TSan. Assertions are deliberately weak — the point is the absence of
// races, not a specific interleaving.
TEST(AnswerCacheTest, ConcurrentLookupsAndInsertsAreSafe) {
  AnswerCache cache(/*capacity=*/32, /*num_shards=*/8);
  std::vector<std::thread> threads;
  for (int worker = 0; worker < 8; ++worker) {
    threads.emplace_back([&cache, worker] {
      for (int i = 0; i < 500; ++i) {
        const std::string key = "key_" + std::to_string((worker * 31 + i) % 64);
        if (i % 3 == 0) {
          cache.Insert(key, Entry(static_cast<uint64_t>(i)));
        } else if (auto entry = cache.Lookup(key)) {
          EXPECT_LT(entry->blocks_consumed, 500u);
        }
        cache.RecordOutcome(i % 2 == 0 ? CacheOutcome::kMiss : CacheOutcome::kHit);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_LE(cache.size(), 32u + 8u);
  const AnswerCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, 8u * 500u);
}

// --- Canonical predicate property --------------------------------------------

// Recursively shuffles AND/OR operand order — a semantics-preserving
// transformation canonicalization must erase.
Predicate ShuffleChildren(const Predicate& pred, Rng& rng) {
  Predicate out = pred;
  if (out.kind != Predicate::Kind::kCompare) {
    for (Predicate& child : out.children) {
      child = ShuffleChildren(child, rng);
    }
    for (size_t i = out.children.size(); i > 1; --i) {
      std::swap(out.children[i - 1], out.children[rng.NextBounded(i)]);
    }
  }
  return out;
}

std::string Canonical(const Predicate& pred) {
  return RenderPredicate(pred, RenderMode::kCanonical);
}

// Row-by-row truth table of `pred` over `fact` — the semantic identity of
// the predicate on this table.
std::string Signature(const Predicate& pred, const Table& fact) {
  auto compiled = CompiledPredicate::Compile(pred, fact, nullptr);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  std::string bits(fact.num_rows(), '0');
  for (uint64_t row = 0; row < fact.num_rows(); ++row) {
    if (compiled->Matches(row, 0)) {
      bits[row] = '1';
    }
  }
  return bits;
}

TEST(CanonicalPredicateTest, EqualModuloOrderCanonicalizesIdentically) {
  const Table fact = testgen::MakeFact(2'000);
  Rng rng(271'828);
  for (int i = 0; i < 200; ++i) {
    const std::string sql =
        "SELECT COUNT(*) FROM t WHERE " + testgen::RandomPredicate(rng, 4);
    const SelectStatement stmt = MustParse(sql);
    ASSERT_TRUE(stmt.where.has_value()) << sql;
    const Predicate shuffled = ShuffleChildren(*stmt.where, rng);
    EXPECT_EQ(Canonical(shuffled), Canonical(*stmt.where)) << sql;
    // Sanity: the shuffle really did preserve semantics.
    EXPECT_EQ(Signature(shuffled, fact), Signature(*stmt.where, fact)) << sql;
  }
}

TEST(CanonicalPredicateTest, DistinctSemanticsNeverCollide) {
  // Contrapositive form of "semantically distinct predicates never
  // canonicalize identically": every pair of generated predicates that DOES
  // share a canonical string must agree row-by-row on a concrete table.
  const Table fact = testgen::MakeFact(2'000);
  Rng rng(314'159);
  std::map<std::string, std::pair<std::string, std::string>> by_canonical;
  int collisions = 0;
  // Seeded pairs first: one quoted string literal that spells the other
  // predicate's last two disjuncts, and doubles that differ only past the
  // sixth decimal — both once rendered alike.
  std::vector<std::string> predicates = {
      "a = 3 OR s = 's_1' OR s = 's_2'", "s = 's_1'' OR s = ''s_2' OR a = 3",
      "v <= 50.0000001", "v <= 50.0000004"};
  for (int i = 0; i < 400; ++i) {
    predicates.push_back(testgen::RandomPredicate(rng, 4));
  }
  for (const std::string& predicate_sql : predicates) {
    const SelectStatement stmt =
        MustParse("SELECT COUNT(*) FROM t WHERE " + predicate_sql);
    ASSERT_TRUE(stmt.where.has_value()) << predicate_sql;
    const std::string canonical = Canonical(*stmt.where);
    const std::string signature = Signature(*stmt.where, fact);
    auto [it, inserted] =
        by_canonical.emplace(canonical, std::make_pair(signature, predicate_sql));
    if (!inserted) {
      ++collisions;
      EXPECT_EQ(it->second.first, signature)
          << "canonical collision with different semantics:\n  "
          << it->second.second << "\n  " << predicate_sql;
    }
  }
  // Distinct leaves must not collapse: spot-check obvious near-misses, and
  // the seeded pairs (the decimal pair selects the same rows of this table,
  // so the collision check above cannot see it).
  const auto canonical_where = [](const std::string& where) {
    return Canonical(*MustParse("SELECT COUNT(*) FROM t WHERE " + where).where);
  };
  EXPECT_NE(canonical_where("a = 1"), canonical_where("a = 2"));
  EXPECT_NE(canonical_where("a = 1"), canonical_where("a != 1"));
  EXPECT_NE(canonical_where("a = 1 AND v < 2"), canonical_where("a = 1 OR v < 2"));
  for (size_t i = 0; i < 4; i += 2) {
    EXPECT_NE(canonical_where(predicates[i]), canonical_where(predicates[i + 1]))
        << predicates[i];
  }
}

// --- Catalog generations -----------------------------------------------------

TEST(CatalogGenerationTest, EveryMutationPathBumpsTheGeneration) {
  Catalog catalog;
  Table t = testgen::MakeFact(256);
  ASSERT_TRUE(catalog.AddTable("t", t, 1.0).ok());
  const TableEntry* entry = catalog.Find("t");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->generation, 0u);

  ASSERT_TRUE(catalog.ReplaceTable("t", t).ok());
  EXPECT_EQ(entry->generation, 1u);
  ASSERT_TRUE(catalog.CompressTable("t").ok());
  EXPECT_EQ(entry->generation, 2u);
  EXPECT_EQ(catalog.BumpGeneration("t"), 3u);
  EXPECT_EQ(entry->generation, 3u);
  // Replacement of a compressed table stays compressed and still bumps.
  ASSERT_TRUE(catalog.ReplaceTable("t", t).ok());
  EXPECT_EQ(entry->generation, 4u);
  EXPECT_TRUE(entry->compressed);
  // Unknown tables bump nothing.
  EXPECT_EQ(catalog.BumpGeneration("nope"), 0u);
}

TEST(CatalogGenerationTest, BlinkDbMutationsBumpTheServedGeneration) {
  BlinkDB db;
  ConvivaConfig data;
  data.num_rows = 4'000;
  data.num_cities = 20;
  data.num_urls = 50;
  ASSERT_TRUE(db.RegisterTable("sessions", GenerateConvivaTable(data), 1e6).ok());
  const TableEntry* entry = db.catalog().Find("sessions");
  ASSERT_NE(entry, nullptr);
  const uint64_t start = entry->generation;

  PlannerConfig planner;
  planner.budget_fraction = 0.5;
  planner.cap_k = 100;
  planner.max_columns_per_set = 1;
  ASSERT_TRUE(db.BuildSamples("sessions", ConvivaTemplates(), planner).ok());
  const uint64_t after_samples = entry->generation;
  EXPECT_GT(after_samples, start) << "BuildSamples must invalidate cached answers";

  ASSERT_TRUE(db.CompressStorage("sessions").ok());
  const uint64_t after_compress = entry->generation;
  EXPECT_GT(after_compress, after_samples)
      << "CompressStorage changes the scan decomposition";

  ConvivaConfig more = data;
  more.num_rows = 500;
  more.rng_seed += 1;
  auto maintained = db.AppendAndMaintain("sessions", GenerateConvivaTable(more));
  ASSERT_TRUE(maintained.ok()) << maintained.status().ToString();
  EXPECT_GT(entry->generation, after_compress)
      << "AppendAndMaintain changes the answers themselves";
}

}  // namespace
}  // namespace blink
