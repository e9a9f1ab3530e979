#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "src/util/rng.h"
#include "src/util/status.h"
#include "src/util/string_util.h"
#include "src/util/thread_pool.h"

namespace blink {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("table t");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "table t");
  EXPECT_EQ(s.ToString(), "NotFound: table t");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (auto code : {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
                    StatusCode::kFailedPrecondition, StatusCode::kUnimplemented,
                    StatusCode::kInternal, StatusCode::kResourceExhausted,
                    StatusCode::kInfeasible}) {
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  // A class-type value: GCC 12 reports a false -Wmaybe-uninitialized for
  // status() on a Result<int> holding a value.
  Result<std::string> r(std::string("forty-two"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "forty-two");
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::InvalidArgument("bad"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBoundedInRange) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, NextBoundedApproximatelyUniform) {
  Rng rng(11);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100'000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kDraws; ++i) {
    counts[rng.NextBounded(kBuckets)]++;
  }
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, 500);  // ~5 sigma
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(5);
  double sum = 0;
  for (int i = 0; i < 100'000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 100'000, 0.5, 0.01);
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(13);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(17);
  int hits = 0;
  constexpr int kDraws = 100'000;
  for (int i = 0; i < kDraws; ++i) {
    hits += rng.NextBernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.3, 0.01);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(19);
  EXPECT_FALSE(rng.NextBernoulli(0.0));
  EXPECT_FALSE(rng.NextBernoulli(-1.0));
  EXPECT_TRUE(rng.NextBernoulli(1.0));
  EXPECT_TRUE(rng.NextBernoulli(2.0));
}

TEST(RngTest, GaussianMoments) {
  Rng rng(23);
  double sum = 0.0;
  double sum_sq = 0.0;
  constexpr int kDraws = 200'000;
  for (int i = 0; i < kDraws; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / kDraws, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / kDraws, 1.0, 0.03);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(29);
  auto sample = rng.SampleWithoutReplacement(1000, 100);
  EXPECT_EQ(sample.size(), 100u);
  std::set<uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 100u);
  for (uint64_t v : sample) {
    EXPECT_LT(v, 1000u);
  }
}

TEST(RngTest, SampleWithoutReplacementFullSet) {
  Rng rng(31);
  auto sample = rng.SampleWithoutReplacement(50, 50);
  std::set<uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 50u);
}

TEST(RngTest, SampleWithoutReplacementSmallK) {
  Rng rng(37);
  // Exercises the hash-set rejection path (k << n).
  auto sample = rng.SampleWithoutReplacement(1'000'000, 10);
  std::set<uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(41);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto original = v;
  rng.Shuffle(v);
  EXPECT_NE(v, original);  // astronomically unlikely to be equal
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng a(43);
  Rng child = a.Split();
  // The child stream should not replay the parent stream.
  Rng b(43);
  b.Split();
  EXPECT_EQ(child.NextUint64(), Rng(Rng(43).NextUint64()).NextUint64());
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&hits](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, ParallelForEmpty) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](size_t) { FAIL(); });
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Submit([&] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(StringUtilTest, CaseConversion) {
  EXPECT_EQ(AsciiToLower("SeLeCt"), "select");
}

TEST(StringUtilTest, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("GROUP", "group"));
  EXPECT_TRUE(EqualsIgnoreCase("", ""));
  EXPECT_FALSE(EqualsIgnoreCase("a", "ab"));
  EXPECT_FALSE(EqualsIgnoreCase("abc", "abd"));
}

TEST(StringUtilTest, SplitAndJoin) {
  auto pieces = Split("a,b,,c", ',');
  ASSERT_EQ(pieces.size(), 4u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[2], "");
  EXPECT_EQ(Join({"x", "y", "z"}, ", "), "x, y, z");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace("   "), "");
}

TEST(StringUtilTest, HumanFormats) {
  EXPECT_EQ(HumanBytes(512), "512.00 B");
  EXPECT_EQ(HumanBytes(1536), "1.50 KB");
  EXPECT_EQ(HumanSeconds(0.0005), "500.0 us");
  EXPECT_EQ(HumanSeconds(0.5), "500.0 ms");
  EXPECT_EQ(HumanSeconds(2.0), "2.00 s");
  EXPECT_EQ(HumanSeconds(300.0), "5.0 min");
}

}  // namespace
}  // namespace blink
