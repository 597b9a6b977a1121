#include "common/random.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

namespace ampc {
namespace {

TEST(Mix64Test, DeterministicAndDispersive) {
  EXPECT_EQ(Mix64(1), Mix64(1));
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < 10000; ++i) seen.insert(Mix64(i));
  EXPECT_EQ(seen.size(), 10000u);
}

TEST(Hash64Test, SeedSeparatesStreams) {
  EXPECT_NE(Hash64(7, 1), Hash64(7, 2));
  EXPECT_EQ(Hash64(7, 1), Hash64(7, 1));
}

TEST(HashEdgeTest, SymmetricInEndpoints) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    EXPECT_EQ(HashEdge(3, 9, seed), HashEdge(9, 3, seed));
    EXPECT_NE(HashEdge(3, 9, seed), HashEdge(3, 10, seed));
  }
}

TEST(ToUnitDoubleTest, RangeIsHalfOpen) {
  EXPECT_GE(ToUnitDouble(0), 0.0);
  EXPECT_LT(ToUnitDouble(~0ULL), 1.0);
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double d = ToUnitDouble(rng.Next());
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123), c(124);
  bool all_equal_c = true;
  for (int i = 0; i < 100; ++i) {
    const uint64_t va = a.Next();
    EXPECT_EQ(va, b.Next());
    if (va != c.Next()) all_equal_c = false;
  }
  EXPECT_FALSE(all_equal_c);
}

TEST(RngTest, NextBelowIsInRange) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
  EXPECT_EQ(rng.NextBelow(0), 0u);
  EXPECT_EQ(rng.NextBelow(1), 0u);
}

TEST(RngTest, NextBelowIsRoughlyUniform) {
  Rng rng(99);
  std::map<uint64_t, int> counts;
  const int kTrials = 64000;
  for (int i = 0; i < kTrials; ++i) ++counts[rng.NextBelow(8)];
  for (const auto& [value, count] : counts) {
    EXPECT_NEAR(count, kTrials / 8, kTrials / 80) << "value " << value;
  }
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(7);
  int hits = 0;
  const int kTrials = 100000;
  for (int i = 0; i < kTrials; ++i) hits += rng.NextBernoulli(0.25);
  EXPECT_NEAR(hits, kTrials / 4, kTrials / 50);
}

TEST(RngTest, JumpMatchesStepping) {
  // Whole R-MAT chunk strides at 18 and 31 levels, and a large prime.
  const uint64_t distances[] = {0,
                                1,
                                255,
                                256,
                                257,
                                (uint64_t{1} << 15) * 18,
                                (uint64_t{1} << 15) * 31,
                                10'000'019};
  for (uint64_t seed : {3u, 2024u}) {
    Rng stepped(seed);
    uint64_t steps = 0;
    for (uint64_t d : distances) {
      for (; steps < d; ++steps) stepped.Next();
      Rng jumped(seed);
      jumped.Jump(Rng::JumpPolynomialFor(d));
      Rng expected = stepped;
      for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(jumped.Next(), expected.Next())
            << "seed " << seed << ", " << d << " draws, draw " << i;
      }
    }
  }
}

TEST(HashCombineTest, OrderSensitive) {
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

}  // namespace
}  // namespace ampc
