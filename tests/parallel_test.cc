#include "common/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"

namespace ampc {
namespace {

std::vector<uint64_t> RandomVector(int64_t n, uint64_t seed,
                                   uint64_t bound = 0) {
  Rng rng(seed);
  std::vector<uint64_t> out(n);
  for (auto& x : out) x = bound == 0 ? rng.Next() : rng.NextBelow(bound);
  return out;
}

TEST(SplitIndexChunksTest, CoversRangeExactlyOnce) {
  const auto chunks = SplitIndexChunks(3, 1000, 7, 13);
  ASSERT_FALSE(chunks.empty());
  EXPECT_LE(static_cast<int64_t>(chunks.size()), 13);
  int64_t expect = 3;
  for (const IndexChunk& c : chunks) {
    EXPECT_EQ(c.begin, expect);
    EXPECT_LT(c.begin, c.end);
    expect = c.end;
  }
  EXPECT_EQ(expect, 1000);
}

TEST(SplitIndexChunksTest, EmptyAndDegenerateRanges) {
  EXPECT_TRUE(SplitIndexChunks(5, 5, 4, 8).empty());
  EXPECT_TRUE(SplitIndexChunks(9, 2, 4, 8).empty());
  // grain larger than the range: one chunk.
  const auto chunks = SplitIndexChunks(0, 10, 1000, 8);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].begin, 0);
  EXPECT_EQ(chunks[0].end, 10);
  // grain 0 is clamped to 1.
  EXPECT_FALSE(SplitIndexChunks(0, 4, 0, 4).empty());
}

TEST(ParallelTabulateTest, ProducesGenOfIndex) {
  ThreadPool pool(4);
  const auto v = ParallelTabulate<int64_t>(pool, 100000,
                                          [](int64_t i) { return 3 * i; });
  ASSERT_EQ(v.size(), 100000u);
  for (int64_t i = 0; i < 100000; i += 997) EXPECT_EQ(v[i], 3 * i);
  EXPECT_TRUE(
      (ParallelTabulate<int>(pool, 0, [](int64_t) { return 1; }).empty()));
}

TEST(ParallelReduceTest, SumsMatchSerial) {
  ThreadPool pool(4);
  const int64_t n = 123457;
  const int64_t got = ParallelSum<int64_t>(pool, n, 0,
                                           [](int64_t i) { return i * i; });
  int64_t want = 0;
  for (int64_t i = 0; i < n; ++i) want += i * i;
  EXPECT_EQ(got, want);
}

TEST(ParallelReduceTest, EmptyRangeReturnsIdentity) {
  ThreadPool pool(4);
  EXPECT_EQ(ParallelSum<int64_t>(pool, 0, 42, [](int64_t) { return 1; }), 42);
  EXPECT_EQ((ParallelReduce<int64_t>(
                pool, 10, 5, 7, [](int64_t) { return 1; },
                [](int64_t a, int64_t b) { return a + b; })),
            7);
}

TEST(ParallelReduceTest, GrainEdgeCases) {
  ThreadPool pool(4);
  // grain 1 (maximal parallelism) and grain >> n (single chunk) agree.
  const auto map = [](int64_t i) { return i + 1; };
  EXPECT_EQ((ParallelSum<int64_t>(pool, 1000, 0, map, /*grain=*/1)),
            1000 * 1001 / 2);
  EXPECT_EQ((ParallelSum<int64_t>(pool, 1000, 0, map, /*grain=*/1 << 30)),
            1000 * 1001 / 2);
}

TEST(ParallelReduceTest, NonCommutativeOperatorKeepsIndexOrder) {
  ThreadPool pool(4);
  // String concatenation is associative but not commutative; the result
  // must be the in-order concatenation regardless of scheduling.
  std::string want;
  const int64_t n = 2000;
  for (int64_t i = 0; i < n; ++i) want += static_cast<char>('a' + i % 26);
  for (int trial = 0; trial < 3; ++trial) {
    const std::string got = ParallelReduce<std::string>(
        pool, 0, n, "",
        [](int64_t i) { return std::string(1, 'a' + i % 26); },
        [](std::string a, std::string b) { return std::move(a) += b; },
        /*grain=*/16);
    EXPECT_EQ(got, want);
  }
}

TEST(ParallelSortTest, MatchesStdSortOnRandomInput) {
  ThreadPool pool(8);
  auto v = RandomVector(200000, /*seed=*/1);
  auto want = v;
  std::sort(want.begin(), want.end());
  ParallelSort(pool, v);
  EXPECT_EQ(v, want);
}

TEST(ParallelSortTest, SortedAndReverseSortedInputs) {
  ThreadPool pool(8);
  std::vector<uint64_t> asc(150000);
  for (size_t i = 0; i < asc.size(); ++i) asc[i] = i;
  auto want = asc;
  auto v = asc;
  ParallelSort(pool, v);
  EXPECT_EQ(v, want);
  std::vector<uint64_t> desc(asc.rbegin(), asc.rend());
  ParallelSort(pool, desc);
  EXPECT_EQ(desc, want);
}

TEST(ParallelSortTest, DuplicateHeavyInput) {
  ThreadPool pool(8);
  // Only 10 distinct values over 300k elements: every merge pass is
  // dominated by ties, stressing the split points between segments.
  auto v = RandomVector(300000, /*seed=*/2, /*bound=*/10);
  auto want = v;
  std::sort(want.begin(), want.end());
  ParallelSort(pool, v);
  EXPECT_EQ(v, want);
}

TEST(ParallelSortTest, CustomComparatorAndSmallInputs) {
  ThreadPool pool(4);
  auto v = RandomVector(50000, /*seed=*/3);
  auto want = v;
  std::sort(want.begin(), want.end(), std::greater<uint64_t>());
  ParallelSort(pool, v, std::greater<uint64_t>());
  EXPECT_EQ(v, want);

  std::vector<uint64_t> empty;
  ParallelSort(pool, empty);
  EXPECT_TRUE(empty.empty());
  std::vector<uint64_t> one = {7};
  ParallelSort(pool, one);
  EXPECT_EQ(one, (std::vector<uint64_t>{7}));
  std::vector<uint64_t> tiny = {3, 1, 2};  // below the parallel cutoff
  ParallelSort(pool, tiny);
  EXPECT_EQ(tiny, (std::vector<uint64_t>{1, 2, 3}));
}

TEST(ParallelSortTest, StableAndDeterministicAcrossThreadCounts) {
  // Sort key-value pairs by key only; ParallelSort promises stable-sort
  // semantics, so tie order must equal input order for every pool size.
  const int64_t n = 100000;
  Rng rng(4);
  std::vector<std::pair<uint32_t, uint32_t>> input(n);
  for (int64_t i = 0; i < n; ++i) {
    input[i] = {static_cast<uint32_t>(rng.NextBelow(64)),
                static_cast<uint32_t>(i)};
  }
  const auto by_key = [](const std::pair<uint32_t, uint32_t>& a,
                         const std::pair<uint32_t, uint32_t>& b) {
    return a.first < b.first;
  };
  auto want = input;
  std::stable_sort(want.begin(), want.end(), by_key);
  for (int threads : {1, 2, 4, 7}) {
    ThreadPool pool(threads);
    auto v = input;
    ParallelSort(pool, v, by_key);
    EXPECT_EQ(v, want) << "threads=" << threads;
  }
}

TEST(ParallelSortTest, SplitPointMergeHandlesTiesAcrossSegments) {
  // Large enough that merged run pairs exceed the split-point merge
  // grain, so every pass is planned as multiple segments — with so few
  // distinct keys that ties straddle nearly every split point. Stability
  // must survive the segmented merges. Three threads make 12 runs, so a
  // pass leaves a run without a partner, copied in segments.
  const int64_t n = 1 << 20;
  Rng rng(9);
  std::vector<std::pair<uint32_t, uint32_t>> input(n);
  for (int64_t i = 0; i < n; ++i) {
    input[i] = {static_cast<uint32_t>(rng.NextBelow(3)),
                static_cast<uint32_t>(i)};
  }
  const auto by_key = [](const std::pair<uint32_t, uint32_t>& a,
                         const std::pair<uint32_t, uint32_t>& b) {
    return a.first < b.first;
  };
  auto want = input;
  std::stable_sort(want.begin(), want.end(), by_key);
  for (int threads : {2, 3, 8}) {
    ThreadPool pool(threads);
    auto v = input;
    ParallelSort(pool, v, by_key);
    EXPECT_EQ(v, want) << "threads=" << threads;
  }

  // Fully constant keys: the merge degenerates to pure segmented copies
  // that must still preserve input order exactly.
  std::vector<std::pair<uint32_t, uint32_t>> constant(n);
  for (int64_t i = 0; i < n; ++i) {
    constant[i] = {7u, static_cast<uint32_t>(i)};
  }
  auto constant_want = constant;
  ThreadPool pool(8);
  ParallelSort(pool, constant, by_key);
  EXPECT_EQ(constant, constant_want);
}

}  // namespace
}  // namespace ampc
