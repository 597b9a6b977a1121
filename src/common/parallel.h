// Reusable parallel primitives over ThreadPool: ParallelTabulate,
// ParallelReduce and ParallelSort (a deterministic merge sort).
//
// The paper's practical claim is that shuffle cost dominates MPC graph
// algorithms (Section 5.7, Table 3), so the simulated runtime's shuffle
// path must itself scale with cores to be a credible baseline. These
// primitives are the Parlay-style building blocks the shuffle engine in
// mpc/dataflow.h is written against: partition deterministically, process
// shards in parallel, reassemble in index order. Every primitive here
// produces output that is a pure function of its input — never of the
// thread schedule — because algorithm outputs are compared across
// runtimes (see common/random.h for the same contract on randomness).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <utility>
#include <vector>

#include "common/thread_pool.h"

namespace ampc {

/// A half-open index range [begin, end).
struct IndexChunk {
  int64_t begin = 0;
  int64_t end = 0;
  int64_t size() const { return end - begin; }
};

/// Splits [begin, end) into at most `max_chunks` contiguous chunks of at
/// least `grain` indices each. Boundaries depend only on the arguments
/// (never on thread scheduling), so per-chunk results can be reassembled
/// in chunk order to give deterministic output. Returns an empty vector
/// when begin >= end.
std::vector<IndexChunk> SplitIndexChunks(int64_t begin, int64_t end,
                                         int64_t grain, int64_t max_chunks);

/// Builds {gen(0), gen(1), ..., gen(n-1)} in parallel. T must be default
/// constructible; gen must be safe to call concurrently for distinct i.
template <typename T, typename Gen>
std::vector<T> ParallelTabulate(ThreadPool& pool, int64_t n, Gen gen,
                                int64_t grain = 2048) {
  std::vector<T> out(std::max<int64_t>(n, 0));
  ParallelForChunked(pool, 0, n, grain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) out[i] = gen(i);
  });
  return out;
}

/// Reduces map(i) for i in [begin, end) with `reduce`, starting from
/// `identity`. Each chunk folds locally; partials are folded in chunk
/// order, so the result is deterministic for any associative `reduce`
/// (it need not be commutative). Returns `identity` on an empty range.
template <typename T, typename MapFn, typename ReduceOp>
T ParallelReduce(ThreadPool& pool, int64_t begin, int64_t end, T identity,
                 MapFn map, ReduceOp reduce, int64_t grain = 1024) {
  const std::vector<IndexChunk> chunks =
      SplitIndexChunks(begin, end, grain, DefaultChunksForPool(pool));
  if (chunks.empty()) return identity;
  if (chunks.size() == 1) {
    T acc = identity;
    for (int64_t i = begin; i < end; ++i) acc = reduce(std::move(acc), map(i));
    return acc;
  }
  std::vector<T> partial(chunks.size(), identity);
  pool.RunTasks(std::ssize(chunks), [&](int64_t c) {
    T acc = identity;
    for (int64_t i = chunks[c].begin; i < chunks[c].end; ++i) {
      acc = reduce(std::move(acc), map(i));
    }
    partial[c] = std::move(acc);
  });
  T acc = identity;
  for (T& p : partial) acc = reduce(std::move(acc), std::move(p));
  return acc;
}

/// Convenience overload: sums map(i) over [0, n) with operator+.
template <typename T, typename MapFn>
T ParallelSum(ThreadPool& pool, int64_t n, T identity, MapFn map,
              int64_t grain = 1024) {
  return ParallelReduce(
      pool, 0, n, identity, map,
      [](T a, T b) { return std::move(a) + std::move(b); }, grain);
}

namespace parallel_internal {

// Below this size the sequential sort wins outright.
constexpr int64_t kSortCutoff = 1 << 13;

// Target elements per split-point merge segment.
constexpr int64_t kMergeGrain = 1 << 14;

// One contiguous piece of a two-run merge: stable-merges src[a_lo, a_hi)
// with src[b_lo, b_hi) into dst starting at `out`.
struct MergeSegment {
  int64_t a_lo, a_hi, b_lo, b_hi, out;
};

// Plans the stable merge of adjacent runs src[lo, mid) and src[mid, hi)
// as split-point segments of roughly kMergeGrain elements and appends
// them to `out`. Split points cut the larger run at even positions and
// locate the matching boundary in the other run by binary search; the
// tie rules (right boundary = lower_bound of a left split value, left
// boundary = upper_bound of a right split value) keep every element of
// the left run ahead of its equals from the right run, so the segmented
// merge equals one stable merge. The plan is a pure function of the
// data — never of the thread schedule.
template <typename T, typename Cmp>
void PlanMerge(const std::vector<T>& src, int64_t lo, int64_t mid,
               int64_t hi, Cmp cmp, std::vector<MergeSegment>& out) {
  const int64_t left_len = mid - lo;
  const int64_t right_len = hi - mid;
  const int64_t pieces =
      std::max<int64_t>(1, (hi - lo + kMergeGrain - 1) / kMergeGrain);
  if (pieces == 1) {
    out.push_back(MergeSegment{lo, mid, mid, hi, lo});
    return;
  }
  const bool split_left = left_len >= right_len;
  int64_t prev_a = lo, prev_b = mid, dst = lo;
  for (int64_t s = 1; s <= pieces; ++s) {
    int64_t cur_a = mid, cur_b = hi;
    if (s < pieces) {
      if (split_left) {
        cur_a = lo + left_len * s / pieces;
        cur_b = std::lower_bound(src.begin() + prev_b, src.begin() + hi,
                                 src[cur_a], cmp) -
                src.begin();
      } else {
        cur_b = mid + right_len * s / pieces;
        cur_a = std::upper_bound(src.begin() + prev_a, src.begin() + mid,
                                 src[cur_b], cmp) -
                src.begin();
      }
    }
    out.push_back(MergeSegment{prev_a, cur_a, prev_b, cur_b, dst});
    dst += (cur_a - prev_a) + (cur_b - prev_b);
    prev_a = cur_a;
    prev_b = cur_b;
  }
}

}  // namespace parallel_internal

/// Sorts `items` under `cmp` with a stable, deterministic merge sort:
///   1. split into chunks and stable-sort each chunk on the pool;
///   2. merge adjacent sorted runs pass by pass, alternating between
///      `items` and one scratch buffer (std::merge segments can't
///      overlap in place); each pass is planned as split-point segments
///      (PlanMerge) that the whole pool works through together.
/// Runs stay in index order and every merge is stable, so the result
/// equals std::stable_sort's: equal elements keep input order, and the
/// output is a pure function of the input — identical across runs and
/// thread counts. Falls back to std::stable_sort for small inputs or
/// single-thread pools.
template <typename T, typename Cmp = std::less<T>>
void ParallelSort(ThreadPool& pool, std::vector<T>& items, Cmp cmp = Cmp()) {
  const int64_t n = static_cast<int64_t>(items.size());
  if (n < parallel_internal::kSortCutoff || pool.num_threads() <= 1) {
    std::stable_sort(items.begin(), items.end(), cmp);
    return;
  }

  const std::vector<IndexChunk> chunks = SplitIndexChunks(
      0, n, parallel_internal::kSortCutoff / 4, DefaultChunksForPool(pool));
  pool.RunTasks(std::ssize(chunks), [&](int64_t c) {
    std::stable_sort(items.begin() + chunks[c].begin,
                     items.begin() + chunks[c].end, cmp);
  });

  // bounds[i] .. bounds[i + 1] is run i; runs are in index order.
  std::vector<int64_t> bounds = {0};
  for (const IndexChunk& chunk : chunks) bounds.push_back(chunk.end);
  std::vector<T> scratch(n);
  std::vector<T>* src = &items;
  std::vector<T>* dst = &scratch;
  while (bounds.size() > 2) {
    std::vector<parallel_internal::MergeSegment> segments;
    std::vector<int64_t> next = {0};
    for (size_t i = 0; i + 1 < bounds.size(); i += 2) {
      // A last run without a partner merges with an empty run, i.e. is
      // copied, so every pass's output buffer holds the whole range.
      const int64_t hi = bounds[std::min(i + 2, bounds.size() - 1)];
      parallel_internal::PlanMerge(*src, bounds[i], bounds[i + 1], hi, cmp,
                                   segments);
      next.push_back(hi);
    }
    bounds = std::move(next);
    ParallelFor(pool, 0, static_cast<int64_t>(segments.size()), 1,
                [&](int64_t s) {
                  const parallel_internal::MergeSegment& seg = segments[s];
                  std::merge(std::make_move_iterator(src->begin() + seg.a_lo),
                             std::make_move_iterator(src->begin() + seg.a_hi),
                             std::make_move_iterator(src->begin() + seg.b_lo),
                             std::make_move_iterator(src->begin() + seg.b_hi),
                             dst->begin() + seg.out, cmp);
                });
    std::swap(src, dst);
  }
  if (src != &items) items.swap(scratch);
}

}  // namespace ampc
