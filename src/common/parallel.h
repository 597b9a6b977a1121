// Reusable parallel primitives over ThreadPool: ParallelTabulate,
// ParallelReduce and ParallelSort (a deterministic sample sort).
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

/// Sorts `items` under `cmp` using a stable, deterministic sample sort:
///   1. split into chunks and stable-sort each chunk on the pool;
///   2. pick bucket splitters from a regular sample of the sorted chunks;
///   3. locate each chunk's bucket boundaries by binary search (chunks
///      are sorted, so every bucket is one contiguous run per chunk);
///   4. scatter runs to their bucket's output region and merge the runs
///      of each bucket in parallel.
/// Chunks are gathered in index order and every merge is stable, so the
/// result equals std::stable_sort's: equal elements keep input order, and
/// the output is a pure function of the input — identical across runs
/// and thread counts. Falls back to std::stable_sort for small inputs or
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
  const int64_t num_chunks = static_cast<int64_t>(chunks.size());
  pool.RunTasks(std::ssize(chunks), [&](int64_t c) {
    std::stable_sort(items.begin() + chunks[c].begin,
                     items.begin() + chunks[c].end, cmp);
  });

  // A regular sample (every chunk contributes `kOversample` evenly spaced
  // elements) is already sorted within each chunk; merging via sort is
  // cheap because the sample is tiny. Sampling works on indices so heavy
  // elements (e.g. groups holding large value vectors) are never copied.
  constexpr int64_t kOversample = 8;
  const int64_t num_buckets = num_chunks;
  std::vector<int64_t> sample;
  sample.reserve(num_chunks * kOversample);
  for (const IndexChunk& chunk : chunks) {
    for (int64_t s = 0; s < kOversample; ++s) {
      const int64_t offset = chunk.size() * (2 * s + 1) / (2 * kOversample);
      sample.push_back(chunk.begin + offset);
    }
  }
  std::sort(sample.begin(), sample.end(), [&](int64_t a, int64_t b) {
    return cmp(items[a], items[b]);
  });
  std::vector<int64_t> splitters;  // indices into `items`
  splitters.reserve(num_buckets - 1);
  for (int64_t b = 1; b < num_buckets; ++b) {
    splitters.push_back(
        sample[b * static_cast<int64_t>(sample.size()) / num_buckets]);
  }

  // run_end[c][b]: end offset (within chunk c) of the run bound for
  // bucket b. Runs are contiguous because each chunk is sorted. Splitter
  // indices stay valid here: items is not mutated again until the
  // scatter below.
  std::vector<std::vector<int64_t>> run_end(
      num_chunks, std::vector<int64_t>(num_buckets, 0));
  pool.RunTasks(std::ssize(chunks), [&](int64_t c) {
    const auto chunk_begin = items.begin() + chunks[c].begin;
    const auto chunk_end = items.begin() + chunks[c].end;
    for (int64_t b = 0; b + 1 < num_buckets; ++b) {
      run_end[c][b] =
          std::lower_bound(chunk_begin, chunk_end, splitters[b],
                           [&](const T& element, int64_t splitter) {
                             return cmp(element, items[splitter]);
                           }) -
          chunk_begin;
    }
    run_end[c][num_buckets - 1] = chunks[c].size();
  });

  // Bucket output regions: bucket b holds run b of every chunk, chunks in
  // index order (this fixes the order of equal elements deterministically).
  std::vector<int64_t> bucket_begin(num_buckets + 1, 0);
  for (int64_t b = 0; b < num_buckets; ++b) {
    int64_t size = 0;
    for (int64_t c = 0; c < num_chunks; ++c) {
      const int64_t lo = b == 0 ? 0 : run_end[c][b - 1];
      size += run_end[c][b] - lo;
    }
    bucket_begin[b + 1] = bucket_begin[b] + size;
  }

  // Scatter runs to their bucket's output region, chunks in index order
  // (this fixes the order of equal elements deterministically), recording
  // the surviving (non-empty) run boundaries as global offsets.
  std::vector<T> scratch(n);
  std::vector<std::vector<int64_t>> bounds(num_buckets);
  pool.RunTasks(num_buckets, [&](int64_t b) {
    int64_t out = bucket_begin[b];
    std::vector<int64_t>& bd = bounds[b];
    bd.reserve(num_chunks + 1);
    bd.push_back(out);
    for (int64_t c = 0; c < num_chunks; ++c) {
      const int64_t lo = chunks[c].begin + (b == 0 ? 0 : run_end[c][b - 1]);
      const int64_t hi = chunks[c].begin + run_end[c][b];
      std::move(items.begin() + lo, items.begin() + hi, scratch.begin() + out);
      out += hi - lo;
      if (out != bd.back()) bd.push_back(out);
    }
  });

  // Split-point parallel bucket merge. Each pass pairs up adjacent runs
  // of every bucket and plans each pair as independent ~kMergeGrain
  // segments, which the whole pool chews through together — a bucket
  // with one giant run pair no longer serializes on a single core.
  // Passes ping-pong between two full-size buffers (std::merge segments
  // can't overlap in place), copying leftover runs so every pass's
  // output buffer holds the complete range.
  std::vector<T> aux(n);
  std::vector<T>* src = &scratch;
  std::vector<T>* dst = &aux;
  auto has_unmerged_runs = [&bounds] {
    for (const std::vector<int64_t>& bd : bounds) {
      if (bd.size() > 2) return true;
    }
    return false;
  };
  while (has_unmerged_runs()) {
    std::vector<parallel_internal::MergeSegment> segments;
    for (int64_t b = 0; b < num_buckets; ++b) {
      std::vector<int64_t>& bd = bounds[b];
      std::vector<int64_t> next;
      next.reserve(bd.size() / 2 + 2);
      next.push_back(bd[0]);
      size_t i = 0;
      for (; i + 2 < bd.size(); i += 2) {
        parallel_internal::PlanMerge(*src, bd[i], bd[i + 1], bd[i + 2], cmp,
                                     segments);
        next.push_back(bd[i + 2]);
      }
      if (i + 1 < bd.size()) {
        // Leftover run without a partner: plan it as a merge with an
        // empty right side, i.e. a parallel copy into the output buffer.
        parallel_internal::PlanMerge(*src, bd[i], bd[i + 1], bd[i + 1], cmp,
                                     segments);
        next.push_back(bd[i + 1]);
      }
      bd = std::move(next);
    }
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
  items = std::move(*src);
}

}  // namespace ampc
