// A miniature Flume/Beam-style dataflow layer over the cluster simulator.
//
// The paper implements everything in Flume-C++ (Section 5.1): stages
// consume PCollections and emit PCollections, and the only way workers
// exchange bulk data is a *shuffle* (GroupByKey), which writes to durable
// storage. This header reproduces that programming model in-process:
// ParDo runs a stage in parallel and counts a cheap round; GroupByKey
// counts a costly shuffle round and charges its wire bytes.
//
// Both operators are backed by the primitives in common/parallel.h and
// are deterministic: ParDo assembles per-chunk output slots in index
// order (its output order equals the serial emission order), and
// GroupByKey hash-partitions records into shards, sorts and groups each
// shard concurrently, and reassembles the groups in global key order.
// The shuffle is the cost the paper's evaluation revolves around
// (Table 3, Fig. 3), so it must scale with cores to be a fair baseline.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "kv/byte_size.h"
#include "sim/cluster.h"

namespace ampc::mpc {

/// A distributed multi-element dataset (materialized in memory here).
template <typename T>
using PCollection = std::vector<T>;

/// A key-value record.
template <typename K, typename V>
using KV = std::pair<K, V>;

/// Concatenates collections (in order, with one exact allocation).
template <typename T>
PCollection<T> Flatten(std::vector<PCollection<T>> parts) {
  int64_t total = 0;
  for (const PCollection<T>& part : parts) {
    total += static_cast<int64_t>(part.size());
  }
  PCollection<T> out;
  out.reserve(total);
  for (auto& part : parts) {
    out.insert(out.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
  }
  return out;
}

/// Runs `fn(element, emit)` over the input on `pool`; `emit` appends
/// output elements. Chunk outputs land in per-chunk slots that are
/// concatenated in index order, so the result is exactly the sequence a
/// serial run would emit — deterministic and mutex-free. This is the pure
/// data-plane half of ParDo; the Cluster overload below adds accounting.
template <typename In, typename Out, typename Fn>
PCollection<Out> ParDoEngine(ThreadPool& pool, const PCollection<In>& input,
                             Fn fn) {
  const std::vector<IndexChunk> chunks =
      SplitIndexChunks(0, static_cast<int64_t>(input.size()), 1024,
                       DefaultChunksForPool(pool));
  std::vector<std::vector<Out>> slots(chunks.size());
  pool.RunTasks(std::ssize(chunks), [&](int64_t c) {
    std::vector<Out>& local = slots[c];
    auto emit = [&local](Out value) { local.push_back(std::move(value)); };
    for (int64_t i = chunks[c].begin; i < chunks[c].end; ++i) {
      fn(input[i], emit);
    }
  });
  return Flatten(std::move(slots));
}

/// Runs `fn(element, emit)` over the input in parallel; `emit` appends
/// output elements. Counts one cheap (non-shuffle) round. Output order is
/// deterministic (equal to serial emission order).
template <typename In, typename Out, typename Fn>
PCollection<Out> ParDo(sim::Cluster& cluster, const std::string& phase,
                       const PCollection<In>& input, Fn fn) {
  WallTimer timer;
  PCollection<Out> out = ParDoEngine<In, Out>(cluster.pool(), input, fn);
  cluster.AccountMapRound(phase, timer.Seconds());
  return out;
}

/// Wire size of a PCollection of KV records.
template <typename K, typename V>
int64_t ShuffleBytes(const PCollection<KV<K, V>>& records) {
  int64_t bytes = 0;
  for (const auto& [k, v] : records) {
    bytes += kv::KvByteSize(k) + kv::KvByteSize(v);
  }
  return bytes;
}

/// Parallel wire-size accounting for large collections.
template <typename K, typename V>
int64_t ShuffleBytes(ThreadPool& pool, const PCollection<KV<K, V>>& records) {
  return ParallelSum<int64_t>(
      pool, static_cast<int64_t>(records.size()), 0, [&records](int64_t i) {
        return kv::KvByteSize(records[i].first) +
               kv::KvByteSize(records[i].second);
      });
}

namespace dataflow_internal {

// Salt for the shard hash; fixed so shard assignment is reproducible.
constexpr uint64_t kShardSalt = 0x73686172645f6b65ULL;

// Below this many records the serial sort-and-scan path wins.
constexpr int64_t kShardCutoff = 1 << 14;

template <typename K>
int ShardOf(const K& key, int num_shards) {
  return static_cast<int>(
      Hash64(static_cast<uint64_t>(std::hash<K>{}(key)), kShardSalt) %
      static_cast<uint64_t>(num_shards));
}

// Sorts `records` by key (stably, so values keep their input order) and
// folds runs of equal keys into groups appended to `out`.
template <typename K, typename V>
void SortAndGroup(std::vector<KV<K, V>>& records,
                  PCollection<KV<K, std::vector<V>>>& out) {
  std::stable_sort(records.begin(), records.end(),
            [](const KV<K, V>& a, const KV<K, V>& b) {
              return a.first < b.first;
            });
  for (size_t i = 0; i < records.size();) {
    size_t j = i;
    std::vector<V> values;
    while (j < records.size() && records[j].first == records[i].first) {
      values.push_back(std::move(records[j].second));
      ++j;
    }
    out.emplace_back(records[i].first, std::move(values));
    i = j;
  }
}

}  // namespace dataflow_internal

/// The data plane of a shuffle: groups `records` by key, returning groups
/// sorted by key. K must be std::hash-able as well as operator<-ordered
/// (the serial engine needed only the ordering; sharding adds the hash). Records are hash-partitioned into one shard per pool
/// thread under chunked parallelism (a record's shard depends only on its
/// key, so all records of a key meet in one shard); each shard is sorted
/// and grouped concurrently; the shards' groups are concatenated and the
/// group headers re-sorted so the output is globally key-sorted. Keys are
/// unique across shards, so the final sort has no ties and the whole
/// pipeline is deterministic: chunk-order gathering plus a stable shard
/// sort make each group's value order the records' input order, so the
/// result is byte-identical to the serial path for any thread count.
template <typename K, typename V>
PCollection<KV<K, std::vector<V>>> GroupByKeyEngine(
    ThreadPool& pool, PCollection<KV<K, V>> records) {
  const int64_t n = static_cast<int64_t>(records.size());
  PCollection<KV<K, std::vector<V>>> out;
  if (n == 0) return out;

  const int num_shards = std::max(1, pool.num_threads());
  if (num_shards == 1 || n < dataflow_internal::kShardCutoff) {
    dataflow_internal::SortAndGroup(records, out);
    return out;
  }

  // Scatter: each chunk splits its records into per-shard parts. Parts
  // are indexed [chunk][shard] so no two tasks touch the same vector.
  const std::vector<IndexChunk> chunks =
      SplitIndexChunks(0, n, 4096, DefaultChunksForPool(pool));
  const int64_t num_chunks = static_cast<int64_t>(chunks.size());
  std::vector<std::vector<KV<K, V>>> parts(num_chunks * num_shards);
  pool.RunTasks(std::ssize(chunks), [&](int64_t c) {
    std::vector<KV<K, V>>* chunk_parts = &parts[c * num_shards];
    // Count first so each part is allocated exactly once; the shard hash
    // is cheap relative to the reallocation churn it avoids.
    std::vector<int64_t> counts(num_shards, 0);
    for (int64_t i = chunks[c].begin; i < chunks[c].end; ++i) {
      ++counts[dataflow_internal::ShardOf(records[i].first, num_shards)];
    }
    for (int s = 0; s < num_shards; ++s) chunk_parts[s].reserve(counts[s]);
    for (int64_t i = chunks[c].begin; i < chunks[c].end; ++i) {
      const int s = dataflow_internal::ShardOf(records[i].first, num_shards);
      chunk_parts[s].push_back(std::move(records[i]));
    }
  });
  records.clear();
  records.shrink_to_fit();

  // Gather + sort + group each shard concurrently. Chunk-order
  // concatenation keeps each shard's record sequence deterministic.
  std::vector<PCollection<KV<K, std::vector<V>>>> shard_groups(num_shards);
  ParallelFor(pool, 0, num_shards, 1, [&](int64_t s) {
    int64_t shard_size = 0;
    for (int64_t c = 0; c < num_chunks; ++c) {
      shard_size += static_cast<int64_t>(parts[c * num_shards + s].size());
    }
    std::vector<KV<K, V>> shard;
    shard.reserve(shard_size);
    for (int64_t c = 0; c < num_chunks; ++c) {
      std::vector<KV<K, V>>& part = parts[c * num_shards + s];
      shard.insert(shard.end(), std::make_move_iterator(part.begin()),
                   std::make_move_iterator(part.end()));
    }
    dataflow_internal::SortAndGroup(shard, shard_groups[s]);
  });

  // Concatenate the shards' groups and restore global key order. Group
  // headers are few relative to records and moves are cheap, so this
  // final sort is a small fraction of the shuffle.
  out = Flatten(std::move(shard_groups));
  ParallelSort(pool, out,
               [](const KV<K, std::vector<V>>& a,
                  const KV<K, std::vector<V>>& b) { return a.first < b.first; });
  return out;
}

/// Groups records by key. Counts one shuffle and charges the records'
/// wire bytes. Output groups are sorted by key; value order within a
/// group is deterministic (input order of that key's records).
template <typename K, typename V>
PCollection<KV<K, std::vector<V>>> GroupByKey(
    sim::Cluster& cluster, const std::string& phase,
    PCollection<KV<K, V>> records) {
  WallTimer timer;
  const int64_t bytes = ShuffleBytes(cluster.pool(), records);
  PCollection<KV<K, std::vector<V>>> out =
      GroupByKeyEngine(cluster.pool(), std::move(records));
  cluster.AccountShuffle(phase, bytes, timer.Seconds());
  return out;
}

}  // namespace ampc::mpc
