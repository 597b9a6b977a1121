// Per-machine query-result caching for the simulated DHT.
//
// The paper's largest single Figure-4 win is caching: each machine keeps
// the results of its recent DHT queries locally, so adaptive query
// processes that revisit hot structure (roots near convergence, hub
// adjacency heads, walk-frontier collisions) stop paying the network
// round trip for keys the machine has already seen. QueryCache models
// that client-side cache as a first-class citizen:
//
//   * Bounded: `capacity` entries, sharded-LRU eviction, so a machine's
//     cache footprint is a config knob rather than an O(n) side array.
//   * Versioned: every entry is stamped with the epoch observed when it
//     was inserted, and Get() treats any entry from another epoch as
//     absent (and drops it). Read-through callers stamp entries with
//     kv::ShardedStore::version() captured *before* the underlying
//     lookup, so a cached value — including a cached negative — can
//     never survive a later write phase: stale reads are impossible.
//   * Thread-safe: the machine's worker threads share one cache; the
//     key space is split over internal lock shards (concurrency only —
//     nothing to do with the DHT's machine sharding).
//
// Two uses share this type. MachineContext::Lookup/LookupMany consult a
// per-(store, machine) QueryCache<const V*> read-through instance
// (attached by sim::Cluster::MakeStore); hits are served locally with
// no trip and no owner bytes. Algorithms additionally park *derived*
// per-key facts — mis's three-valued states, matching's vertex status
// words — in per-machine caches minted by
// sim::Cluster::MakeMachineCaches<V>(), replacing the bespoke unbounded
// atomic arrays they owned before. Hit/miss accounting stays with the
// caller (MachineContext::CountCacheHit/Miss) in both cases.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/random.h"

namespace ampc::kv {

/// Type-erased handle to a cache that can be dropped wholesale — the
/// hook the fault model uses: when a simulated machine is lost, its
/// replacement starts with cold caches, so every cache attached to that
/// machine is cleared (see CacheDropRegistry). Epoch semantics make the
/// drop safe by construction: entries only ever mirror the backing
/// store (which recovery restores bit-identically), so a cleared cache
/// re-warms through the normal read-through path with no correctness
/// effect — only extra misses, which is exactly the cost a cold
/// replacement machine should pay.
class QueryCacheBase {
 public:
  virtual ~QueryCacheBase() = default;
  /// Drops every entry (all epochs, all lock shards).
  virtual void Clear() = 0;
};

/// A bounded, versioned, thread-safe key -> V cache (sharded LRU).
template <typename V>
class QueryCache : public QueryCacheBase {
 public:
  /// `capacity` total entries, split over `lock_shards` internal shards
  /// (each shard holds capacity / lock_shards entries and its own lock).
  /// Effective lock shards are clamped to min(lock_shards, capacity):
  /// with more shards than entries, the per-shard floor of one entry
  /// would silently inflate tiny budgets (a capacity-4 cache with 8
  /// lock shards could hold 8 entries), so capacity() never exceeds the
  /// requested bound.
  explicit QueryCache(int64_t capacity, int lock_shards = 8) {
    AMPC_CHECK_GE(capacity, 1);
    const int shards = static_cast<int>(
        std::min<int64_t>(std::max(1, lock_shards), capacity));
    per_shard_capacity_ = std::max<int64_t>(1, capacity / shards);
    shards_.reserve(shards);
    for (int s = 0; s < shards; ++s) {
      shards_.push_back(std::make_unique<Shard>());
    }
  }

  QueryCache(const QueryCache&) = delete;
  QueryCache& operator=(const QueryCache&) = delete;

  /// The cached value for `key` at `epoch`, or nullopt. An entry stamped
  /// with a different epoch is stale — it is dropped and reported absent
  /// (epochs only move forward, so it can never become valid again).
  std::optional<V> Get(uint64_t key, uint64_t epoch) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.index.find(key);
    if (it == shard.index.end()) return std::nullopt;
    if (it->second->epoch != epoch) {
      shard.lru.erase(it->second);
      shard.index.erase(it);
      return std::nullopt;
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return shard.lru.front().value;
  }

  /// Inserts (or refreshes) `key` -> `value` at `epoch`, evicting the
  /// least recently used entry of the key's lock shard when full.
  void Put(uint64_t key, uint64_t epoch, V value) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      it->second->epoch = epoch;
      it->second->value = std::move(value);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return;
    }
    InsertLocked(shard, key, epoch, std::move(value));
  }

  /// Atomic read-modify-write under the key's shard lock:
  /// `fn(std::optional<V>)` receives the current epoch-valid value (or
  /// nullopt) and returns the value to store. Replaces the
  /// compare-exchange loops of the old bespoke atomic-array caches
  /// (e.g. matching's monotone prefix extension).
  template <typename Fn>
  void Update(uint64_t key, uint64_t epoch, Fn&& fn) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.index.find(key);
    if (it != shard.index.end() && it->second->epoch == epoch) {
      it->second->value = fn(std::optional<V>(it->second->value));
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return;
    }
    if (it != shard.index.end()) {  // stale: replace wholesale
      shard.lru.erase(it->second);
      shard.index.erase(it);
    }
    InsertLocked(shard, key, epoch, fn(std::nullopt));
  }

  /// Drops every entry. Used by the fault model when this cache's
  /// machine is lost: the replacement machine starts cold and re-warms
  /// through the read-through path. Not counted as eviction (capacity
  /// pressure) — the entries were lost with the machine, not displaced.
  void Clear() override {
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      shard->lru.clear();
      shard->index.clear();
    }
  }

  /// Entries currently held (all lock shards). O(lock_shards).
  int64_t size() const {
    int64_t total = 0;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      total += static_cast<int64_t>(shard->index.size());
    }
    return total;
  }

  /// Total entry budget across lock shards.
  int64_t capacity() const {
    return per_shard_capacity_ * static_cast<int64_t>(shards_.size());
  }

  /// LRU evictions so far (capacity pressure, not epoch staleness).
  int64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    uint64_t key;
    uint64_t epoch;
    V value;
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<uint64_t, typename std::list<Entry>::iterator> index;
  };

  Shard& ShardFor(uint64_t key) {
    return *shards_[Hash64(key, 0x7163616368ULL) %
                    static_cast<uint64_t>(shards_.size())];
  }

  void InsertLocked(Shard& shard, uint64_t key, uint64_t epoch, V value) {
    shard.lru.push_front(Entry{key, epoch, std::move(value)});
    shard.index.emplace(key, shard.lru.begin());
    if (static_cast<int64_t>(shard.index.size()) > per_shard_capacity_) {
      shard.index.erase(shard.lru.back().key);
      shard.lru.pop_back();
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  int64_t per_shard_capacity_ = 1;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<int64_t> evictions_{0};
};

/// One QueryCache per logical machine, for algorithms caching *derived*
/// per-key facts (sim::Cluster::MakeMachineCaches). Default-constructed
/// = caching disabled: every ForMachine() is nullptr and callers fall
/// back to uncached resolution.
template <typename V>
class MachineCaches {
 public:
  MachineCaches() = default;
  MachineCaches(int num_machines, int64_t capacity_per_machine) {
    caches_.reserve(num_machines);
    for (int m = 0; m < num_machines; ++m) {
      caches_.push_back(std::make_unique<QueryCache<V>>(capacity_per_machine));
    }
  }

  bool enabled() const { return !caches_.empty(); }
  QueryCache<V>* ForMachine(int m) {
    return caches_.empty() ? nullptr : caches_[m].get();
  }

 private:
  std::vector<std::unique_ptr<QueryCache<V>>> caches_;
};

/// Weak registry of every per-machine cache a cluster has minted,
/// keyed by machine id. Stores register their read-through caches at
/// creation (kv::ShardedStore::EnableQueryCache); when the fault model
/// kills machine m, DropMachine(m) clears whichever of m's caches are
/// still alive — the replacement machine's RAM starts cold — without
/// the registry ever owning a cache or extending its lifetime (stores
/// are minted and dropped every round; expired entries are pruned as
/// they are encountered).
class CacheDropRegistry {
 public:
  void Register(int machine, std::weak_ptr<QueryCacheBase> cache) {
    std::lock_guard<std::mutex> lock(mu_);
    if (machine >= static_cast<int>(by_machine_.size())) {
      by_machine_.resize(machine + 1);
    }
    by_machine_[machine].push_back(std::move(cache));
  }

  /// Clears machine `m`'s live caches; returns how many were cleared.
  int64_t DropMachine(int m) {
    std::lock_guard<std::mutex> lock(mu_);
    if (m < 0 || m >= static_cast<int>(by_machine_.size())) return 0;
    int64_t dropped = 0;
    auto& caches = by_machine_[m];
    size_t out = 0;
    for (size_t i = 0; i < caches.size(); ++i) {
      if (std::shared_ptr<QueryCacheBase> cache = caches[i].lock()) {
        cache->Clear();
        ++dropped;
        caches[out++] = std::move(caches[i]);
      }
    }
    caches.resize(out);
    return dropped;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::vector<std::weak_ptr<QueryCacheBase>>> by_machine_;
};

}  // namespace ampc::kv
