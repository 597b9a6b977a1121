// Per-machine query-result caching for the simulated DHT.
//
// The paper's largest single Figure-4 win is caching: each machine keeps
// the results of its recent DHT queries locally, so adaptive query
// processes that revisit hot structure (roots near convergence, hub
// adjacency heads, walk-frontier collisions) stop paying the network
// round trip for keys the machine has already seen. QueryCache models
// that client-side cache as a first-class citizen:
//
//   * Bounded: `capacity` entries in one LRU, so a machine's cache
//     footprint is a config knob rather than an O(n) side array.
//   * Versioned: every entry is stamped with the epoch observed when it
//     was inserted, and Get() treats any entry from another epoch as
//     absent (and drops it). Callers in the simulator stamp entries with
//     sim::MachineContext::CacheEpoch, which packs the machine's kill
//     generation above the store's version, captured *before* the
//     underlying lookup. So a cached value — including a cached
//     negative — can never survive a later write phase, and a killed
//     machine's replacement starts cold. Invalidation is lazy: a stale
//     entry is only ever dropped or overwritten, never moved up the LRU,
//     so it sits behind every live entry and is evicted first — the
//     live set, and so every hit and miss, is the same as if the cache
//     had been cleared when its epoch moved.
//   * One mutex: a push round runs each machine's workers on one host
//     task and a pull round probes no cache, so the simulator never
//     contends the lock. It stays because derived caches are reachable
//     from algorithm code in any round kind, and a caller outside that
//     rule must still be race-free.
//
// Two uses share this type, each as a MachineCaches set (one cache per
// machine). MachineContext::Lookup/LookupMany consult a store's
// read-through QueryCache<const V*> instances (attached by
// sim::Cluster::MakeStore); hits are served locally with no trip and no
// owner bytes. Algorithms additionally park *derived* per-key facts —
// mis's three-valued states, matching's vertex status words — in sets
// minted by sim::Cluster::MakeMachineCaches<V>(). Hit/miss accounting
// stays with the caller (MachineContext::CountCacheHit/Miss) in both
// cases.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace ampc::kv {

/// A bounded, versioned, thread-safe key -> V cache: one LRU of
/// `capacity` entries under one mutex.
template <typename V>
class QueryCache {
 public:
  explicit QueryCache(int64_t capacity) : capacity_(capacity) {
    AMPC_CHECK_GE(capacity, 1);
  }

  QueryCache(const QueryCache&) = delete;
  QueryCache& operator=(const QueryCache&) = delete;

  /// The cached value for `key` at `epoch`, or nullopt. An entry stamped
  /// with a different epoch is stale — it is dropped and reported absent
  /// (epochs only move forward, so it can never become valid again).
  std::optional<V> Get(uint64_t key, uint64_t epoch) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(key);
    if (it == index_.end()) return std::nullopt;
    if (it->second->epoch != epoch) {
      lru_.erase(it->second);
      index_.erase(it);
      return std::nullopt;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    return lru_.front().value;
  }

  /// Inserts (or refreshes) `key` -> `value` at `epoch`, evicting the
  /// least recently used entry when full.
  void Put(uint64_t key, uint64_t epoch, V value) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->epoch = epoch;
      it->second->value = std::move(value);
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    InsertLocked(key, epoch, std::move(value));
  }

  /// Atomic read-modify-write under the cache's lock:
  /// `fn(std::optional<V>)` receives the current epoch-valid value (or
  /// nullopt) and returns the value to store. Replaces the
  /// compare-exchange loops of the old bespoke atomic-array caches
  /// (e.g. matching's monotone prefix extension).
  template <typename Fn>
  void Update(uint64_t key, uint64_t epoch, Fn&& fn) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(key);
    if (it != index_.end() && it->second->epoch == epoch) {
      it->second->value = fn(std::optional<V>(it->second->value));
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    if (it != index_.end()) {  // stale: replace wholesale
      lru_.erase(it->second);
      index_.erase(it);
    }
    InsertLocked(key, epoch, fn(std::nullopt));
  }

  /// Entries currently held, stale ones included.
  int64_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<int64_t>(index_.size());
  }

  int64_t capacity() const { return capacity_; }

  /// LRU evictions so far (capacity pressure, not epoch staleness).
  int64_t evictions() const {
    std::lock_guard<std::mutex> lock(mu_);
    return evictions_;
  }

 private:
  struct Entry {
    uint64_t key;
    uint64_t epoch;
    V value;
  };

  void InsertLocked(uint64_t key, uint64_t epoch, V value) {
    lru_.push_front(Entry{key, epoch, std::move(value)});
    index_.emplace(key, lru_.begin());
    if (static_cast<int64_t>(index_.size()) > capacity_) {
      index_.erase(lru_.back().key);
      lru_.pop_back();
      ++evictions_;
    }
  }

  const int64_t capacity_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<uint64_t, typename std::list<Entry>::iterator> index_;
  int64_t evictions_ = 0;
};

/// One QueryCache per logical machine: a store's read-through caches
/// (kv::ShardedStore::EnableQueryCache) and algorithms' derived-fact
/// caches (sim::Cluster::MakeMachineCaches). Default-constructed =
/// caching disabled: every ForMachine() is nullptr and callers fall back
/// to uncached resolution.
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

}  // namespace ampc::kv
