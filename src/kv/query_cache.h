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
//     footprint is a constant (sim::Cluster::kQueryCacheCapacity) rather
//     than an O(n) side array.
//   * Flat: the entries live in one array (key, epoch, value and 32-bit
//     recency links), found through an open-addressed index of 8-byte
//     (hash bits, slot) positions (linear probing, backward-shift
//     delete, at most half full). No entry is allocated on its own.
//     Both arrays grow lazily, by doubling, as the cache fills — the
//     entry array never past `capacity` — and a dropped stale entry's
//     slot is reused by the next insert. So a cache that is never
//     written allocates nothing (kcore mints a fresh store, and so
//     fresh caches, every round), and a cache frees two blocks when it
//     goes, not one heap node per entry.
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
//   * One user at a time, like a standard container: no lock. Each
//     machine owns its caches, and algorithm code reaches them only
//     through sim::MachineContext (Lookup/LookupManyAsync for the
//     read-through caches, DerivedCache for derived ones), which hands
//     out neither kind in a pull round. A push round runs each
//     machine's worker slices in order on one host task, and the return
//     of ThreadPool::RunTasks orders one round's task for a machine
//     before the next round's, on whatever threads they run.
//
// Two uses share this type, each as a MachineCaches set (one cache per
// machine). MachineContext::Lookup/LookupManyAsync consult a store's
// read-through QueryCache<const V*> instances (attached by
// sim::Cluster::MakeStore); hits are served locally with no trip and no
// owner bytes. Algorithms additionally park *derived* per-key facts —
// mis's three-valued states, matching's vertex status words — in sets
// minted by sim::Cluster::MakeMachineCaches<V>() and taken per machine
// from MachineContext::DerivedCache. Hit/miss accounting stays with the
// caller (MachineContext::CountCacheHit/Miss) in both cases.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/random.h"

namespace ampc::kv {

/// A bounded, versioned key -> V cache: one LRU of `capacity` entries.
/// Not thread-safe: one user at a time (see the header comment).
template <typename V>
class QueryCache {
 public:
  explicit QueryCache(int64_t capacity) : capacity_(capacity) {
    AMPC_CHECK_GE(capacity, 1);
    AMPC_CHECK_LT(capacity, int64_t{kNil});  // slots are 32-bit
  }

  QueryCache(const QueryCache&) = delete;
  QueryCache& operator=(const QueryCache&) = delete;

  /// The cached value for `key` at `epoch`, or nullopt. An entry stamped
  /// with a different epoch is stale — it is dropped and reported absent
  /// (epochs only move forward, so it can never become valid again).
  std::optional<V> Get(uint64_t key, uint64_t epoch) {
    const size_t pos = Find(key);
    if (pos == kAbsent) return std::nullopt;
    const uint32_t slot = index_[pos].slot;
    if (entries_[slot].epoch != epoch) {
      Drop(pos);
      return std::nullopt;
    }
    Touch(slot);
    return entries_[slot].value;
  }

  /// Inserts (or refreshes) `key` -> `value` at `epoch`, evicting the
  /// least recently used entry when full.
  void Put(uint64_t key, uint64_t epoch, V value) {
    const size_t pos = Find(key);
    if (pos != kAbsent) {
      const uint32_t slot = index_[pos].slot;
      entries_[slot].epoch = epoch;
      entries_[slot].value = std::move(value);
      Touch(slot);
      return;
    }
    Insert(key, epoch, std::move(value));
  }

  /// Read-modify-write in one probe: `fn(std::optional<V>)` receives
  /// the current epoch-valid value (or nullopt) and returns the value to
  /// store (e.g. matching's monotone prefix extension).
  template <typename Fn>
  void Update(uint64_t key, uint64_t epoch, Fn&& fn) {
    const size_t pos = Find(key);
    if (pos != kAbsent) {
      const uint32_t slot = index_[pos].slot;
      if (entries_[slot].epoch == epoch) {
        entries_[slot].value = fn(std::optional<V>(entries_[slot].value));
        Touch(slot);
        return;
      }
      Drop(pos);  // stale: replace wholesale
    }
    Insert(key, epoch, fn(std::nullopt));
  }

  /// Entries currently held, stale ones included.
  int64_t size() const { return size_; }

  int64_t capacity() const { return capacity_; }

  /// LRU evictions so far (capacity pressure, not epoch staleness).
  int64_t evictions() const { return evictions_; }

 private:
  static constexpr uint32_t kNil = ~uint32_t{0};
  static constexpr size_t kAbsent = ~size_t{0};

  struct Entry {
    uint64_t key;
    uint64_t epoch;
    uint32_t prev;  // more recently used neighbour; kNil at head_
    uint32_t next;  // less recently used neighbour, or the next free slot
    V value;
  };
  // One open-addressed index position: an entries_ slot and the low 32
  // bits of its key's hash, which give the home position and screen
  // out other keys without touching entries_.
  struct Bucket {
    uint32_t hash;
    uint32_t slot;  // kNil = empty
  };

  static uint32_t HashOf(uint64_t key) {
    return static_cast<uint32_t>(Mix64(key));
  }

  // index_ position holding `key`, or kAbsent.
  size_t Find(uint64_t key) const {
    if (index_.empty()) return kAbsent;
    const uint32_t hash = HashOf(key);
    const size_t mask = index_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      const Bucket b = index_[i];
      if (b.slot == kNil) return kAbsent;
      if (b.hash == hash && entries_[b.slot].key == key) return i;
    }
  }

  // Empties index position `pos` by backward shift: each later key of
  // the probe run moves into the hole unless its home lies after the
  // hole, so every key stays reachable from its home with no tombstone.
  void EraseIndex(size_t pos) {
    const size_t mask = index_.size() - 1;
    size_t hole = pos;
    for (size_t i = (pos + 1) & mask; index_[i].slot != kNil;
         i = (i + 1) & mask) {
      if (((i - index_[i].hash) & mask) >= ((i - hole) & mask)) {
        index_[hole] = index_[i];
        hole = i;
      }
    }
    index_[hole].slot = kNil;
  }

  void PlaceIndex(uint32_t hash, uint32_t slot) {
    const size_t mask = index_.size() - 1;
    size_t i = hash & mask;
    while (index_[i].slot != kNil) i = (i + 1) & mask;
    index_[i] = Bucket{hash, slot};
  }

  // Keeps the index at most half full; it doubles from 16 positions as
  // the cache fills, so a cache that never inserts holds no index.
  void ReserveIndex() {
    if (2 * static_cast<size_t>(size_ + 1) <= index_.size()) return;
    std::vector<Bucket> old = std::move(index_);
    index_.assign(std::max<size_t>(16, 2 * old.size()), Bucket{0, kNil});
    for (const Bucket& b : old) {
      if (b.slot != kNil) PlaceIndex(b.hash, b.slot);
    }
  }

  void Unlink(uint32_t slot) {
    const Entry& e = entries_[slot];
    (e.prev == kNil ? head_ : entries_[e.prev].next) = e.next;
    (e.next == kNil ? tail_ : entries_[e.next].prev) = e.prev;
  }

  void PushFront(uint32_t slot) {
    entries_[slot].prev = kNil;
    entries_[slot].next = head_;
    (head_ == kNil ? tail_ : entries_[head_].prev) = slot;
    head_ = slot;
  }

  void Touch(uint32_t slot) {
    if (slot == head_) return;
    Unlink(slot);
    PushFront(slot);
  }

  // Drops the (stale) entry at index position `pos`; its slot goes on
  // the free list for the next insert.
  void Drop(size_t pos) {
    const uint32_t slot = index_[pos].slot;
    EraseIndex(pos);
    Unlink(slot);
    entries_[slot].next = free_;
    free_ = slot;
    --size_;
  }

  // Inserts an absent key at the most recently used end. A full cache
  // evicts its least recently used entry first and reuses that slot;
  // otherwise a dropped slot is reused, and only then does the entry
  // array grow (geometrically, never past capacity_).
  void Insert(uint64_t key, uint64_t epoch, V value) {
    uint32_t slot;
    if (size_ == capacity_) {
      slot = tail_;
      EraseIndex(Find(entries_[slot].key));
      Unlink(slot);
      --size_;
      ++evictions_;
    } else if (free_ != kNil) {
      slot = free_;
      free_ = entries_[slot].next;
    } else {
      slot = static_cast<uint32_t>(entries_.size());
      if (entries_.size() == entries_.capacity()) {
        entries_.reserve(std::min<size_t>(
            std::max<size_t>(8, 2 * entries_.size()), capacity_));
      }
    }
    Entry entry{key, epoch, kNil, kNil, std::move(value)};
    if (slot == entries_.size()) {
      entries_.push_back(std::move(entry));
    } else {
      entries_[slot] = std::move(entry);
    }
    PushFront(slot);
    ReserveIndex();
    PlaceIndex(HashOf(key), slot);
    ++size_;
  }

  const int64_t capacity_;
  std::vector<Entry> entries_;  // size_ live entries + the free slots
  std::vector<Bucket> index_;   // power-of-two size, or empty
  uint32_t head_ = kNil;        // most recently used
  uint32_t tail_ = kNil;        // least recently used: evicted first
  uint32_t free_ = kNil;        // free-slot chain through Entry::next
  int64_t size_ = 0;
  int64_t evictions_ = 0;
};

/// One QueryCache per logical machine: a store's read-through caches
/// (kv::ShardedStore::EnableQueryCache) and algorithms' derived-fact
/// caches (sim::Cluster::MakeMachineCaches). Default-constructed =
/// caching disabled: every ForMachine() is nullptr and callers fall back
/// to uncached resolution. Inside a round, code takes a machine's cache
/// from sim::MachineContext, never from ForMachine, so that no two
/// threads share one (see the header comment).
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
