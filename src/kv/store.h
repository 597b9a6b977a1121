// A dense slot table: the building block of the simulated DHT.
//
// AMPC computations write each round's data into a fresh store D_i and the
// next round reads D_i with random access (paper Section 2). The paper's
// stores key by consecutive integers ("the input data is stored in D0 and
// uses a set of keys known to all machines (e.g., consecutive integers)"),
// so this simulation uses dense, fixed-capacity slot tables: key k lives
// in slot k. The DHT itself is kv::ShardedStore (sharded_store.h), which
// hash-partitions the key space across logical machines and owns one
// Store per shard; Store remains usable directly when per-machine
// placement is irrelevant (unit tests, scratch tables).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/logging.h"
#include "kv/byte_size.h"

namespace ampc::kv {

/// A dense key -> V store. Keys must be < capacity. Publish makes a
/// record visible (the slot, then its presence flag's release store);
/// Count adds published records to size() and total_bytes(), which lets
/// a writer count many with one atomic add per counter
/// (ShardedStore::PutRange counts a chunk per shard); Put does both for
/// one record. Writes of distinct keys may run concurrently. Re-writing
/// an existing key is not supported (AMPC stores are write-once per
/// round).
template <typename V>
class Store {
 public:
  explicit Store(int64_t capacity)
      : slots_(capacity), present_(capacity) {
    for (auto& p : present_) p.store(0, std::memory_order_relaxed);
  }

  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  int64_t capacity() const { return static_cast<int64_t>(slots_.size()); }

  /// Inserts (key, value): publishes the record and counts it. Returns
  /// the wire size of the record.
  int64_t Put(uint64_t key, V value) {
    const int64_t record_bytes = Publish(key, std::move(value));
    Count(1, record_bytes);
    return record_bytes;
  }

  /// Writes and publishes the record for `key` without counting it.
  /// Returns its wire size, which the writer owes to Count.
  int64_t Publish(uint64_t key, V value) {
    AMPC_CHECK_LT(key, slots_.size());
    AMPC_CHECK_EQ(present_[key].load(std::memory_order_acquire), 0)
        << "duplicate Put for key " << key;
    slots_[key] = std::move(value);
    present_[key].store(1, std::memory_order_release);
    return kKeyBytes + KvByteSize(slots_[key]);
  }

  /// Counts `records` published records of `bytes` wire bytes in all.
  void Count(int64_t records, int64_t bytes) {
    count_.fetch_add(records, std::memory_order_relaxed);
    bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }

  /// Returns the value for `key`, or nullptr when absent.
  const V* Lookup(uint64_t key) const {
    if (key >= slots_.size()) return nullptr;
    if (present_[key].load(std::memory_order_acquire) == 0) return nullptr;
    return &slots_[key];
  }

  bool Contains(uint64_t key) const { return Lookup(key) != nullptr; }

  /// Wire size of the record for `key` (0 when absent).
  int64_t RecordBytes(uint64_t key) const {
    const V* v = Lookup(key);
    return v == nullptr ? 0 : kKeyBytes + KvByteSize(*v);
  }

  /// Number of counted keys. O(1): maintained as an atomic insert
  /// counter (keys are write-once, so inserts never repeat).
  int64_t size() const { return count_.load(std::memory_order_relaxed); }

  /// Total wire bytes of every counted record. O(1): maintained as an
  /// atomic byte counter alongside the insert counter.
  int64_t total_bytes() const {
    return bytes_.load(std::memory_order_relaxed);
  }

 private:
  std::vector<V> slots_;
  mutable std::vector<std::atomic<uint8_t>> present_;
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> bytes_{0};
};

}  // namespace ampc::kv
