// The simulated distributed hash table, sharded per logical machine.
//
// The paper's AMPC model stores each round's data in a DHT partitioned
// across the cluster's machines, and its performance analysis (Table 4,
// Figure 8, Section 5.7) is per machine: each machine has bounded local
// space and a NIC of finite bandwidth, so a key whose records concentrate
// on one shard makes that machine the round's straggler. ShardedStore
// models exactly that placement: keys are partitioned across
// `num_shards` shards with the same kv::Placement the cluster simulator
// uses to place work (sim::Cluster::MachineOf), so shard s of a store is
// precisely the slice of the DHT held by logical machine s. The policy
// is pluggable (hash baseline, range, affinity — see kv/placement.h).
// Each shard owns its own dense slot table, presence flags, insert
// counter, and byte counter; per-shard occupancy/size/bytes are exposed
// so the cost model (sim/cluster.h) and the fault model (sim/faults.h)
// can charge skew and memory pressure to the machine that actually bears
// them.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "kv/byte_size.h"
#include "kv/placement.h"
#include "kv/query_cache.h"
#include "kv/store.h"

namespace ampc::kv {

/// The key -> (shard, local slot) assignment of a sharded store: a pure
/// function of the Placement, so factories that mint many same-shaped
/// stores (one fresh DHT per round) build it once and share it (see
/// sim::Cluster::MakeStore).
struct ShardMap {
  /// shard[k] = the shard owning key k: the placement evaluated once per
  /// key here, so no read or write re-hashes its key.
  std::vector<uint16_t> shard;
  /// local_slot[k] = slot of key k within its owning shard.
  std::vector<uint32_t> local_slot;
  /// shard_counts[s] = number of keys owned by shard s.
  std::vector<int64_t> shard_counts;
  Placement placement;

  static std::shared_ptr<const ShardMap> Build(Placement placement) {
    AMPC_CHECK_GE(placement.num_shards, 1);
    AMPC_CHECK_LE(placement.num_shards,
                  int64_t{std::numeric_limits<uint16_t>::max()} + 1);
    AMPC_CHECK_GE(placement.capacity, 0);
    AMPC_CHECK_LE(placement.capacity,
                  static_cast<int64_t>(std::numeric_limits<uint32_t>::max()));
    auto map = std::make_shared<ShardMap>();
    map->placement = placement;
    // One sequential pass keeps the assignment deterministic, and is the
    // only placement evaluation of a key below capacity: the shard column
    // keeps its result, 2 bytes per key (hence at most 65,536 shards).
    map->shard.resize(placement.capacity);
    map->local_slot.resize(placement.capacity);
    map->shard_counts.assign(placement.num_shards, 0);
    for (int64_t k = 0; k < placement.capacity; ++k) {
      const int s = placement.ShardOf(k);
      map->shard[k] = static_cast<uint16_t>(s);
      map->local_slot[k] = static_cast<uint32_t>(map->shard_counts[s]++);
    }
    return map;
  }

  /// Hash-baseline convenience, the historical constructor shape.
  static std::shared_ptr<const ShardMap> Build(int64_t capacity,
                                               int num_shards,
                                               uint64_t seed) {
    Placement placement;
    placement.policy = PlacementPolicy::kHash;
    placement.num_shards = num_shards;
    placement.seed = seed;
    placement.capacity = capacity;
    return Build(placement);
  }
};

/// A dense key -> V store partitioned into per-machine shards by a
/// kv::Placement. Keys must be < capacity. Writes of distinct keys may
/// run concurrently, and a lookup sees every record published before it
/// (see PutRange). Re-writing an existing key is not supported (AMPC
/// stores are write-once per round). Movable so factories
/// (sim::Cluster::MakeStore) can return it by value.
template <typename V>
class ShardedStore {
 public:
  ShardedStore(int64_t capacity, int num_shards, uint64_t seed)
      : ShardedStore(ShardMap::Build(capacity, num_shards, seed)) {}

  /// Shares a prebuilt key assignment (must match this store's shape).
  explicit ShardedStore(std::shared_ptr<const ShardMap> map)
      : map_(std::move(map)) {
    shards_.reserve(map_->placement.num_shards);
    for (int s = 0; s < map_->placement.num_shards; ++s) {
      shards_.push_back(std::make_unique<Store<V>>(map_->shard_counts[s]));
    }
  }

  ShardedStore(const ShardedStore&) = delete;
  ShardedStore& operator=(const ShardedStore&) = delete;
  ShardedStore(ShardedStore&&) noexcept = default;
  ShardedStore& operator=(ShardedStore&&) noexcept = default;

  int64_t capacity() const { return map_->placement.capacity; }
  int num_shards() const { return map_->placement.num_shards; }
  const Placement& placement() const { return map_->placement; }

  /// The shard (= logical machine) owning `key`: the key map's column
  /// below capacity, the placement itself past it (an absent key still
  /// has an owner to charge).
  int ShardOf(uint64_t key) const {
    return key < static_cast<uint64_t>(capacity())
               ? map_->shard[key]
               : map_->placement.ShardOf(key);
  }

  /// Writes value = make(key) for every key of [lo, hi) as one batch:
  /// publishes each record in its owning shard, then counts the batch
  /// with one add per touched shard's counters and one version() bump of
  /// hi - lo, so both move only after every record is visible. Batches
  /// over disjoint key ranges may run concurrently. Returns the batch's
  /// wire bytes.
  template <typename Make>
  int64_t PutRange(uint64_t lo, uint64_t hi, Make&& make) {
    AMPC_CHECK_LE(lo, hi);
    AMPC_CHECK_LE(hi, static_cast<uint64_t>(capacity()));
    // tally[s]: shard s's records of this batch, published but not yet
    // counted, for the shards in [first, last]. On the stack up to
    // kStackShards shards and counted over the touched range only, so a
    // one-record Put allocates nothing and visits one shard.
    struct Tally {
      int64_t records;
      int64_t bytes;
    };
    std::array<Tally, kStackShards> on_stack;
    std::vector<Tally> on_heap(num_shards() > kStackShards ? num_shards() : 0);
    Tally* tally = on_heap.empty() ? on_stack.data() : on_heap.data();
    std::fill_n(tally, num_shards(), Tally{0, 0});
    int first = num_shards(), last = -1;
    for (uint64_t key = lo; key < hi; ++key) {
      const int s = map_->shard[key];
      tally[s].bytes += shards_[s]->Publish(map_->local_slot[key], make(key));
      ++tally[s].records;
      first = std::min(first, s);
      last = std::max(last, s);
    }
    int64_t total = 0;
    for (int s = first; s <= last; ++s) {
      if (tally[s].records == 0) continue;
      shards_[s]->Count(tally[s].records, tally[s].bytes);
      total += tally[s].bytes;
    }
    // Bumped *after* the batch is published: a reader that captures the
    // pre-bump version and still misses a value stamps its cached
    // negative with an epoch the bump immediately outdates.
    version_->fetch_add(hi - lo, std::memory_order_relaxed);
    return total;
  }

  /// Inserts (key, value) into the owning shard: the one-record batch.
  /// Returns the wire size of the record.
  int64_t Put(uint64_t key, V value) {
    AMPC_CHECK_LT(key, static_cast<uint64_t>(capacity()));
    return PutRange(key, key + 1, [&value](uint64_t) {
      return std::move(value);
    });
  }

  /// Returns the value for `key`, or nullptr when absent.
  const V* Lookup(uint64_t key) const {
    if (key >= static_cast<uint64_t>(capacity())) return nullptr;
    return LookupInShard(map_->shard[key], key);
  }

  /// Lookup for a caller that already holds `shard` == ShardOf(key).
  const V* LookupInShard(int shard, uint64_t key) const {
    if (key >= static_cast<uint64_t>(capacity())) return nullptr;
    return shards_[shard]->Lookup(map_->local_slot[key]);
  }

  bool Contains(uint64_t key) const { return Lookup(key) != nullptr; }

  /// Wire size of the record for `key` (0 when absent).
  int64_t RecordBytes(uint64_t key) const {
    const V* v = Lookup(key);
    return v == nullptr ? 0 : kKeyBytes + KvByteSize(*v);
  }

  /// Number of present keys across all shards. O(num_shards).
  int64_t size() const {
    int64_t total = 0;
    for (const auto& shard : shards_) total += shard->size();
    return total;
  }

  /// Total wire bytes inserted across all shards. O(num_shards).
  int64_t total_bytes() const {
    int64_t total = 0;
    for (const auto& shard : shards_) total += shard->total_bytes();
    return total;
  }

  // Per-shard introspection — the cost and fault models read these.

  /// Present keys on shard `s`.
  int64_t ShardSize(int s) const { return shards_[s]->size(); }

  /// Key-space slice assigned to shard `s` (its slot-table capacity).
  int64_t ShardCapacity(int s) const { return shards_[s]->capacity(); }

  /// Wire bytes held by shard `s`.
  int64_t ShardBytes(int s) const { return shards_[s]->total_bytes(); }

  /// Snapshot of every shard's wire bytes, indexed by shard id.
  std::vector<int64_t> ShardBytesSnapshot() const {
    std::vector<int64_t> bytes(num_shards());
    for (int s = 0; s < num_shards(); ++s) bytes[s] = ShardBytes(s);
    return bytes;
  }

  // Replication (kv/placement.h ReplicaSet; the fault-tolerance side of
  // placement). The store never materializes follower copies — the
  // simulator charges their write traffic and memory footprint through
  // the cost model — so these are pure placement queries.

  /// Effective copies per record (Placement::EffectiveReplication).
  int replication() const {
    return map_->placement.EffectiveReplication();
  }

  /// The machines holding copies of shard `s` (primary first) — the
  /// drain/migration and hedging paths ask per shard, not per key.
  ReplicaSet ReplicasOfShard(int s) const {
    return map_->placement.ReplicasOfShard(s);
  }

  /// Per-machine resident wire bytes *including* follower copies:
  /// machine m holds its own shard plus a copy of every shard it
  /// follows. Equal to ShardBytesSnapshot() at replication 1.
  std::vector<int64_t> ReplicatedShardBytesSnapshot() const {
    std::vector<int64_t> bytes = ShardBytesSnapshot();
    if (replication() > 1) {
      for (int s = 0; s < num_shards(); ++s) {
        const ReplicaSet replicas = map_->placement.ReplicasOfShard(s);
        const int64_t shard_bytes = ShardBytes(s);
        for (size_t i = 1; i < replicas.machines.size(); ++i) {
          bytes[replicas.machines[i]] += shard_bytes;
        }
      }
    }
    return bytes;
  }

  // Query-result caching (sim::Cluster::MakeStore wires this to
  // ClusterConfig::query_cache; see kv/query_cache.h).

  /// Monotone content version: the number of records inserted so far
  /// (stores are write-once per key, so every write moves it; a batch
  /// moves it once, after its last record is published). Query caches
  /// stamp entries with the version captured *before* the underlying
  /// lookup and treat entries from older versions as stale, so a cached
  /// value — including a cached negative — can never survive a later
  /// write phase. O(1): a dedicated counter, not the per-shard size sum,
  /// because this sits on the hot cached-lookup path of every machine.
  /// Never above capacity() <= 2^32 - 1 (ShardMap::Build checks the
  /// bound, Store::Publish rejects a second write), which
  /// sim::MachineContext::CacheEpoch relies on to pack it into 32 bits.
  uint64_t version() const {
    return version_->load(std::memory_order_relaxed);
  }

  /// Attaches one bounded read-through cache per shard-owning machine
  /// (cache m serves machine m's repeated lookups locally). Idempotent
  /// per call: replaces any existing caches.
  void EnableQueryCache(int64_t capacity_per_machine) {
    query_caches_ =
        MachineCaches<const V*>(num_shards(), capacity_per_machine);
  }

  /// Machine `m`'s read-through cache, or nullptr when caching is off.
  /// Cached values are pointers into this store's slot tables (stable:
  /// shards live behind unique_ptr and records are write-once), so a
  /// hit returns exactly what the remote lookup would have. The cache
  /// takes no lock: rounds reach it only through machine m's
  /// MachineContext (Lookup, LookupManyAsync).
  QueryCache<const V*>* QueryCacheFor(int m) const {
    return query_caches_.ForMachine(m);
  }

 private:
  static constexpr int kStackShards = 64;

  // key -> (owning shard, slot within it). Shared: every same-shaped
  // store minted by a cluster reuses one map.
  std::shared_ptr<const ShardMap> map_;
  // unique_ptr keeps the atomic-bearing slot tables movable as a group.
  std::vector<std::unique_ptr<Store<V>>> shards_;
  // Per-machine read-through caches (empty = caching off). Mutable: the
  // cache warms through const lookup paths (MachineContext::Lookup takes
  // the store by const reference — caching never changes answers).
  mutable MachineCaches<const V*> query_caches_;
  // Insert counter behind version() (unique_ptr keeps the store movable).
  std::unique_ptr<std::atomic<uint64_t>> version_ =
      std::make_unique<std::atomic<uint64_t>>(0);
};

}  // namespace ampc::kv
