#include "kv/store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/timer.h"
#include "kv/byte_size.h"
#include "kv/network_model.h"
#include "kv/query_cache.h"
#include "kv/sharded_store.h"

namespace ampc::kv {
namespace {

TEST(ByteSizeTest, ScalarsAndVectors) {
  EXPECT_EQ(KvByteSize(uint32_t{5}), 4);
  EXPECT_EQ(KvByteSize(double{1.0}), 8);
  std::vector<uint32_t> v = {1, 2, 3};
  EXPECT_EQ(KvByteSize(v), 8 + 12);  // length word + payload
  EXPECT_EQ(KvByteSize(std::span<const uint32_t>(v)), KvByteSize(v));
  std::pair<uint64_t, uint32_t> p{1, 2};
  EXPECT_EQ(KvByteSize(p), 12);
}

TEST(StoreTest, PutThenLookup) {
  Store<int> store(10);
  EXPECT_EQ(store.Put(3, 42), kKeyBytes + 4);
  const int* v = store.Lookup(3);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v, 42);
}

TEST(StoreTest, MissingKeyReturnsNull) {
  Store<int> store(10);
  EXPECT_EQ(store.Lookup(3), nullptr);
  EXPECT_EQ(store.Lookup(999), nullptr);  // out of capacity: absent
  EXPECT_FALSE(store.Contains(3));
  EXPECT_EQ(store.RecordBytes(3), 0);
}

TEST(StoreTest, VectorValuesByteAccounting) {
  Store<std::vector<uint32_t>> store(4);
  std::vector<uint32_t> value = {7, 8, 9};
  const int64_t bytes = store.Put(0, value);
  EXPECT_EQ(bytes, kKeyBytes + 8 + 12);
  EXPECT_EQ(store.RecordBytes(0), bytes);
}

TEST(StoreTest, SizeCountsPresentKeys) {
  Store<int> store(100);
  store.Put(1, 10);
  store.Put(50, 20);
  EXPECT_EQ(store.size(), 2);
  EXPECT_EQ(store.capacity(), 100);
}

TEST(StoreTest, ConcurrentWritersDisjointKeys) {
  const int64_t n = 10000;
  Store<int64_t> store(n);
  std::vector<std::thread> writers;
  for (int t = 0; t < 8; ++t) {
    writers.emplace_back([&store, t] {
      for (int64_t k = t; k < n; k += 8) store.Put(k, k * 2);
    });
  }
  for (auto& t : writers) t.join();
  for (int64_t k = 0; k < n; ++k) {
    const int64_t* v = store.Lookup(k);
    ASSERT_NE(v, nullptr) << k;
    EXPECT_EQ(*v, k * 2);
  }
  // The O(1) insert counter must agree with the slot scan's answer even
  // after concurrent writers.
  EXPECT_EQ(store.size(), n);
}

TEST(StoreTest, SizeIsConstantTimeNotCapacityScan) {
  // A huge, nearly-empty store: size() must not depend on capacity.
  const int64_t capacity = 1 << 22;
  Store<int64_t> store(capacity);
  EXPECT_EQ(store.size(), 0);
  store.Put(0, 1);
  store.Put(capacity - 1, 2);
  WallTimer timer;
  int64_t total = 0;
  for (int i = 0; i < 100000; ++i) total += store.size();
  EXPECT_EQ(total, 2 * 100000);
  // 1e5 calls over a 4M-slot store: far under a second when O(1),
  // minutes when O(capacity).
  EXPECT_LT(timer.Seconds(), 2.0);
}

TEST(StoreTest, ConcurrentReadersDuringWrites) {
  const int64_t n = 4096;
  Store<int64_t> store(n);
  std::thread writer([&store] {
    for (int64_t k = 0; k < n; ++k) store.Put(k, k + 1);
  });
  // Spin until the writer finishes, verifying we never observe a
  // half-written value on the way.
  int64_t observed = 0;
  while (store.Lookup(n - 1) == nullptr) {
    const int64_t k = observed % n;
    const int64_t* v = store.Lookup(k);
    if (v != nullptr) {
      EXPECT_EQ(*v, k + 1);
    }
    ++observed;
  }
  writer.join();
  for (int64_t k = 0; k < n; ++k) {
    const int64_t* v = store.Lookup(k);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, k + 1);
  }
}

TEST(ShardedStoreTest, PutThenLookupAcrossShards) {
  const int64_t n = 1000;
  ShardedStore<int64_t> store(n, 8, /*seed=*/7);
  EXPECT_EQ(store.capacity(), n);
  EXPECT_EQ(store.num_shards(), 8);
  for (int64_t k = 0; k < n; ++k) {
    EXPECT_EQ(store.Put(k, k * 5), kKeyBytes + 8);
  }
  for (int64_t k = 0; k < n; ++k) {
    const int64_t* v = store.Lookup(k);
    ASSERT_NE(v, nullptr) << k;
    EXPECT_EQ(*v, k * 5);
  }
  EXPECT_EQ(store.Lookup(n + 5), nullptr);
  EXPECT_EQ(store.size(), n);
}

TEST(ShardedStoreTest, ShardOwnershipMatchesPlacementHash) {
  const uint64_t seed = 42;
  ShardedStore<int> store(300, 5, seed);
  for (uint64_t k = 0; k < 300; ++k) {
    EXPECT_EQ(store.ShardOf(k), ShardForKey(k, seed, 5)) << k;
  }
}

TEST(ShardedStoreTest, PerShardSizeTotalsAndCapacity) {
  const int64_t n = 2048;
  // 100 shards take Put's per-shard tally past its stack buffer.
  for (const int shards : {6, 100}) {
    ShardedStore<int32_t> store(n, shards, /*seed=*/11);
    // Write only even keys; shard sizes must sum to the written count
    // and match a direct ownership count, and capacities partition
    // [0, n).
    std::vector<int64_t> expected_size(shards, 0),
        expected_capacity(shards, 0);
    for (int64_t k = 0; k < n; ++k) {
      ++expected_capacity[store.ShardOf(k)];
      if (k % 2 == 0) {
        store.Put(k, static_cast<int32_t>(k));
        ++expected_size[store.ShardOf(k)];
      }
    }
    int64_t total_size = 0, total_capacity = 0;
    for (int s = 0; s < shards; ++s) {
      EXPECT_EQ(store.ShardSize(s), expected_size[s]) << shards << "/" << s;
      EXPECT_EQ(store.ShardCapacity(s), expected_capacity[s]) << s;
      total_size += store.ShardSize(s);
      total_capacity += store.ShardCapacity(s);
    }
    EXPECT_EQ(total_size, n / 2);
    EXPECT_EQ(total_size, store.size());
    EXPECT_EQ(total_capacity, n);
  }
}

TEST(ShardedStoreTest, PerShardByteAccounting) {
  ShardedStore<std::vector<uint32_t>> store(64, 4, /*seed=*/3);
  int64_t expected_total = 0;
  for (int64_t k = 0; k < 64; ++k) {
    expected_total +=
        store.Put(k, std::vector<uint32_t>(static_cast<size_t>(k % 7), 9u));
  }
  const std::vector<int64_t> snapshot = store.ShardBytesSnapshot();
  int64_t total = 0;
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(snapshot[s], store.ShardBytes(s));
    total += snapshot[s];
  }
  EXPECT_EQ(total, expected_total);
  EXPECT_EQ(total, store.total_bytes());
}

TEST(ShardedStoreTest, ConcurrentCrossShardWrites) {
  // Writers race across every shard simultaneously (each key is written
  // once). Run under TSAN in CI: the per-slot release/acquire publication
  // plus the per-shard atomic counters must stay race-free.
  const int64_t n = 20000;
  ShardedStore<int64_t> store(n, 8, /*seed=*/123);
  std::vector<std::thread> writers;
  for (int t = 0; t < 8; ++t) {
    writers.emplace_back([&store, t] {
      for (int64_t k = t; k < n; k += 8) store.Put(k, k * 2);
    });
  }
  for (auto& t : writers) t.join();
  for (int64_t k = 0; k < n; ++k) {
    const int64_t* v = store.Lookup(k);
    ASSERT_NE(v, nullptr) << k;
    EXPECT_EQ(*v, k * 2);
  }
  EXPECT_EQ(store.size(), n);
  int64_t shard_total = 0;
  for (int s = 0; s < store.num_shards(); ++s) {
    shard_total += store.ShardSize(s);
  }
  EXPECT_EQ(shard_total, n);
}

TEST(ShardedStoreTest, ConcurrentReadersDuringCrossShardWrites) {
  const int64_t n = 4096;
  ShardedStore<int64_t> store(n, 4, /*seed=*/99);
  std::thread writer([&store] {
    for (int64_t k = 0; k < n; ++k) store.Put(k, k + 1);
  });
  int64_t observed = 0;
  while (store.Lookup(n - 1) == nullptr) {
    const int64_t k = observed % n;
    const int64_t* v = store.Lookup(k);
    if (v != nullptr) {
      EXPECT_EQ(*v, k + 1);
    }
    ++observed;
  }
  writer.join();
  for (int64_t k = 0; k < n; ++k) {
    const int64_t* v = store.Lookup(k);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, k + 1);
  }
}

TEST(ShardedStoreTest, SingleShardBehavesLikeDenseStore) {
  ShardedStore<int> sharded(100, 1, /*seed=*/1);
  Store<int> dense(100);
  for (int64_t k = 0; k < 100; k += 3) {
    EXPECT_EQ(sharded.Put(k, static_cast<int>(k)),
              dense.Put(k, static_cast<int>(k)));
  }
  for (int64_t k = 0; k < 100; ++k) {
    EXPECT_EQ(sharded.Contains(k), dense.Contains(k)) << k;
    EXPECT_EQ(sharded.RecordBytes(k), dense.RecordBytes(k)) << k;
  }
  EXPECT_EQ(sharded.ShardCapacity(0), 100);
  EXPECT_EQ(sharded.ShardSize(0), sharded.size());
}

TEST(ShardedStoreTest, MovableAcrossFactoryReturns) {
  auto make = [] {
    ShardedStore<int64_t> store(50, 3, /*seed=*/5);
    store.Put(10, 77);
    return store;
  };
  ShardedStore<int64_t> store = make();
  ShardedStore<int64_t> moved = std::move(store);
  const int64_t* v = moved.Lookup(10);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v, 77);
  EXPECT_EQ(moved.size(), 1);
}

TEST(PlacementTest, RangePolicyKeepsRangesContiguousAndCoversAllShards) {
  Placement placement;
  placement.policy = PlacementPolicy::kRange;
  placement.num_shards = 4;
  placement.capacity = 1000;
  int prev = 0;
  std::vector<int64_t> counts(4, 0);
  for (int64_t k = 0; k < 1000; ++k) {
    const int s = placement.ShardOf(k);
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 4);
    EXPECT_GE(s, prev) << "range shards must be monotone in the key";
    prev = s;
    ++counts[s];
  }
  for (const int64_t c : counts) EXPECT_EQ(c, 250);
  // Keys past the capacity clamp to the last range owner.
  EXPECT_EQ(placement.ShardOf(5000), 3);
}

TEST(PlacementTest, AffinityPolicyKeepsBlocksTogether) {
  Placement placement;
  placement.policy = PlacementPolicy::kAffinity;
  placement.num_shards = 8;
  placement.seed = 42;
  placement.affinity_block = 32;
  std::vector<int64_t> shard_counts(8, 0);
  for (int64_t block = 0; block < 64; ++block) {
    const int owner = placement.ShardOf(block * 32);
    ++shard_counts[owner];
    for (int64_t k = block * 32; k < (block + 1) * 32; ++k) {
      EXPECT_EQ(placement.ShardOf(k), owner);
    }
  }
  // ...while distinct blocks scatter like the hash baseline.
  int populated = 0;
  for (const int64_t c : shard_counts) populated += c > 0;
  EXPECT_GT(populated, 4);
}

TEST(PlacementTest, HashPolicyMatchesShardForKey) {
  Placement placement;
  placement.policy = PlacementPolicy::kHash;
  placement.num_shards = 5;
  placement.seed = 7;
  for (uint64_t k = 0; k < 500; ++k) {
    EXPECT_EQ(placement.ShardOf(k), ShardForKey(k, 7, 5));
  }
}

TEST(PlacementTest, EqualityDistinguishesPolicies) {
  Placement hash;
  hash.num_shards = 4;
  hash.seed = 1;
  Placement range = hash;
  range.policy = PlacementPolicy::kRange;
  range.capacity = 100;
  EXPECT_FALSE(hash == range);
  Placement hash2 = hash;
  hash2.capacity = 999;  // capacity is irrelevant to the hash policy
  EXPECT_TRUE(hash == hash2);
}

TEST(ShardedStoreTest, RoundTripsUnderEveryPlacementPolicy) {
  for (const PlacementPolicy policy :
       {PlacementPolicy::kHash, PlacementPolicy::kRange,
        PlacementPolicy::kAffinity}) {
    Placement placement;
    placement.policy = policy;
    placement.num_shards = 4;
    placement.seed = 42;
    placement.capacity = 300;
    ShardedStore<int64_t> store(ShardMap::Build(placement));
    EXPECT_TRUE(store.placement() == placement);
    for (int64_t k = 0; k < 300; ++k) store.Put(k, k * 7);
    int64_t total = 0;
    for (int s = 0; s < 4; ++s) total += store.ShardSize(s);
    EXPECT_EQ(total, 300) << PlacementPolicyName(policy);
    for (uint64_t k = 0; k < 300; ++k) {
      const int64_t* v = store.Lookup(k);
      ASSERT_NE(v, nullptr) << PlacementPolicyName(policy) << " key " << k;
      EXPECT_EQ(*v, static_cast<int64_t>(k) * 7);
      EXPECT_EQ(store.ShardOf(k), placement.ShardOf(k));
    }
    // Past capacity a key is absent but still has an owner to charge:
    // the placement's, not the key map's.
    for (const uint64_t k : {uint64_t{300}, uint64_t{301}, uint64_t{4096},
                             uint64_t{1} << 40, ~uint64_t{0}}) {
      EXPECT_EQ(store.Lookup(k), nullptr);
      EXPECT_EQ(store.ShardOf(k), placement.ShardOf(k))
          << PlacementPolicyName(policy) << " key " << k;
    }
  }
}

TEST(QueryCacheTest, PutGetRoundTripAndEpochValidation) {
  QueryCache<int> cache(/*capacity=*/16);
  EXPECT_EQ(cache.Get(7, /*epoch=*/1), std::nullopt);
  cache.Put(7, 1, 70);
  EXPECT_EQ(cache.Get(7, 1), std::optional<int>(70));
  // An entry from another epoch is stale: absent, and dropped for good
  // (epochs only move forward).
  EXPECT_EQ(cache.Get(7, 2), std::nullopt);
  EXPECT_EQ(cache.Get(7, 1), std::nullopt);
  EXPECT_EQ(cache.size(), 0);
}

TEST(QueryCacheTest, CapacityEvictionIsLeastRecentlyUsed) {
  QueryCache<int> cache(/*capacity=*/4);
  EXPECT_EQ(cache.capacity(), 4);
  for (uint64_t k = 0; k < 4; ++k) {
    cache.Put(k, 0, static_cast<int>(k) * 10);
  }
  EXPECT_EQ(cache.size(), 4);
  // Touch key 0 so key 1 becomes the least recently used entry.
  EXPECT_EQ(cache.Get(0, 0), std::optional<int>(0));
  cache.Put(9, 0, 90);
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_EQ(cache.Get(1, 0), std::nullopt);  // evicted
  EXPECT_EQ(cache.Get(0, 0), std::optional<int>(0));
  EXPECT_EQ(cache.Get(9, 0), std::optional<int>(90));
  EXPECT_EQ(cache.size(), 4);
}

TEST(QueryCacheTest, TinyCapacitiesAreNeverExceeded) {
  QueryCache<int> cache(/*capacity=*/4);
  EXPECT_EQ(cache.capacity(), 4);
  for (uint64_t k = 0; k < 64; ++k) {
    cache.Put(k, 0, static_cast<int>(k));
  }
  EXPECT_LE(cache.size(), 4);
  EXPECT_GE(cache.evictions(), 60);

  QueryCache<int> single(/*capacity=*/1);
  EXPECT_EQ(single.capacity(), 1);
  single.Put(1, 0, 10);
  single.Put(2, 0, 20);
  EXPECT_EQ(single.size(), 1);
}

TEST(QueryCacheTest, UpdateIsReadModifyWrite) {
  QueryCache<int> cache(/*capacity=*/8);
  // Absent: fn sees nullopt and seeds the entry.
  cache.Update(3, 1, [](std::optional<int> cur) {
    EXPECT_EQ(cur, std::nullopt);
    return 5;
  });
  // Present and epoch-valid: fn sees the current value.
  cache.Update(3, 1, [](std::optional<int> cur) {
    return cur.value_or(0) + 2;
  });
  EXPECT_EQ(cache.Get(3, 1), std::optional<int>(7));
  // Stale: fn sees nullopt again (the old-epoch value must not leak).
  cache.Update(3, 2, [](std::optional<int> cur) {
    EXPECT_EQ(cur, std::nullopt);
    return 11;
  });
  EXPECT_EQ(cache.Get(3, 2), std::optional<int>(11));
}

// The list + map LRU that QueryCache's flat table replaced, kept as the
// reference it must match op for op: same value returned, same entry
// dropped or evicted.
template <typename V>
class ReferenceLru {
 public:
  explicit ReferenceLru(int64_t capacity) : capacity_(capacity) {}

  std::optional<V> Get(uint64_t key, uint64_t epoch) {
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

  void Put(uint64_t key, uint64_t epoch, V value) {
    const auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->epoch = epoch;
      it->second->value = value;
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    Insert(key, epoch, value);
  }

  template <typename Fn>
  void Update(uint64_t key, uint64_t epoch, Fn&& fn) {
    const auto it = index_.find(key);
    if (it != index_.end() && it->second->epoch == epoch) {
      it->second->value = fn(std::optional<V>(it->second->value));
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    if (it != index_.end()) {
      lru_.erase(it->second);
      index_.erase(it);
    }
    Insert(key, epoch, fn(std::nullopt));
  }

  int64_t size() const { return static_cast<int64_t>(index_.size()); }
  int64_t evictions() const { return evictions_; }

 private:
  struct Entry {
    uint64_t key;
    uint64_t epoch;
    V value;
  };

  void Insert(uint64_t key, uint64_t epoch, V value) {
    lru_.push_front(Entry{key, epoch, value});
    index_.emplace(key, lru_.begin());
    if (static_cast<int64_t>(index_.size()) > capacity_) {
      index_.erase(lru_.back().key);
      lru_.pop_back();
      ++evictions_;
    }
  }

  const int64_t capacity_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<uint64_t, typename std::list<Entry>::iterator> index_;
  int64_t evictions_ = 0;
};

// Drives QueryCache and the reference with one seeded stream of Get, Put
// and Update over key spaces from half to five times the capacity. The
// epoch moves forward now and then, and some probes carry the previous
// epoch, so stale entries are dropped, refreshed and replaced. After
// every op the value returned (or seen by Update), size() and
// evictions() must agree.
TEST(QueryCacheTest, MatchesReferenceLru) {
  for (const int64_t capacity : {1, 2, 3, 4, 7, 16, 64, 300}) {
    for (const double spread : {0.5, 1.0, 2.0, 5.0}) {
      const uint64_t keys = std::max<uint64_t>(
          1, static_cast<uint64_t>(spread * static_cast<double>(capacity)));
      QueryCache<int64_t> cache(capacity);
      ReferenceLru<int64_t> ref(capacity);
      Rng rng(static_cast<uint64_t>(capacity) * 1000 + keys);
      uint64_t epoch = 1;
      for (int op = 0; op < 50000; ++op) {
        const auto where = [&] {
          return ::testing::Message()
                 << "capacity " << capacity << " keys " << keys << " op " << op;
        };
        if (rng.NextBelow(50) == 0) ++epoch;
        const uint64_t e = rng.NextBelow(8) == 0 ? epoch - 1 : epoch;
        const uint64_t key = rng.NextBelow(keys);
        const int64_t value = static_cast<int64_t>(rng.NextBelow(1000));
        switch (rng.NextBelow(3)) {
          case 0:
            ASSERT_EQ(cache.Get(key, e), ref.Get(key, e)) << where();
            break;
          case 1:
            cache.Put(key, e, value);
            ref.Put(key, e, value);
            break;
          default: {
            std::optional<int64_t> seen, ref_seen;
            cache.Update(key, e, [&](std::optional<int64_t> cur) {
              seen = cur;
              return cur.value_or(value) + 1;
            });
            ref.Update(key, e, [&](std::optional<int64_t> cur) {
              ref_seen = cur;
              return cur.value_or(value) + 1;
            });
            ASSERT_EQ(seen, ref_seen) << where();
          }
        }
        ASSERT_EQ(cache.size(), ref.size()) << where();
        ASSERT_EQ(cache.evictions(), ref.evictions()) << where();
      }
    }
  }
}

TEST(QueryCacheTest, MachineCachesDisabledReturnsNull) {
  MachineCaches<int> disabled;
  EXPECT_FALSE(disabled.enabled());
  EXPECT_EQ(disabled.ForMachine(0), nullptr);
  MachineCaches<int> enabled(/*num_machines=*/3, /*capacity=*/16);
  EXPECT_TRUE(enabled.enabled());
  for (int m = 0; m < 3; ++m) {
    ASSERT_NE(enabled.ForMachine(m), nullptr);
  }
  // Machines do not share entries.
  enabled.ForMachine(0)->Put(1, 0, 10);
  EXPECT_EQ(enabled.ForMachine(1)->Get(1, 0), std::nullopt);
  EXPECT_EQ(enabled.ForMachine(0)->Get(1, 0), std::optional<int>(10));
}

TEST(ShardedStoreTest, VersionMovesOnEveryWrite) {
  ShardedStore<int64_t> store(100, 4, /*seed=*/7);
  EXPECT_EQ(store.version(), 0u);
  store.Put(3, 30);
  EXPECT_EQ(store.version(), 1u);
  store.Put(60, 600);
  EXPECT_EQ(store.version(), 2u);
}

TEST(ShardedStoreTest, QueryCacheForIsPerMachine) {
  ShardedStore<int64_t> store(100, 4, /*seed=*/7);
  EXPECT_EQ(store.QueryCacheFor(0), nullptr);  // off by default
  store.EnableQueryCache(/*capacity_per_machine=*/32);
  for (int m = 0; m < 4; ++m) {
    ASSERT_NE(store.QueryCacheFor(m), nullptr);
  }
  EXPECT_NE(store.QueryCacheFor(0), store.QueryCacheFor(1));
  // The caches hold pointers into the store's stable slot tables.
  store.Put(5, 55);
  const int64_t* record = store.Lookup(5);
  store.QueryCacheFor(0)->Put(5, store.version(), record);
  const auto hit = store.QueryCacheFor(0)->Get(5, store.version());
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, record);
}

TEST(PlacementReplicationTest, ReplicasAreDistinctStableAndPrimaryFirst) {
  for (const int shards : {2, 5, 8}) {
    for (const int replication : {1, 2, 3}) {
      Placement placement;
      placement.num_shards = shards;
      placement.seed = 17;
      placement.replication = replication;
      const int copies = std::min(replication, shards);
      for (int s = 0; s < shards; ++s) {
        const ReplicaSet set = placement.ReplicasOfShard(s);
        ASSERT_EQ(set.replication(), copies) << s;
        EXPECT_EQ(set.primary(), s);
        std::set<int> distinct(set.machines.begin(), set.machines.end());
        EXPECT_EQ(static_cast<int>(distinct.size()), copies) << s;
        for (const int m : set.machines) {
          EXPECT_GE(m, 0);
          EXPECT_LT(m, shards);
        }
        // Pure function of (seed, shards, replication).
        EXPECT_EQ(placement.ReplicasOfShard(s).machines, set.machines);
      }
    }
  }
}

TEST(PlacementReplicationTest, EffectiveReplicationClampsToMachineCount) {
  Placement placement;
  placement.num_shards = 3;
  placement.replication = 8;
  EXPECT_EQ(placement.EffectiveReplication(), 3);
  placement.replication = 1;
  EXPECT_EQ(placement.EffectiveReplication(), 1);
}

TEST(ShardedStoreTest, ReplicatedSnapshotAddsFollowerCopies) {
  Placement placement;
  placement.num_shards = 4;
  placement.seed = 9;
  placement.capacity = 512;
  placement.replication = 2;
  ShardedStore<int64_t> store(ShardMap::Build(placement));
  for (int64_t k = 0; k < 512; ++k) store.Put(k, k);
  EXPECT_EQ(store.replication(), 2);
  const std::vector<int64_t> primary = store.ShardBytesSnapshot();
  const std::vector<int64_t> replicated =
      store.ReplicatedShardBytesSnapshot();
  int64_t primary_total = 0, replicated_total = 0;
  for (int s = 0; s < 4; ++s) {
    primary_total += primary[s];
    replicated_total += replicated[s];
    EXPECT_GE(replicated[s], primary[s]) << s;
  }
  // Every record exists exactly twice cluster-wide.
  EXPECT_EQ(replicated_total, 2 * primary_total);
}

TEST(ShardedStoreTest, ReplicationOneSnapshotIsUnchanged) {
  ShardedStore<int64_t> store(256, 4, /*seed=*/5);
  for (int64_t k = 0; k < 256; ++k) store.Put(k, k);
  EXPECT_EQ(store.replication(), 1);
  EXPECT_EQ(store.ReplicatedShardBytesSnapshot(),
            store.ShardBytesSnapshot());
}

TEST(NetworkModelTest, PresetsAreOrdered) {
  const NetworkModel rdma = NetworkModel::Rdma();
  const NetworkModel tcp = NetworkModel::TcpIp();
  EXPECT_LT(rdma.lookup_latency_sec, tcp.lookup_latency_sec);
  EXPECT_GE(rdma.bytes_per_sec, tcp.bytes_per_sec);
  EXPECT_EQ(rdma.name, "RDMA");
  EXPECT_EQ(tcp.name, "TCP/IP");
  const NetworkModel free = NetworkModel::Free();
  EXPECT_EQ(free.lookup_latency_sec, 0);
}

}  // namespace
}  // namespace ampc::kv
