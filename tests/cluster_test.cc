#include "sim/cluster.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "baselines/boruvka.h"
#include "common/thread_pool.h"
#include "core/connectivity.h"
#include "core/kcore.h"
#include "core/matching.h"
#include "core/mis.h"
#include "core/msf.h"
#include "core/one_vs_two_cycle.h"
#include "core/pagerank.h"
#include "graph/generators.h"
#include "graph/graph.h"

namespace ampc::sim {
namespace {

ClusterConfig TestConfig() {
  ClusterConfig config;
  config.num_machines = 4;
  config.threads_per_machine = 2;
  config.network = kv::NetworkModel::Rdma();
  return config;
}

// Resolves `keys` (at most max_batch_keys of them) as one pipelined
// sub-batch and settles it at once.
template <typename V>
kv::LookupBatchResult<V> LookupWindow(MachineContext& ctx,
                                      const kv::ShardedStore<V>& store,
                                      std::span<const uint64_t> keys) {
  kv::LookupTicket<V> ticket = ctx.LookupManyAsync(store, keys);
  return ctx.Await(ticket);
}

// Reads every key in one adaptive step of DriveLookupPipelined (one
// state per key), so windows, depth and the drain are the production
// driver's. values[i] answers keys[i].
template <typename V>
std::vector<const V*> DriveLookups(MachineContext& ctx,
                                   const kv::ShardedStore<V>& store,
                                   const std::vector<uint64_t>& keys) {
  struct Read {
    uint64_t key;
    const V* value = nullptr;
    bool done = false;
  };
  std::vector<Read> reads;
  reads.reserve(keys.size());
  for (const uint64_t key : keys) reads.push_back(Read{key});
  DriveLookupPipelined(
      ctx, store, reads, [](const Read& r) { return r.done; },
      [](const Read& r) { return r.key; },
      [](Read& r, const V* value) {
        r.value = value;
        r.done = true;
      });
  std::vector<const V*> values;
  values.reserve(reads.size());
  for (const Read& r : reads) values.push_back(r.value);
  return values;
}

TEST(ClusterTest, MachineOfIsStableAndInRange) {
  Cluster cluster(TestConfig());
  for (uint64_t k = 0; k < 1000; ++k) {
    const int m = cluster.MachineOf(k, 1000);
    EXPECT_GE(m, 0);
    EXPECT_LT(m, 4);
    EXPECT_EQ(m, cluster.MachineOf(k, 1000));
  }
}

TEST(ClusterTest, ShuffleAccounting) {
  Cluster cluster(TestConfig());
  cluster.AccountShuffle("phase", 1000);
  cluster.AccountShuffle("phase", 500);
  EXPECT_EQ(cluster.metrics().Get("shuffles"), 2);
  EXPECT_EQ(cluster.metrics().Get("rounds"), 2);
  EXPECT_EQ(cluster.metrics().Get("shuffle_bytes"), 1500);
  EXPECT_GT(cluster.SimSeconds(), 0.0);
}

TEST(ClusterTest, MapRoundCountsRoundNotShuffle) {
  Cluster cluster(TestConfig());
  cluster.AccountMapRound("m");
  EXPECT_EQ(cluster.metrics().Get("rounds"), 1);
  EXPECT_EQ(cluster.metrics().Get("shuffles"), 0);
}

TEST(ClusterTest, RunMapPhaseVisitsEveryItemOnce) {
  Cluster cluster(TestConfig());
  const int64_t n = 5000;
  std::vector<std::atomic<int>> hits(n);
  cluster.RunMapPhase("visit", n, [&](int64_t item, MachineContext&) {
    hits[item].fetch_add(1);
  });
  for (int64_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  EXPECT_EQ(cluster.metrics().Get("map_items"), n);
  EXPECT_EQ(cluster.metrics().Get("rounds"), 1);
}

TEST(ClusterTest, MapPhaseRoutesItemsToOwningMachine) {
  Cluster cluster(TestConfig());
  std::atomic<int> mismatches{0};
  cluster.RunMapPhase("route", 2000, [&](int64_t item, MachineContext& ctx) {
    if (cluster.MachineOf(item, 2000) != ctx.machine_id()) {
      mismatches.fetch_add(1);
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ClusterTest, KvWriteAndLookupAccounting) {
  Cluster cluster(TestConfig());
  kv::ShardedStore<int64_t> store = cluster.MakeStore<int64_t>(100);
  cluster.RunKvWritePhase("w", store, 100, [](int64_t k) { return k * 3; });
  EXPECT_EQ(cluster.metrics().Get("kv_writes"), 100);
  EXPECT_GT(cluster.metrics().Get("kv_write_bytes"), 0);

  std::atomic<int64_t> sum{0};
  cluster.RunMapPhase("r", 100, [&](int64_t item, MachineContext& ctx) {
    const int64_t* v = ctx.Lookup(store, item);
    ASSERT_NE(v, nullptr);
    sum.fetch_add(*v);
  });
  EXPECT_EQ(sum.load(), 3 * 99 * 100 / 2);
  EXPECT_EQ(cluster.metrics().Get("kv_reads"), 100);
  EXPECT_GT(cluster.metrics().Get("kv_read_bytes"), 0);
}

TEST(ClusterTest, LocalLookupNotCharged) {
  Cluster cluster(TestConfig());
  kv::ShardedStore<int64_t> store = cluster.MakeStore<int64_t>(10);
  cluster.RunKvWritePhase("w", store, 10, [](int64_t k) { return k; });
  cluster.RunMapPhase("r", 10, [&](int64_t item, MachineContext& ctx) {
    ctx.LookupLocal(store, item);
  });
  EXPECT_EQ(cluster.metrics().Get("kv_reads"), 0);
}

TEST(ClusterTest, CacheCountersFlow) {
  Cluster cluster(TestConfig());
  cluster.RunMapPhase("c", 10, [&](int64_t item, MachineContext& ctx) {
    if (item % 2 == 0) {
      ctx.CountCacheHit();
    } else {
      ctx.CountCacheMiss();
    }
  });
  EXPECT_EQ(cluster.metrics().Get("cache_hits"), 5);
  EXPECT_EQ(cluster.metrics().Get("cache_misses"), 5);
}

TEST(ClusterTest, MissingKeyLookupReturnsNullAndCharges) {
  Cluster cluster(TestConfig());
  kv::ShardedStore<int64_t> store =
      cluster.MakeStore<int64_t>(10);  // nothing written
  std::atomic<int> nulls{0};
  cluster.RunMapPhase("miss", 10, [&](int64_t item, MachineContext& ctx) {
    if (ctx.Lookup(store, item) == nullptr) nulls.fetch_add(1);
  });
  EXPECT_EQ(nulls.load(), 10);
  EXPECT_EQ(cluster.metrics().Get("kv_reads"), 10);
}

TEST(ClusterTest, SimTimeScalesWithMachines) {
  // The same KV-heavy phase should be faster (in simulated time) on more
  // machines — the Figure 8 self-speedup mechanism.
  auto run = [](int machines) {
    ClusterConfig config;
    config.num_machines = machines;
    config.threads_per_machine = 1;
    Cluster cluster(config);
    kv::ShardedStore<int64_t> store = cluster.MakeStore<int64_t>(20000);
    cluster.RunKvWritePhase("w", store, 20000,
                            [](int64_t k) { return k; });
    cluster.RunMapPhase("r", 20000, [&](int64_t item, MachineContext& ctx) {
      ctx.Lookup(store, (item * 7919) % 20000);
    });
    return cluster.metrics().GetTime("sim:r");
  };
  EXPECT_GT(run(1), run(16));
}

TEST(ClusterTest, MultithreadingReducesSimTime) {
  auto run = [](bool multithreading) {
    ClusterConfig config;
    config.num_machines = 2;
    config.threads_per_machine = 8;
    config.multithreading = multithreading;
    Cluster cluster(config);
    kv::ShardedStore<int64_t> store = cluster.MakeStore<int64_t>(20000);
    cluster.RunKvWritePhase("w", store, 20000,
                            [](int64_t k) { return k; });
    cluster.RunMapPhase("r", 20000, [&](int64_t item, MachineContext& ctx) {
      ctx.Lookup(store, (item * 13) % 20000);
    });
    return cluster.metrics().GetTime("sim:r");
  };
  EXPECT_GT(run(false), run(true));
}

TEST(ClusterTest, TcpSlowerThanRdmaInSimTime) {
  auto run = [](kv::NetworkModel model) {
    ClusterConfig config;
    config.num_machines = 2;
    config.network = model;
    Cluster cluster(config);
    kv::ShardedStore<int64_t> store = cluster.MakeStore<int64_t>(20000);
    cluster.RunKvWritePhase("w", store, 20000,
                            [](int64_t k) { return k; });
    cluster.RunMapPhase("r", 20000, [&](int64_t item, MachineContext& ctx) {
      ctx.Lookup(store, (item * 13) % 20000);
    });
    return cluster.metrics().GetTime("sim:r");
  };
  EXPECT_GT(run(kv::NetworkModel::TcpIp()), run(kv::NetworkModel::Rdma()));
}


TEST(ClusterTest, MakeStoreShardingMatchesMachineOf) {
  Cluster cluster(TestConfig());
  kv::ShardedStore<int64_t> store = cluster.MakeStore<int64_t>(500);
  ASSERT_EQ(store.num_shards(), cluster.config().num_machines);
  for (uint64_t k = 0; k < 500; ++k) {
    EXPECT_EQ(store.ShardOf(k), cluster.MachineOf(k, 500)) << k;
  }
}

// A read through MachineContext checks that the store was minted by a
// cluster of the same sharding and placement: a foreign store's ShardOf
// would route the read's charges to the wrong machines.
TEST(ClusterDeathTest, LookupRejectsAStoreFromAnotherCluster) {
  // The lookups run on pool threads; re-executing the binary for each
  // death test keeps the child process from forking with live threads.
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  const auto read_store_minted_by = [](const ClusterConfig& minter) {
    Cluster source(minter);
    kv::ShardedStore<int64_t> store = source.MakeStore<int64_t>(100);
    source.RunKvWritePhase("w", store, 100, [](int64_t k) { return k; });
    Cluster cluster(TestConfig());
    cluster.RunMapPhase("r", 100, [&](int64_t item, MachineContext& ctx) {
      ctx.Lookup(store, static_cast<uint64_t>(item));
    });
  };
  ClusterConfig range = TestConfig();
  range.placement_policy = kv::PlacementPolicy::kRange;
  EXPECT_DEATH(read_store_minted_by(range), "store placement disagrees");
  ClusterConfig wider = TestConfig();
  wider.num_machines = 8;
  EXPECT_DEATH(read_store_minted_by(wider), "store sharding disagrees");
}

TEST(ClusterTest, WritePhaseChargesOwningShards) {
  // 1,000 keys fit in one chunk, which runs inline. 100,000 records of
  // varying wire size run as concurrent chunks, each of which publishes
  // its records and then counts them once per shard: the per-shard
  // counters must still add up to a serial sum over the records.
  const auto check = [](int64_t n, auto value_of) {
    using V = decltype(value_of(int64_t{0}));
    Cluster cluster(TestConfig());
    kv::ShardedStore<V> store = cluster.MakeStore<V>(n);
    cluster.RunKvWritePhase("w", store, n, value_of);
    std::vector<int64_t> records(store.num_shards(), 0);
    std::vector<int64_t> bytes(store.num_shards(), 0);
    for (int64_t k = 0; k < n; ++k) {
      ++records[store.ShardOf(k)];
      bytes[store.ShardOf(k)] += store.RecordBytes(k);
    }
    int64_t expected_hot = 0;
    for (int m = 0; m < store.num_shards(); ++m) {
      EXPECT_EQ(store.ShardSize(m), records[m]) << "n " << n << " shard " << m;
      EXPECT_EQ(store.ShardBytes(m), bytes[m]) << "n " << n << " shard " << m;
      EXPECT_EQ(cluster.machine_kv_write_bytes()[m], bytes[m]);
      expected_hot = std::max(expected_hot, bytes[m]);
    }
    EXPECT_EQ(store.version(), static_cast<uint64_t>(n));
    EXPECT_EQ(cluster.metrics().Get("kv_writes"), n);
    EXPECT_EQ(cluster.metrics().Get("kv_hot_machine_write_bytes"),
              expected_hot);
  };
  check(1000, [](int64_t k) { return k; });
  check(100000, [](int64_t k) {
    return std::vector<int64_t>(static_cast<size_t>(k % 13), k);
  });
}

// Regression for the old uniform bytes/num_machines charging: a skewed
// key distribution (~90% of the bytes landing on one machine's shard)
// must cost strictly more simulated write time than a uniform one of the
// same total byte volume.
TEST(ClusterTest, SkewedWriteBytesCostMoreThanUniform) {
  const int64_t n = 4000;
  auto run = [&](bool skewed) {
    ClusterConfig config = TestConfig();
    Cluster cluster(config);
    // Count keys on machine 0 so both producers emit the same total.
    int64_t hot_keys = 0;
    for (int64_t k = 0; k < n; ++k) hot_keys += cluster.MachineOf(k, n) == 0;
    const int64_t total_values = 64 * n;
    const int64_t hot_value = total_values * 9 / (10 * hot_keys);
    const int64_t cold_value =
        (total_values - hot_value * hot_keys) / (n - hot_keys);
    auto store = cluster.MakeStore<std::vector<uint8_t>>(n);
    cluster.RunKvWritePhase(
        "w", store, n, [&](int64_t k) {
          int64_t len = 64;
          if (skewed) {
            len = cluster.MachineOf(k, n) == 0 ? hot_value : cold_value;
          }
          return std::vector<uint8_t>(static_cast<size_t>(len), 0);
        });
    return cluster.metrics().GetTime("sim:w");
  };
  EXPECT_GT(run(true), run(false));
}

TEST(ClusterTest, HotKeyLookupsCostMoreThanSpread) {
  const int64_t n = 4000;
  auto run = [&](bool hot) {
    ClusterConfig config = TestConfig();
    // Uncached client: this test pins the raw hot-shard penalty (the
    // query cache would absorb the repeated key after one fetch per
    // machine — QueryCacheRescuesHotKeyReads covers that).
    config.query_cache.enabled = false;
    Cluster cluster(config);
    auto store = cluster.MakeStore<std::vector<uint8_t>>(n);
    cluster.RunKvWritePhase("w", store, n, [](int64_t) {
      return std::vector<uint8_t>(256, 1);
    });
    cluster.RunMapPhase("r", n, [&](int64_t item, MachineContext& ctx) {
      ctx.Lookup(store, hot ? 0 : static_cast<uint64_t>(item));
    });
    return cluster.metrics().GetTime("sim:r");
  };
  // Every record fetched in the hot run ships from one machine's shard.
  EXPECT_GT(run(true), run(false));
}

TEST(ClusterTest, ShardedShuffleSkewCostsMore) {
  Cluster a(TestConfig()), b(TestConfig());
  a.AccountShardedShuffle("s", {25'000'000, 25'000'000, 25'000'000,
                                25'000'000});
  b.AccountShardedShuffle("s", {91'000'000, 3'000'000, 3'000'000,
                                3'000'000});
  EXPECT_EQ(a.metrics().Get("shuffle_bytes"),
            b.metrics().Get("shuffle_bytes"));
  EXPECT_GT(b.metrics().GetTime("sim:s"), a.metrics().GetTime("sim:s"));
  EXPECT_EQ(b.metrics().Get("shuffle_hot_machine_bytes"), 91'000'000);
}

// Pins the skew-aware settle math: the round lasts as long as the
// slowest machine's client latency plus the bytes its own shard serves,
// plus the spawn overhead.
TEST(ClusterTest, SettleMathChargesServerSideBytes) {
  ClusterConfig config;
  config.num_machines = 2;
  config.threads_per_machine = 1;
  config.query_cache.enabled = false;  // pins the uncached client math
  config.map_item_cpu_sec = 0.0;
  config.round_spawn_sec = 0.125;
  config.network.lookup_latency_sec = 1e-3;
  config.network.bytes_per_sec = 1e6;
  config.network.aggregate_bytes_per_sec = 1e18;  // floor never binds
  Cluster cluster(config);

  const int64_t n = 64;
  kv::ShardedStore<int64_t> store = cluster.MakeStore<int64_t>(n);
  cluster.RunKvWritePhase("w", store, n, [](int64_t k) { return k; });

  const uint64_t hot = 3;
  const int hot_owner = cluster.MachineOf(hot, n);
  cluster.RunMapPhase("r", n, [&](int64_t item, MachineContext& ctx) {
    const int64_t* v = ctx.Lookup(store, hot);
    ASSERT_NE(v, nullptr);
    (void)item;
  });

  // Each machine issues one query per item it owns and receives that
  // record through its own NIC; every record ships *from* the hot key's
  // owner.
  std::vector<int64_t> queries(2, 0);
  for (int64_t i = 0; i < n; ++i) ++queries[cluster.MachineOf(i, n)];
  const int64_t record =
      kv::kKeyBytes + static_cast<int64_t>(sizeof(int64_t));
  double slowest = 0;
  for (int m = 0; m < 2; ++m) {
    const double client =
        queries[m] * config.network.lookup_latency_sec +
        static_cast<double>(queries[m]) * record /
            config.network.bytes_per_sec;
    const double server =
        m == hot_owner ? static_cast<double>(n) * record /
                             config.network.bytes_per_sec
                       : 0.0;
    slowest = std::max(slowest, client + server);
  }
  EXPECT_NEAR(cluster.metrics().GetTime("sim:r"),
              slowest + config.round_spawn_sec, 1e-12);
  EXPECT_EQ(cluster.metrics().Get("kv_hot_machine_read_bytes"),
            n * record);
}

// Pins the write-phase settle math symmetrically.
TEST(ClusterTest, WriteSettleMathChargesOwningShard) {
  ClusterConfig config;
  config.num_machines = 2;
  config.threads_per_machine = 1;
  config.round_spawn_sec = 0.25;
  config.network.write_latency_sec = 1e-4;
  config.network.bytes_per_sec = 1e6;
  config.network.aggregate_bytes_per_sec = 1e18;
  Cluster cluster(config);

  const int64_t n = 64;
  kv::ShardedStore<int64_t> store = cluster.MakeStore<int64_t>(n);
  cluster.RunKvWritePhase("w", store, n, [](int64_t k) { return k; });

  const int64_t record =
      kv::kKeyBytes + static_cast<int64_t>(sizeof(int64_t));
  double slowest = 0;
  for (int m = 0; m < 2; ++m) {
    const double machine_time =
        store.ShardSize(m) * config.network.write_latency_sec +
        static_cast<double>(store.ShardBytes(m)) /
            config.network.bytes_per_sec;
    slowest = std::max(slowest, machine_time);
  }
  EXPECT_EQ(store.ShardBytes(0) + store.ShardBytes(1), n * record);
  EXPECT_NEAR(cluster.metrics().GetTime("sim:w"),
              slowest + config.round_spawn_sec, 1e-12);
}

TEST(ClusterTest, InMemoryFinishChargesGatherShuffle) {
  Cluster cluster(TestConfig());
  cluster.AccountInMemoryFinish("f", 1000, 500);
  EXPECT_EQ(cluster.metrics().Get("shuffles"), 1);
  cluster.AccountInMemoryCompute("g", 500);
  EXPECT_EQ(cluster.metrics().Get("shuffles"), 1);  // compute adds none
}

TEST(ClusterTest, BatchedLookupReturnsSameValuesAsScalarLookup) {
  ClusterConfig config = TestConfig();
  // Uncached: the second batch below re-fetches every key, so the two
  // batches' byte/destination accounting must be identical.
  config.query_cache.enabled = false;
  Cluster cluster(config);
  kv::ShardedStore<int64_t> store = cluster.MakeStore<int64_t>(200);
  cluster.RunKvWritePhase("w", store, 100, [](int64_t k) { return 5 * k; });
  std::atomic<int> mismatches{0};
  cluster.RunBatchMapPhase(
      "r", 200, [&](std::span<const int64_t> items, MachineContext& ctx) {
        // A repeat of the same batch must answer identically.
        std::vector<uint64_t> keys(items.begin(), items.end());
        const auto batch = LookupWindow(ctx, store, keys);
        const auto again = LookupWindow(ctx, store, keys);
        ASSERT_EQ(batch.values.size(), keys.size());
        ASSERT_EQ(again.values, batch.values);
        ASSERT_EQ(again.destinations, batch.destinations);
        ASSERT_EQ(again.bytes, batch.bytes);
        for (size_t i = 0; i < keys.size(); ++i) {
          // Keys >= 100 were never written: both paths must agree on
          // absence too.
          const int64_t* scalar = store.Lookup(keys[i]);
          if (batch.values[i] != scalar) mismatches.fetch_add(1);
        }
      });
  EXPECT_EQ(mismatches.load(), 0);
  // Batch metrics flowed: both batches charged all 200 keys each.
  EXPECT_EQ(cluster.metrics().Get("kv_reads"), 400);
  EXPECT_GT(cluster.metrics().Get("kv_batches"), 0);
}

// Pins the batched settle math: a batch charges one round-trip latency
// per distinct destination machine — not one per key — while bytes stay
// charged per machine (client receives, owner serves).
TEST(ClusterTest, BatchSettleMathChargesPerDestination) {
  ClusterConfig config;
  config.num_machines = 2;
  config.threads_per_machine = 1;
  config.query_cache.enabled = false;  // pins the uncached batch math
  config.map_item_cpu_sec = 0.0;
  config.round_spawn_sec = 0.125;
  config.network.lookup_latency_sec = 1e-3;
  config.network.bytes_per_sec = 1e6;
  config.network.aggregate_bytes_per_sec = 1e18;  // floor never binds
  Cluster cluster(config);

  const int64_t n = 64;
  kv::ShardedStore<int64_t> store = cluster.MakeStore<int64_t>(n);
  cluster.RunKvWritePhase("w", store, n, [](int64_t k) { return k; });

  // Every item fetches the whole key space in one batch: exactly 2
  // destinations per batch regardless of the 64 keys inside.
  std::vector<uint64_t> all_keys(n);
  for (int64_t k = 0; k < n; ++k) all_keys[k] = static_cast<uint64_t>(k);
  cluster.RunMapPhase("r", n, [&](int64_t, MachineContext& ctx) {
    const auto batch = LookupWindow(ctx, store, all_keys);
    ASSERT_EQ(batch.destinations, 2);
  });

  const int64_t record =
      kv::kKeyBytes + static_cast<int64_t>(sizeof(int64_t));
  std::vector<int64_t> items_on(2, 0), keys_on(2, 0);
  for (int64_t i = 0; i < n; ++i) ++items_on[cluster.MachineOf(i, n)];
  for (int64_t k = 0; k < n; ++k) ++keys_on[cluster.MachineOf(k, n)];
  double slowest = 0;
  for (int m = 0; m < 2; ++m) {
    // Client: one batch per item it runs, 2 trips per batch; it receives
    // all n records per batch through its NIC.
    const double client =
        items_on[m] * 2 * config.network.lookup_latency_sec +
        static_cast<double>(items_on[m]) * n * record /
            config.network.bytes_per_sec;
    // Server: its shard serves its keys_on[m] records to every item.
    const double server = static_cast<double>(n) * keys_on[m] * record /
                          config.network.bytes_per_sec;
    slowest = std::max(slowest, client + server);
  }
  EXPECT_NEAR(cluster.metrics().GetTime("sim:r"),
              slowest + config.round_spawn_sec, 1e-9);
  EXPECT_EQ(cluster.metrics().Get("kv_lookup_trips"), n * 2);
  EXPECT_EQ(cluster.metrics().Get("kv_reads"), n * n);
  EXPECT_EQ(cluster.metrics().Get("kv_batches"), n);
}

// The ablation toggle: the same batched workload costs strictly more
// simulated time when batch_lookups is off (every key pays a full round
// trip) — and returns bit-identical values either way.
TEST(ClusterTest, BatchingStrictlyCheaperThanScalarCharging) {
  auto run = [](bool batch) {
    ClusterConfig config;
    config.num_machines = 4;
    config.threads_per_machine = 1;
    config.batch_lookups = batch;
    Cluster cluster(config);
    kv::ShardedStore<int64_t> store = cluster.MakeStore<int64_t>(4000);
    cluster.RunKvWritePhase("w", store, 4000,
                            [](int64_t k) { return k; });
    std::atomic<int64_t> sum{0};
    cluster.RunBatchMapPhase(
        "r", 4000, [&](std::span<const int64_t> items, MachineContext& ctx) {
          std::vector<uint64_t> keys;
          for (const int64_t item : items) {
            keys.push_back(static_cast<uint64_t>((item * 13) % 4000));
          }
          int64_t local = 0;
          for (const int64_t* v : DriveLookups(ctx, store, keys)) local += *v;
          sum.fetch_add(local);
        });
    return std::pair<double, int64_t>(cluster.metrics().GetTime("sim:r"),
                                      sum.load());
  };
  const auto [batched_time, batched_sum] = run(true);
  const auto [scalar_time, scalar_sum] = run(false);
  EXPECT_LT(batched_time, scalar_time);
  EXPECT_EQ(batched_sum, scalar_sum);
}

TEST(ClusterTest, RoundFootprintsAlignWithRoundLog) {
  Cluster cluster(TestConfig());
  kv::ShardedStore<int64_t> store = cluster.MakeStore<int64_t>(500);
  cluster.AccountShuffle("shuffle", 1000);
  cluster.RunKvWritePhase("w", store, 500, [](int64_t k) { return k; });
  cluster.RunMapPhase("r", 500, [&](int64_t item, MachineContext& ctx) {
    ctx.Lookup(store, static_cast<uint64_t>(item));
  });
  const auto& footprints = cluster.round_footprints();
  ASSERT_EQ(footprints.size(), cluster.round_log().size());
  ASSERT_EQ(footprints.size(), 3u);
  // The shuffle round carries no KV traffic.
  for (const int64_t b : footprints[0].kv_write_bytes) EXPECT_EQ(b, 0);
  // The write round's per-machine bytes match the shards' footprint and
  // the cumulative counter.
  const int64_t record =
      kv::kKeyBytes + static_cast<int64_t>(sizeof(int64_t));
  int64_t write_total = 0;
  for (int m = 0; m < cluster.config().num_machines; ++m) {
    EXPECT_EQ(footprints[1].kv_write_bytes[m], store.ShardBytes(m));
    EXPECT_EQ(footprints[1].kv_write_bytes[m],
              cluster.machine_kv_write_bytes()[m]);
    write_total += footprints[1].kv_write_bytes[m];
  }
  EXPECT_EQ(write_total, 500 * record);
  // The map round records what each machine's shard served.
  int64_t read_total = 0;
  for (const int64_t b : footprints[2].kv_read_bytes) read_total += b;
  EXPECT_EQ(read_total, 500 * record);
  // RoundKvWriteBytes is the write column view.
  const auto write_rows = cluster.RoundKvWriteBytes();
  ASSERT_EQ(write_rows.size(), 3u);
  EXPECT_EQ(write_rows[1], footprints[1].kv_write_bytes);
}

// --- Query-result caching (the Section 5.3 cache stage) -------------------

// A hot key is fetched remotely once per machine; every later lookup is
// a cache hit served locally: no trip, no client bytes, no owner bytes.
TEST(ClusterTest, QueryCacheHitsSkipTripsAndBytes) {
  ClusterConfig config;
  config.num_machines = 2;
  config.threads_per_machine = 1;
  Cluster cluster(config);
  const int64_t n = 64;
  kv::ShardedStore<int64_t> store = cluster.MakeStore<int64_t>(n);
  cluster.RunKvWritePhase("w", store, n, [](int64_t k) { return k * 3; });

  const uint64_t hot = 3;
  std::atomic<int64_t> sum{0};
  cluster.RunMapPhase("r", n, [&](int64_t, MachineContext& ctx) {
    const int64_t* v = ctx.Lookup(store, hot);
    ASSERT_NE(v, nullptr);
    sum.fetch_add(*v);
  });
  EXPECT_EQ(sum.load(), n * hot * 3);

  const int64_t record =
      kv::kKeyBytes + static_cast<int64_t>(sizeof(int64_t));
  // One miss per machine (single worker each), the rest hits.
  EXPECT_EQ(cluster.metrics().Get("cache_misses"), 2);
  EXPECT_EQ(cluster.metrics().Get("cache_hits"), n - 2);
  EXPECT_EQ(cluster.metrics().Get("kv_lookup_trips"), 2);
  EXPECT_EQ(cluster.metrics().Get("kv_read_bytes"), 2 * record);
  EXPECT_EQ(cluster.metrics().Get("kv_hot_machine_read_bytes"), 2 * record);
  // Queries still count every logical read.
  EXPECT_EQ(cluster.metrics().Get("kv_reads"), n);
}

// The caching ablation axis: the same hot-key read storm costs strictly
// less simulated time with the cache on, and returns identical values.
TEST(ClusterTest, QueryCacheRescuesHotKeyReads) {
  const int64_t n = 4000;
  auto run = [&](bool cached) {
    ClusterConfig config = TestConfig();
    config.query_cache.enabled = cached;
    Cluster cluster(config);
    auto store = cluster.MakeStore<std::vector<uint8_t>>(n);
    cluster.RunKvWritePhase("w", store, n, [](int64_t) {
      return std::vector<uint8_t>(256, 1);
    });
    std::atomic<int64_t> sum{0};
    cluster.RunMapPhase("r", n, [&](int64_t, MachineContext& ctx) {
      const auto* v = ctx.Lookup(store, 0);
      sum.fetch_add(static_cast<int64_t>(v->size()));
    });
    return std::pair<double, int64_t>(cluster.metrics().GetTime("sim:r"),
                                      sum.load());
  };
  const auto [cached_time, cached_sum] = run(true);
  const auto [uncached_time, uncached_sum] = run(false);
  EXPECT_LT(cached_time, uncached_time);
  EXPECT_EQ(cached_sum, uncached_sum);
}

// Stale reads are impossible: a write phase invalidates every earlier
// cache entry, including cached negatives.
TEST(ClusterTest, QueryCacheEpochInvalidationAfterWritePhase) {
  ClusterConfig config;
  config.num_machines = 1;
  config.threads_per_machine = 1;
  Cluster cluster(config);
  kv::ShardedStore<int64_t> store = cluster.MakeStore<int64_t>(64);
  cluster.RunKvWritePhase("w1", store, 32, [](int64_t k) { return k; });

  const uint64_t probe = 40;  // not yet written
  cluster.RunMapPhase("r1", 1, [&](int64_t, MachineContext& ctx) {
    EXPECT_EQ(ctx.Lookup(store, probe), nullptr);  // miss, caches negative
  });
  cluster.RunMapPhase("r2", 1, [&](int64_t, MachineContext& ctx) {
    EXPECT_EQ(ctx.Lookup(store, probe), nullptr);  // hit on the negative
  });
  EXPECT_EQ(cluster.metrics().Get("cache_misses"), 1);
  EXPECT_EQ(cluster.metrics().Get("cache_hits"), 1);

  // Writing the key moves the store's version (write phases are the
  // normal vehicle for these Puts; RunKvWritePhase covers [0, n) so the
  // remaining range is written directly here): the cached negative must
  // not survive the write.
  store.Put(probe, static_cast<int64_t>(probe) * 7);
  cluster.RunMapPhase("r3", 1, [&](int64_t, MachineContext& ctx) {
    const int64_t* v = ctx.Lookup(store, probe);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, static_cast<int64_t>(probe) * 7);
  });
  EXPECT_EQ(cluster.metrics().Get("cache_misses"), 2);
  EXPECT_EQ(cluster.metrics().Get("cache_hits"), 1);
}

// Duplicate keys inside one batch are fetched once: the first occurrence
// misses and is charged, the repeats hit the warming cache.
TEST(ClusterTest, BatchedLookupCoalescesDuplicateKeysWithinBatch) {
  ClusterConfig config;
  config.num_machines = 2;
  config.threads_per_machine = 1;
  Cluster cluster(config);
  const int64_t n = 64;
  kv::ShardedStore<int64_t> store = cluster.MakeStore<int64_t>(n);
  cluster.RunKvWritePhase("w", store, n, [](int64_t k) { return k; });

  const std::vector<uint64_t> keys = {5, 5, 5, 9};
  int expected_destinations = 1 + (store.ShardOf(5) != store.ShardOf(9));
  cluster.RunMapPhase("r", 1, [&](int64_t, MachineContext& ctx) {
    const auto batch = LookupWindow(ctx, store, keys);
    ASSERT_EQ(batch.values.size(), keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      ASSERT_NE(batch.values[i], nullptr);
      EXPECT_EQ(*batch.values[i], static_cast<int64_t>(keys[i]));
    }
    EXPECT_EQ(batch.destinations, expected_destinations);
  });
  const int64_t record =
      kv::kKeyBytes + static_cast<int64_t>(sizeof(int64_t));
  EXPECT_EQ(cluster.metrics().Get("kv_reads"), 4);
  EXPECT_EQ(cluster.metrics().Get("cache_hits"), 2);
  EXPECT_EQ(cluster.metrics().Get("cache_misses"), 2);
  EXPECT_EQ(cluster.metrics().Get("kv_read_bytes"), 2 * record);
  EXPECT_EQ(cluster.metrics().Get("kv_lookup_trips"), expected_destinations);
}

// The Figure-4 axes stay independent: with batching off but caching on,
// each missed key pays a full scalar trip, hits pay nothing, and no wire
// batch is formed.
TEST(ClusterTest, CachingSkipsTripsEvenWithBatchingOff) {
  ClusterConfig config;
  config.num_machines = 2;
  config.threads_per_machine = 1;
  config.batch_lookups = false;
  Cluster cluster(config);
  const int64_t n = 64;
  kv::ShardedStore<int64_t> store = cluster.MakeStore<int64_t>(n);
  cluster.RunKvWritePhase("w", store, n, [](int64_t k) { return k; });

  const std::vector<uint64_t> keys = {5, 5, 9};
  cluster.RunMapPhase("r", 1, [&](int64_t, MachineContext& ctx) {
    const auto batch = LookupWindow(ctx, store, keys);
    ASSERT_EQ(batch.values.size(), 3u);
  });
  EXPECT_EQ(cluster.metrics().Get("kv_lookup_trips"), 2);  // the misses
  EXPECT_EQ(cluster.metrics().Get("cache_hits"), 1);
  EXPECT_EQ(cluster.metrics().Get("kv_batches"), 0);
}

// --- Adaptive sub-batching (ClusterConfig::max_batch_keys) ----------------

// A bounded sub-batch pays one trip per distinct destination *per
// sub-batch*: range placement over two machines makes the arithmetic
// exact. Values are identical regardless of the bound. Pipelining is
// pinned off (depth 1): the lockstep charge is the baseline the
// pipelined tests below discount from.
TEST(ClusterTest, SubBatchingSplitsTripAccounting) {
  auto run = [](int64_t max_batch_keys) {
    ClusterConfig config;
    config.num_machines = 2;
    config.threads_per_machine = 1;
    config.placement_policy = kv::PlacementPolicy::kRange;
    config.query_cache.enabled = false;
    config.max_batch_keys = max_batch_keys;
    config.pipeline_depth = 1;
    Cluster cluster(config);
    const int64_t n = 64;  // range placement: keys 0-31 -> m0, 32-63 -> m1
    kv::ShardedStore<int64_t> store = cluster.MakeStore<int64_t>(n);
    cluster.RunKvWritePhase("w", store, n, [](int64_t k) { return k * 2; });
    std::vector<uint64_t> keys(n);
    for (int64_t k = 0; k < n; ++k) keys[k] = static_cast<uint64_t>(k);
    std::atomic<int64_t> sum{0};
    cluster.RunMapPhase("r", 1, [&](int64_t, MachineContext& ctx) {
      int64_t local = 0;
      for (const int64_t* v : DriveLookups(ctx, store, keys)) local += *v;
      sum.fetch_add(local);
    });
    return std::tuple<int64_t, int64_t, int64_t>(
        cluster.metrics().Get("kv_lookup_trips"),
        cluster.metrics().Get("kv_batches"), sum.load());
  };
  // Unbounded: one batch, one trip per destination machine.
  const auto [trips_whole, batches_whole, sum_whole] = run(0);
  EXPECT_EQ(trips_whole, 2);
  EXPECT_EQ(batches_whole, 1);
  // Bounded at 8 keys: 8 sub-batches of 8 consecutive keys, each wholly
  // owned by one range machine -> one trip each.
  const auto [trips_sub, batches_sub, sum_sub] = run(8);
  EXPECT_EQ(trips_sub, 8);
  EXPECT_EQ(batches_sub, 8);
  EXPECT_EQ(sum_sub, sum_whole);
}

// --- Pipelined lookups (ClusterConfig::pipeline_depth) --------------------

// The pipelined trip discount, pinned exactly: range placement over two
// machines, 64 keys in windows of 8 — windows 0-3 wholly on machine 0,
// 4-7 on machine 1. One adaptive step forms one overlap group of 8
// windows, so each destination's 4 windows serialize into
// ceil(4 / depth) trips. Values and batches are depth-invariant.
TEST(ClusterTest, PipelinedSubBatchesOverlapTrips) {
  auto run = [](int pipeline_depth) {
    ClusterConfig config;
    config.num_machines = 2;
    config.threads_per_machine = 1;
    config.placement_policy = kv::PlacementPolicy::kRange;
    config.query_cache.enabled = false;
    config.max_batch_keys = 8;
    config.pipeline_depth = pipeline_depth;
    Cluster cluster(config);
    const int64_t n = 64;
    kv::ShardedStore<int64_t> store = cluster.MakeStore<int64_t>(n);
    cluster.RunKvWritePhase("w", store, n, [](int64_t k) { return k * 2; });
    std::vector<uint64_t> keys(n);
    for (int64_t k = 0; k < n; ++k) keys[k] = static_cast<uint64_t>(k);
    std::atomic<int64_t> sum{0};
    cluster.RunMapPhase("r", 1, [&](int64_t, MachineContext& ctx) {
      int64_t local = 0;
      for (const int64_t* v : DriveLookups(ctx, store, keys)) local += *v;
      sum.fetch_add(local);
    });
    return std::tuple<int64_t, int64_t, int64_t>(
        cluster.metrics().Get("kv_lookup_trips"),
        cluster.metrics().Get("kv_batches"), sum.load());
  };
  const auto [trips1, batches1, sum1] = run(1);
  const auto [trips2, batches2, sum2] = run(2);
  const auto [trips4, batches4, sum4] = run(4);
  const auto [trips8, batches8, sum8] = run(8);
  EXPECT_EQ(trips1, 8);  // lockstep: one trip per window per destination
  EXPECT_EQ(trips2, 4);  // ceil(4/2) per destination
  EXPECT_EQ(trips4, 2);  // ceil(4/4) per destination
  EXPECT_EQ(trips8, 2);  // ceil never drops below one trip
  EXPECT_EQ(batches1, 8);
  EXPECT_EQ(batches4, 8);  // every window still ships as a wire batch
  EXPECT_EQ(batches8, 8);
  EXPECT_EQ(sum2, sum1);
  EXPECT_EQ(sum4, sum1);
  EXPECT_EQ(sum8, sum1);
}

// The async primitives directly: tickets resolve to exactly what the
// store holds, and the drained overlap group charges ceil(windows /
// depth) serialized trips per destination.
TEST(ClusterTest, AsyncTicketsResolveValuesAndChargeCeilTrips) {
  ClusterConfig config;
  config.num_machines = 2;
  config.threads_per_machine = 1;
  config.placement_policy = kv::PlacementPolicy::kRange;
  config.query_cache.enabled = false;
  config.pipeline_depth = 2;
  Cluster cluster(config);
  const int64_t n = 64;  // range placement: keys 0-31 -> m0, 32-63 -> m1
  kv::ShardedStore<int64_t> store = cluster.MakeStore<int64_t>(n);
  cluster.RunKvWritePhase("w", store, 32, [](int64_t k) { return k + 100; });
  cluster.RunMapPhase("r", 1, [&](int64_t, MachineContext& ctx) {
    // Three windows to machine 0 (one holding an absent key), one to
    // machine 1, all in flight together: m0 charges ceil(3/2) = 2
    // trips, m1 ceil(1/2) = 1.
    const std::vector<std::vector<uint64_t>> windows = {
        {0, 1}, {2, 3}, {30, 31}, {40, 41}};
    std::vector<kv::LookupTicket<int64_t>> tickets;
    for (const auto& w : windows) {
      tickets.push_back(ctx.LookupManyAsync(store, w));
    }
    for (size_t i = 0; i < windows.size(); ++i) {
      const auto batch = ctx.Await(tickets[i]);
      ASSERT_EQ(batch.values.size(), windows[i].size());
      for (size_t j = 0; j < windows[i].size(); ++j) {
        EXPECT_EQ(batch.values[j], store.Lookup(windows[i][j]));
      }
    }
  });
  EXPECT_EQ(cluster.metrics().Get("kv_lookup_trips"), 3);
  EXPECT_EQ(cluster.metrics().Get("kv_batches"), 4);
  EXPECT_EQ(cluster.metrics().Get("kv_reads"), 8);
}

// Satellite regression: a version bump while earlier windows are still
// in flight must never let a later window hit a stale cached value —
// the epoch is captured per issued window, not per multi-window call.
TEST(ClusterTest, VersionBumpBetweenInFlightWindowsNeverServesStale) {
  ClusterConfig config;
  config.num_machines = 1;
  config.threads_per_machine = 1;
  config.pipeline_depth = 4;
  Cluster cluster(config);
  kv::ShardedStore<int64_t> store = cluster.MakeStore<int64_t>(64);
  cluster.RunKvWritePhase("w", store, 32, [](int64_t k) { return k; });

  const uint64_t probe = 40;  // not yet written
  cluster.RunMapPhase("r", 1, [&](int64_t, MachineContext& ctx) {
    const std::vector<uint64_t> keys = {probe};
    // Window 0 misses and caches the negative under the current epoch.
    kv::LookupTicket<int64_t> first = ctx.LookupManyAsync(store, keys);
    // A write settles while the window is still in flight.
    store.Put(probe, 7);
    // Window 1, issued against the bumped version, must re-fetch: the
    // in-flight window's cached negative is stale for it.
    kv::LookupTicket<int64_t> second = ctx.LookupManyAsync(store, keys);
    const auto first_result = ctx.Await(first);
    const auto second_result = ctx.Await(second);
    EXPECT_EQ(first_result.values[0], nullptr);
    ASSERT_NE(second_result.values[0], nullptr);
    EXPECT_EQ(*second_result.values[0], 7);
  });
  EXPECT_EQ(cluster.metrics().Get("cache_misses"), 2);
  EXPECT_EQ(cluster.metrics().Get("cache_hits"), 0);
}

// The depth x max_batch_keys memory trade-off is measured: a worker
// holding depth windows of 8 keys peaks at depth * 8 in-flight keys.
TEST(ClusterTest, PeakInflightKeysTracksDepthTimesWindow) {
  auto run = [](int pipeline_depth) {
    ClusterConfig config;
    config.num_machines = 2;
    config.threads_per_machine = 1;
    config.query_cache.enabled = false;
    config.max_batch_keys = 8;
    config.pipeline_depth = pipeline_depth;
    Cluster cluster(config);
    const int64_t n = 64;
    kv::ShardedStore<int64_t> store = cluster.MakeStore<int64_t>(n);
    cluster.RunKvWritePhase("w", store, n, [](int64_t k) { return k; });
    std::vector<uint64_t> keys(n);
    for (int64_t k = 0; k < n; ++k) keys[k] = static_cast<uint64_t>(k);
    cluster.RunMapPhase("r", 1, [&](int64_t, MachineContext& ctx) {
      DriveLookups(ctx, store, keys);
    });
    return cluster.metrics().Get("kv_peak_inflight_keys");
  };
  EXPECT_EQ(run(1), 8);   // lockstep: one window in flight
  EXPECT_EQ(run(4), 32);  // four windows of 8 keys held at once
}

TEST(ClusterTest, ScalarLookupPeaksAtOneInflightKey) {
  Cluster cluster(TestConfig());
  kv::ShardedStore<int64_t> store = cluster.MakeStore<int64_t>(64);
  cluster.RunKvWritePhase("w", store, 64, [](int64_t k) { return k; });
  cluster.RunMapPhase("r", 64, [&](int64_t item, MachineContext& ctx) {
    ctx.Lookup(store, static_cast<uint64_t>(item));
  });
  EXPECT_EQ(cluster.metrics().Get("kv_peak_inflight_keys"), 1);
}

// The ablation axis end to end: the same latency-bound pointer-jump
// workload costs strictly less simulated time at depth 4 than at depth
// 1 (lockstep), and resolves identical roots.
TEST(ClusterTest, PipeliningStrictlyCheaperThanLockstep) {
  const int64_t n = 4096;
  const int64_t chain = 64;
  auto run = [&](int pipeline_depth) {
    ClusterConfig config;
    config.num_machines = 4;
    config.threads_per_machine = 1;
    config.query_cache.enabled = false;
    config.max_batch_keys = 16;  // forces many windows per adaptive step
    config.pipeline_depth = pipeline_depth;
    Cluster cluster(config);
    kv::ShardedStore<int64_t> store = cluster.MakeStore<int64_t>(n);
    cluster.RunKvWritePhase("w", store, n, [&](int64_t k) {
      return k % chain == 0 ? int64_t{-1} : k - 1;
    });
    std::vector<int64_t> roots(n, -1);
    cluster.RunBatchMapPhase(
        "jump", n, [&](std::span<const int64_t> items, MachineContext& ctx) {
          struct Chain {
            int64_t item;
            uint64_t cur;
            bool done = false;
          };
          std::vector<Chain> chains;
          chains.reserve(items.size());
          for (const int64_t item : items) {
            chains.push_back(Chain{item, static_cast<uint64_t>(item)});
          }
          DriveLookupPipelined(
              ctx, store, chains, [](const Chain& c) { return c.done; },
              [](const Chain& c) { return c.cur; },
              [&](Chain& c, const int64_t* p) {
                if (p == nullptr || *p < 0) {
                  roots[c.item] = static_cast<int64_t>(c.cur);
                  c.done = true;
                } else {
                  c.cur = static_cast<uint64_t>(*p);
                }
              });
        });
    return std::pair<double, std::vector<int64_t>>(
        cluster.metrics().GetTime("sim:jump"), std::move(roots));
  };
  const auto [lockstep_time, lockstep_roots] = run(1);
  const auto [pipelined_time, pipelined_roots] = run(4);
  EXPECT_LT(pipelined_time, lockstep_time);
  EXPECT_EQ(pipelined_roots, lockstep_roots);
}

// --- Driver edge cases (DriveLookupPipelined) ----------------------------

struct DriverChain {
  int64_t item;
  uint64_t cur;
  int64_t hops = 0;
  bool done = false;
};

// Scalar-resolution oracle: chase the parent chain directly on the
// store (parent < 0 or absent = root).
std::pair<int64_t, int64_t> OracleChase(const kv::ShardedStore<int64_t>& store,
                                        int64_t start) {
  uint64_t cur = static_cast<uint64_t>(start);
  int64_t hops = 0;
  for (;;) {
    const int64_t* p = store.Lookup(cur);
    ++hops;
    if (p == nullptr || *p < 0) {
      return {static_cast<int64_t>(cur), hops};
    }
    cur = static_cast<uint64_t>(*p);
  }
}

// How CheckDriversAgainstOracle runs the driver: strict lockstep
// (pipeline_depth 1), pipelined at the given depth, or pipelined inside
// a pull round.
enum class DriverRun { kLockstep, kPipelined, kPull };

// Runs the driver over every chain of `parent_of` under the given
// sub-batch bound and depth, in each DriverRun, and pins roots and hop
// counts against the scalar oracle. Chains of different lengths finish
// mid-window, so the compaction path is exercised throughout.
void CheckDriversAgainstOracle(int64_t n, int64_t max_batch_keys,
                               int pipeline_depth,
                               const std::function<int64_t(int64_t)>&
                                   parent_of) {
  for (const DriverRun run :
       {DriverRun::kLockstep, DriverRun::kPipelined, DriverRun::kPull}) {
    ClusterConfig config;
    config.num_machines = 2;
    config.threads_per_machine = 2;
    config.max_batch_keys = max_batch_keys;
    config.pipeline_depth = run == DriverRun::kLockstep ? 1 : pipeline_depth;
    Cluster cluster(config);
    kv::ShardedStore<int64_t> store = cluster.MakeStore<int64_t>(n);
    cluster.RunKvWritePhase("w", store, n, parent_of);
    std::vector<int64_t> roots(n, -1), hops(n, -1);
    const auto slice = [&](std::span<const int64_t> items,
                           MachineContext& ctx) {
      std::vector<DriverChain> chains;
      chains.reserve(items.size());
      for (const int64_t item : items) {
        chains.push_back(DriverChain{item, static_cast<uint64_t>(item)});
      }
      DriveLookupPipelined(
          ctx, store, chains, [](const DriverChain& c) { return c.done; },
          [](const DriverChain& c) { return c.cur; },
          [&](DriverChain& c, const int64_t* p) {
            ++c.hops;
            if (p == nullptr || *p < 0) {
              roots[c.item] = static_cast<int64_t>(c.cur);
              hops[c.item] = c.hops;
              c.done = true;
            } else {
              c.cur = static_cast<uint64_t>(*p);
            }
          });
    };
    if (run == DriverRun::kPull) {
      cluster.RunPullPhase("drive", n, slice);
      EXPECT_EQ(cluster.metrics().Get("kv_lookup_trips"), 0);
    } else {
      cluster.RunBatchMapPhase("drive", n, slice);
    }
    for (int64_t v = 0; v < n; ++v) {
      const auto [oracle_root, oracle_hops] = OracleChase(store, v);
      EXPECT_EQ(roots[v], oracle_root)
          << static_cast<int>(run) << " window " << max_batch_keys
          << " depth " << pipeline_depth << " key " << v;
      EXPECT_EQ(hops[v], oracle_hops);
    }
  }
}

// Mixed-length chains: key k chases down to the nearest multiple of its
// band length, so states finish at different adaptive steps and windows
// shrink as the frontier drains.
int64_t MixedChainParent(int64_t k) {
  const int64_t band = (k % 3 == 0) ? 1 : (k % 3 == 1) ? 8 : 32;
  return (k % band == 0) ? int64_t{-1} : k - 1;
}

TEST(ClusterDriverTest, EmptyStateVectorIsANoOp) {
  for (const int depth : {1, 4}) {
    ClusterConfig config = TestConfig();
    config.pipeline_depth = depth;
    Cluster cluster(config);
    kv::ShardedStore<int64_t> store = cluster.MakeStore<int64_t>(16);
    cluster.RunKvWritePhase("w", store, 16,
                            [](int64_t) { return int64_t{-1}; });
    cluster.RunBatchMapPhase(
        "drive", 16, [&](std::span<const int64_t>, MachineContext& ctx) {
          std::vector<DriverChain> none;
          DriveLookupPipelined(
              ctx, store, none, [](const DriverChain& c) { return c.done; },
              [](const DriverChain& c) { return c.cur; },
              [](DriverChain&, const int64_t*) { FAIL() << "resumed"; });
        });
    EXPECT_EQ(cluster.metrics().Get("kv_reads"), 0) << "depth " << depth;
  }
}

TEST(ClusterDriverTest, AllStatesInitiallyDoneIssueNoLookups) {
  Cluster cluster(TestConfig());
  kv::ShardedStore<int64_t> store = cluster.MakeStore<int64_t>(16);
  cluster.RunKvWritePhase("w", store, 16, [](int64_t) { return int64_t{-1}; });
  cluster.RunBatchMapPhase(
      "drive", 16, [&](std::span<const int64_t> items, MachineContext& ctx) {
        std::vector<DriverChain> chains;
        for (const int64_t item : items) {
          chains.push_back(
              DriverChain{item, static_cast<uint64_t>(item), 0, true});
        }
        DriveLookupPipelined(
            ctx, store, chains, [](const DriverChain& c) { return c.done; },
            [](const DriverChain& c) { return c.cur; },
            [](DriverChain&, const int64_t*) { FAIL() << "resumed"; });
      });
  EXPECT_EQ(cluster.metrics().Get("kv_reads"), 0);
}

TEST(ClusterDriverTest, WindowSizeOneMatchesOracle) {
  CheckDriversAgainstOracle(48, /*max_batch_keys=*/1, /*pipeline_depth=*/4,
                            MixedChainParent);
}

TEST(ClusterDriverTest, DepthExceedsWindowCountMatchesOracle) {
  // Frontiers of at most 48/2 machines/2 workers = 12 states split into
  // windows of 4: three windows, depth 64 far beyond them.
  CheckDriversAgainstOracle(48, /*max_batch_keys=*/4, /*pipeline_depth=*/64,
                            MixedChainParent);
}

TEST(ClusterDriverTest, StatesFinishingMidWindowMatchOracle) {
  CheckDriversAgainstOracle(96, /*max_batch_keys=*/8, /*pipeline_depth=*/2,
                            MixedChainParent);
  CheckDriversAgainstOracle(96, /*max_batch_keys=*/0, /*pipeline_depth=*/4,
                            MixedChainParent);  // unbounded window
}

TEST(ClusterTest, PlacementPoliciesCoLocateWorkAndRecords) {
  for (const kv::PlacementPolicy policy :
       {kv::PlacementPolicy::kHash, kv::PlacementPolicy::kRange,
        kv::PlacementPolicy::kAffinity}) {
    ClusterConfig config = TestConfig();
    config.placement_policy = policy;
    Cluster cluster(config);
    const int64_t n = 1000;
    kv::ShardedStore<int64_t> store = cluster.MakeStore<int64_t>(n);
    for (uint64_t k = 0; k < static_cast<uint64_t>(n); ++k) {
      EXPECT_EQ(store.ShardOf(k), cluster.MachineOf(k, n))
          << kv::PlacementPolicyName(policy) << " key " << k;
    }
    cluster.RunKvWritePhase("w", store, n, [](int64_t k) { return k; });
    std::atomic<int> mismatches{0};
    cluster.RunMapPhase("route", n, [&](int64_t item, MachineContext& ctx) {
      if (store.ShardOf(static_cast<uint64_t>(item)) != ctx.machine_id()) {
        mismatches.fetch_add(1);
      }
      const int64_t* v = ctx.Lookup(store, static_cast<uint64_t>(item));
      if (v == nullptr || *v != item) mismatches.fetch_add(1);
    });
    EXPECT_EQ(mismatches.load(), 0) << kv::PlacementPolicyName(policy);
  }
}

// --- Elastic-cluster fault model (ClusterConfig::faults) ------------------

TEST(ClusterTest, ReplicatedWritePhaseChargesFollowerCopies) {
  ClusterConfig config = TestConfig();
  config.faults.replication = 2;
  Cluster cluster(config);
  kv::ShardedStore<int64_t> store = cluster.MakeStore<int64_t>(1000);
  EXPECT_EQ(store.replication(), 2);
  cluster.RunKvWritePhase("w", store, 1000, [](int64_t k) { return k; });

  // Primary-only semantics of the historical counters are preserved:
  // kv_write_bytes counts each record once, the follower stream has its
  // own counter, and with exactly one follower per shard they're equal.
  const int64_t primary = cluster.metrics().Get("kv_write_bytes");
  const int64_t followers = cluster.metrics().Get("kv_replication_bytes");
  EXPECT_EQ(primary, store.total_bytes());
  EXPECT_EQ(followers, primary);

  // Per-machine NIC charging includes inbound follower copies: the
  // resident-byte rows sum to R * total, and match the store's own
  // replicated snapshot machine by machine.
  const std::vector<int64_t> resident = store.ReplicatedShardBytesSnapshot();
  int64_t resident_total = 0;
  for (int m = 0; m < config.num_machines; ++m) {
    EXPECT_EQ(cluster.machine_kv_write_bytes()[m], resident[m]) << m;
    resident_total += resident[m];
  }
  EXPECT_EQ(resident_total, 2 * primary);

  // The hot-machine counter stays primary-only (skew diagnosis is about
  // where records live, not where copies stream).
  int64_t expected_hot = 0;
  for (int s = 0; s < store.num_shards(); ++s) {
    expected_hot = std::max(expected_hot, store.ShardBytes(s));
  }
  EXPECT_EQ(cluster.metrics().Get("kv_hot_machine_write_bytes"),
            expected_hot);
}

TEST(ClusterTest, DefaultFaultConfigDoesNotDriftTheCostModel) {
  // fault_rate = 0, replication = 1, checkpoint_period = 0 must be
  // bit-identical to a cluster that predates the fault model: same
  // counters, same timers, no fault metrics at all.
  auto run = [](bool spell_out_defaults) {
    ClusterConfig config = TestConfig();
    if (spell_out_defaults) {
      config.faults.fault_rate_per_machine_sec = 0.0;
      config.faults.replication = 1;
      config.faults.checkpoint_period_sec = 0.0;
      config.faults.fault_seed = 12345;  // unused at rate 0
      config.faults.machines_per_domain = 0;
      config.faults.domain_fault_rate_sec = 0.0;
      config.faults.domain_aware_placement = true;
      config.faults.warning_lead_sec = 0.0;
      config.faults.slow_machine_rate = 0.0;
      config.faults.hedge_lookups = false;
    }
    Cluster cluster(config);
    kv::ShardedStore<int64_t> store = cluster.MakeStore<int64_t>(2000);
    cluster.AccountShuffle("shuffle", 4096);
    cluster.RunKvWritePhase("w", store, 2000, [](int64_t k) { return 2 * k; });
    cluster.RunMapPhase("r", 2000, [&](int64_t item, MachineContext& ctx) {
      ctx.Lookup(store, static_cast<uint64_t>((item * 31) % 2000));
    });
    return cluster.metrics().Snapshot();
  };
  const MetricsSnapshot a = run(false);
  const MetricsSnapshot b = run(true);
  EXPECT_EQ(a.counters, b.counters);
  // Simulated timers must be bit-identical; wall timers measure the
  // host and are excluded.
  for (const auto& [name, seconds] : a.timers_sec) {
    if (name.rfind("sim", 0) != 0) continue;
    ASSERT_TRUE(b.timers_sec.count(name)) << name;
    EXPECT_DOUBLE_EQ(seconds, b.timers_sec.at(name)) << name;
  }
  EXPECT_EQ(a.counters.count("machines_lost"), 0u);
  EXPECT_EQ(a.counters.count("kv_replication_bytes"), 0u);
  EXPECT_EQ(a.counters.count("checkpoints"), 0u);
  EXPECT_EQ(a.counters.count("domains_lost"), 0u);
  EXPECT_EQ(a.counters.count("machines_drained"), 0u);
  EXPECT_EQ(a.counters.count("shards_migrated"), 0u);
  EXPECT_EQ(a.counters.count("kv_slow_trips"), 0u);
  EXPECT_EQ(a.counters.count("kv_hedged_trips"), 0u);
}

TEST(ClusterTest, SimClockTracksTheSimTotalTimer) {
  ClusterConfig config = TestConfig();
  Cluster cluster(config);
  EXPECT_DOUBLE_EQ(cluster.sim_clock(), 0.0);
  kv::ShardedStore<int64_t> store = cluster.MakeStore<int64_t>(500);
  cluster.AccountShuffle("shuffle", 2048);
  cluster.RunKvWritePhase("w", store, 500, [](int64_t k) { return k; });
  cluster.RunMapPhase("r", 500, [&](int64_t item, MachineContext& ctx) {
    ctx.Lookup(store, static_cast<uint64_t>(item));
  });
  // The metrics timer quantizes to integer nanoseconds; the clock is an
  // exact double sum, so agreement is to timer resolution.
  EXPECT_NEAR(cluster.sim_clock(), cluster.metrics().GetTime("sim_total"),
              1e-8);
}

TEST(ClusterTest, InjectedFailureDropsTheMachinesQueryCaches) {
  ClusterConfig config;
  config.num_machines = 2;
  config.threads_per_machine = 1;
  config.faults.replication = 2;  // replica path: cheap, deterministic
  Cluster cluster(config);
  const int64_t n = 64;
  kv::ShardedStore<int64_t> store = cluster.MakeStore<int64_t>(n);
  cluster.RunKvWritePhase("w", store, n, [](int64_t k) { return k; });
  // Warm both machines' read-through caches on a hot key.
  cluster.RunMapPhase("r", n, [&](int64_t, MachineContext& ctx) {
    ctx.Lookup(store, 3);
  });
  EXPECT_EQ(cluster.metrics().Get("cache_misses"), 2);  // one per machine
  const int victim = 1 - store.ShardOf(3);  // the machine caching remotely

  cluster.InjectMachineFailure(victim);
  EXPECT_EQ(cluster.metrics().Get("machines_lost"), 1);
  EXPECT_GT(cluster.metrics().GetTime("sim:recovery"), 0.0);
  cluster.RunMapPhase("r2", n, [&](int64_t, MachineContext& ctx) {
    ctx.Lookup(store, 3);
  });
  // The cold replacement misses its first read once more; the surviving
  // machine's cache still serves every read.
  EXPECT_EQ(cluster.metrics().Get("cache_misses"), 3);
  EXPECT_EQ(cluster.metrics().Get("cache_hits"), 2 * n - 3);
}

TEST(ClusterTest, InjectedFailureColdStartsDerivedCaches) {
  ClusterConfig config;
  config.num_machines = 2;
  config.threads_per_machine = 1;
  Cluster cluster(config);
  const int64_t n = 64;
  kv::ShardedStore<int64_t> store = cluster.MakeStore<int64_t>(n);
  cluster.RunKvWritePhase("w", store, n, [](int64_t k) { return k; });
  kv::MachineCaches<uint8_t> caches = cluster.MakeMachineCaches<uint8_t>();
  cluster.RunMapPhase("put", n, [&](int64_t item, MachineContext& ctx) {
    ctx.DerivedCache(caches)->Put(static_cast<uint64_t>(item),
                                  ctx.CacheEpoch(store), 1);
  });

  const int victim = 1;
  cluster.InjectMachineFailure(victim);
  std::atomic<int64_t> hits[2] = {0, 0};
  std::atomic<int64_t> misses[2] = {0, 0};
  cluster.RunMapPhase("get", n, [&](int64_t item, MachineContext& ctx) {
    const int m = ctx.machine_id();
    const bool hit = ctx.DerivedCache(caches)
                         ->Get(static_cast<uint64_t>(item),
                               ctx.CacheEpoch(store))
                         .has_value();
    (hit ? hits : misses)[m].fetch_add(1);
  });
  // The replacement machine lost the derived facts its predecessor
  // cached; the survivor keeps every one.
  ASSERT_GT(misses[victim].load(), 0);
  EXPECT_EQ(hits[victim].load(), 0);
  ASSERT_GT(hits[1 - victim].load(), 0);
  EXPECT_EQ(misses[1 - victim].load(), 0);
}

TEST(ClusterTest, DrainMigratesShardsAndAbsorbsTheWarnedKill) {
  ClusterConfig config;
  config.num_machines = 4;
  config.threads_per_machine = 1;
  Cluster cluster(config);  // replication 1: the full-re-stream case
  const int64_t n = 400;
  kv::ShardedStore<int64_t> store = cluster.MakeStore<int64_t>(n);
  cluster.RunKvWritePhase("w", store, n, [](int64_t k) { return k; });

  const int victim = 2;
  const int64_t victim_bytes = store.ShardBytes(victim);
  ASSERT_GT(victim_bytes, 0);
  cluster.DrainMachine(victim);

  // The migration arithmetic: one shard moved, its resident bytes
  // re-streamed at shuffle bandwidth on the sim clock.
  EXPECT_EQ(cluster.metrics().Get("machines_drained"), 1);
  EXPECT_EQ(cluster.metrics().Get("shards_migrated"), 1);
  EXPECT_EQ(cluster.metrics().Get("kv_migration_bytes"), victim_bytes);
  EXPECT_NEAR(cluster.metrics().GetTime("sim:drain"),
              static_cast<double>(victim_bytes) / config.shuffle_bytes_per_sec,
              1e-8);
  // The shard map hot-swapped mid-job: work and server charges for the
  // victim's shard now follow the new host; the drained machine hosts
  // nothing and its resident bytes moved with the shard.
  const int new_host = cluster.HostOf(victim);
  EXPECT_NE(new_host, victim);
  EXPECT_EQ(cluster.machine_kv_write_bytes()[victim], 0);
  for (uint64_t key = 0; key < static_cast<uint64_t>(n); ++key) {
    if (store.ShardOf(key) == victim) {
      EXPECT_EQ(cluster.MachineOf(key, n), new_host);
    }
  }

  // The payoff: the announced kill lands on a machine holding nothing
  // and replays nothing — against the whole-job restart an unwarned
  // kill would cost at replication 1.
  const double before = cluster.SimSeconds();
  cluster.InjectMachineFailure(victim);
  EXPECT_EQ(cluster.metrics().Get("machines_lost"), 1);
  EXPECT_DOUBLE_EQ(cluster.SimSeconds(), before);
  EXPECT_DOUBLE_EQ(cluster.metrics().GetTime("sim:recovery"), 0.0);
  // The drain is one-shot: the machine rejoined empty, and a second,
  // unwarned kill pays the normal reactive price.
  cluster.InjectMachineFailure(victim);
  EXPECT_GT(cluster.SimSeconds(), before);
  EXPECT_GT(cluster.metrics().GetTime("sim:recovery"), 0.0);
}

TEST(ClusterTest, DomainFailureWipesNaiveReplicasButNotDomainAware) {
  // One rack kill at replication 2: domain-oblivious chained
  // declustering can hold both copies of a shard inside the dead
  // domain (a wiped ReplicaSet, whole-job fallback); domain-aware
  // placement never can.
  auto run = [](bool aware) {
    ClusterConfig config;
    config.num_machines = 4;
    config.threads_per_machine = 1;
    config.faults.replication = 2;
    config.faults.machines_per_domain = 2;  // domains {0, 1} and {2, 3}
    config.faults.domain_aware_placement = aware;
    Cluster cluster(config);
    kv::ShardedStore<int64_t> store = cluster.MakeStore<int64_t>(400);
    cluster.RunKvWritePhase("w", store, 400, [](int64_t k) { return k; });
    if (aware) {
      for (int s = 0; s < store.num_shards(); ++s) {
        EXPECT_TRUE(store.ReplicasOfShard(s).SpansDomains(
            2, config.num_machines))
            << "shard " << s;
      }
    }
    cluster.InjectDomainFailure(0);
    EXPECT_EQ(cluster.metrics().Get("domains_lost"), 1);
    EXPECT_EQ(cluster.metrics().Get("machines_lost"), 2);
    return cluster.metrics().Get("replica_wipeouts");
  };
  EXPECT_GT(run(/*aware=*/false), 0);
  EXPECT_EQ(run(/*aware=*/true), 0);
}

TEST(ClusterTest, HedgingRecoversStragglerTrips) {
  // A quarter of (round, machine) pairs run lookups 4x slow. Without
  // hedging the client waits out every slow destination; with it, the
  // re-issued trip to the shard's replica wins whenever the replica's
  // host is not itself slow that round — strictly cheaper, same
  // answers, and both trips charged.
  struct Outcome {
    double sim_sec;
    int64_t slow, hedged, wins;
  };
  auto run = [](bool hedge) {
    ClusterConfig config;
    config.num_machines = 4;
    config.threads_per_machine = 1;
    config.faults.replication = 2;
    config.faults.slow_machine_rate = 0.25;
    config.faults.hedge_lookups = hedge;
    Cluster cluster(config);
    kv::ShardedStore<int64_t> store = cluster.MakeStore<int64_t>(400);
    cluster.RunKvWritePhase("w", store, 400, [](int64_t k) { return k; });
    for (int round = 0; round < 8; ++round) {
      cluster.RunMapPhase("r", 400, [&](int64_t item, MachineContext& ctx) {
        EXPECT_NE(ctx.Lookup(store, static_cast<uint64_t>((item * 31) % 400)),
                  nullptr);
      });
    }
    return Outcome{cluster.SimSeconds(),
                   cluster.metrics().Get("kv_slow_trips"),
                   cluster.metrics().Get("kv_hedged_trips"),
                   cluster.metrics().Get("kv_hedge_wins")};
  };
  const Outcome waited = run(false);
  const Outcome hedged = run(true);
  EXPECT_GT(waited.slow, 0);
  EXPECT_EQ(waited.hedged, 0);
  EXPECT_GT(hedged.hedged, 0);
  EXPECT_GT(hedged.wins, 0);
  EXPECT_LT(hedged.sim_sec, waited.sim_sec);
}

TEST(ClusterTest, PullRoundChargesEachDistinctKeyOncePerStep) {
  // One machine, one worker: the whole pull round is one worker slice
  // and one pull step. Its 3n reads cover n distinct keys, and each
  // distinct record is exchanged exactly once, across all of the
  // step's windows (one ticket each). Keys past the written range are
  // absent and cost their key bytes. The distinct keys are [0, n) at
  // stride 1, which packs 64 of them per word of the worker's dedup
  // bitmap, and at stride 67, which puts each in a word of its own.
  const int64_t n = 6000;
  for (const int64_t stride : {1, 67}) {
    ClusterConfig config;
    config.num_machines = 1;
    config.threads_per_machine = 1;
    Cluster cluster(config);
    const int64_t key_space = stride * n;
    const int64_t written = key_space / 2;
    kv::ShardedStore<int64_t> store = cluster.MakeStore<int64_t>(key_space);
    cluster.RunKvWritePhase("w", store, written, [](int64_t k) { return k; });
    std::vector<uint64_t> keys;
    for (int rep = 0; rep < 3; ++rep) {
      // 7919 is prime, so each pass is a permutation of [0, n).
      for (int64_t k = 0; k < n; ++k) {
        keys.push_back(static_cast<uint64_t>(stride * ((k * 7919 + rep) % n)));
      }
    }
    int64_t expected_bytes = 0;
    for (int64_t k = 0; k < key_space; k += stride) {
      expected_bytes += k < written ? store.RecordBytes(k) : kv::kKeyBytes;
    }
    const size_t window = static_cast<size_t>(config.max_batch_keys);
    int64_t wrong = 0;
    cluster.RunPullPhase(
        "pull", key_space, [&](std::span<const int64_t>, MachineContext& ctx) {
          const std::span<const uint64_t> all(keys);
          for (size_t begin = 0; begin < all.size(); begin += window) {
            const std::span<const uint64_t> part =
                all.subspan(begin, std::min(window, all.size() - begin));
            const kv::LookupBatchResult<int64_t> batch =
                LookupWindow(ctx, store, part);
            for (size_t i = 0; i < part.size(); ++i) {
              const int64_t key = static_cast<int64_t>(part[i]);
              const int64_t* value = batch.values[i];
              if (key < written ? value == nullptr || *value != key
                                : value != nullptr) {
                ++wrong;
              }
            }
          }
        });
    const Metrics& m = cluster.metrics();
    EXPECT_EQ(wrong, 0) << "stride " << stride;
    EXPECT_EQ(m.Get("frontier_exchange_bytes"), expected_bytes)
        << "stride " << stride;
    EXPECT_EQ(m.Get("kv_read_bytes"), expected_bytes) << "stride " << stride;
    EXPECT_EQ(m.Get("kv_reads"), 3 * n);
    EXPECT_EQ(m.Get("kv_lookup_trips"), 0);
    EXPECT_EQ(m.Get("kv_batches"), 0);
    EXPECT_EQ(m.Get("cache_hits") + m.Get("cache_misses"), 0);
    EXPECT_EQ(m.Get("kv_peak_inflight_keys"), 0);
  }
}

TEST(ClusterTest, PullStepsChargeRepeatedKeysAgain) {
  // Every state reads one of kDistinct keys at each of four adaptive
  // steps. The driver opens a fresh exchange at each step
  // (BeginAdaptiveStep), so a key is charged once per step, however
  // many states ask for it within the step. In the first input every
  // step reads the same keys. In the second, consecutive steps read
  // disjoint keys that lie in different words of the worker's dedup
  // bitmap, [0, 8) and [128, 136) in turn: each step's reset must clear
  // the words its own step set, or the step after next reads its keys
  // for free.
  const int64_t n = 256;
  const int kSteps = 4;
  const uint64_t kDistinct = 8;
  for (const uint64_t step_offset : {uint64_t{0}, uint64_t{128}}) {
    ClusterConfig config;
    config.num_machines = 1;
    config.threads_per_machine = 1;
    Cluster cluster(config);
    kv::ShardedStore<int64_t> store = cluster.MakeStore<int64_t>(n);
    cluster.RunKvWritePhase("w", store, n, [](int64_t k) { return 5 * k; });
    struct Walker {
      uint64_t key;
      int steps_left;
    };
    const auto key_at = [&](uint64_t item, int step) {
      return item % kDistinct + static_cast<uint64_t>(step % 2) * step_offset;
    };
    int64_t wrong = 0;
    cluster.RunPullPhase(
        "pull", n, [&](std::span<const int64_t> items, MachineContext& ctx) {
          std::vector<Walker> walkers;
          for (const int64_t item : items) {
            walkers.push_back(
                Walker{key_at(static_cast<uint64_t>(item), 0), kSteps});
          }
          DriveLookupPipelined(
              ctx, store, walkers,
              [](const Walker& w) { return w.steps_left == 0; },
              [](const Walker& w) { return w.key; },
              [&](Walker& w, const int64_t* value) {
                if (value == nullptr ||
                    *value != 5 * static_cast<int64_t>(w.key)) {
                  ++wrong;
                }
                --w.steps_left;
                w.key = key_at(w.key % kDistinct, kSteps - w.steps_left);
              });
        });
    EXPECT_EQ(wrong, 0);
    int64_t exchanged = 0;
    for (int step = 0; step < kSteps; ++step) {
      for (uint64_t k = 0; k < kDistinct; ++k) {
        exchanged += store.RecordBytes(key_at(k, step));
      }
    }
    EXPECT_EQ(cluster.metrics().Get("frontier_exchange_bytes"), exchanged)
        << "offset " << step_offset;
    // One ceil(n / 8)-byte bitmap broadcast per step.
    EXPECT_EQ(cluster.metrics().Get("frontier_broadcast_bytes"),
              kSteps * ((n + 7) / 8));
    EXPECT_EQ(cluster.metrics().Get("kv_reads"), kSteps * n);
  }
}

TEST(ClusterTest, ScalarLookupInPullRoundBypassesQueryCache) {
  // A pull round resolves its reads against the step's exchange, so a
  // scalar Lookup there must not probe the machine's query cache, even
  // for a key the same worker read a moment ago. Pull slices run as
  // separate host tasks, which is only sound because of this.
  ClusterConfig config;
  config.num_machines = 2;
  config.threads_per_machine = 1;
  Cluster cluster(config);
  const int64_t n = 64;
  kv::ShardedStore<int64_t> store = cluster.MakeStore<int64_t>(n);
  cluster.RunKvWritePhase("w", store, n, [](int64_t k) { return 3 * k; });
  std::atomic<int64_t> wrong{0};
  cluster.RunPullPhase(
      "pull", n, [&](std::span<const int64_t> items, MachineContext& ctx) {
        EXPECT_FALSE(ctx.caching_enabled());
        for (const int64_t item : items) {
          for (int rep = 0; rep < 2; ++rep) {
            const int64_t* value =
                ctx.Lookup(store, static_cast<uint64_t>(item));
            if (value == nullptr || *value != 3 * item) ++wrong;
          }
        }
      });
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(cluster.metrics().Get("kv_reads"), 2 * n);
  EXPECT_EQ(cluster.metrics().Get("cache_hits"), 0);
  EXPECT_EQ(cluster.metrics().Get("cache_misses"), 0);
}

// Runs `job` on a cluster built from `config_a` on `pool_a` and one
// built from `config_b` on `pool_b` and expects the same charged costs
// from both: simulated seconds and timers, every counter, and every
// round's per-machine footprint. With one config twice it guards the
// fold of the per-worker tallies, which must not depend on which worker
// thread finishes first; with two it pins configs that must charge
// alike.
template <typename Job>
void ExpectTwinClusterCosts(const ClusterConfig& config_a,
                            const ClusterConfig& config_b, Job job,
                            ThreadPool& pool_a = ThreadPool::Global(),
                            ThreadPool& pool_b = ThreadPool::Global()) {
  Cluster a(config_a, pool_a);
  Cluster b(config_b, pool_b);
  job(a);
  job(b);
  EXPECT_EQ(a.SimSeconds(), b.SimSeconds());
  const MetricsSnapshot sa = a.metrics().Snapshot();
  const MetricsSnapshot sb = b.metrics().Snapshot();
  EXPECT_EQ(sa.counters, sb.counters);
  for (const auto& [name, seconds] : sa.timers_sec) {
    if (name.rfind("sim", 0) != 0) continue;
    ASSERT_TRUE(sb.timers_sec.count(name)) << name;
    EXPECT_EQ(seconds, sb.timers_sec.at(name)) << name;
  }
  ASSERT_EQ(a.round_footprints().size(), b.round_footprints().size());
  for (size_t r = 0; r < a.round_footprints().size(); ++r) {
    const RoundFootprint& fa = a.round_footprints()[r];
    const RoundFootprint& fb = b.round_footprints()[r];
    EXPECT_EQ(fa.phase, fb.phase) << "round " << r;
    EXPECT_EQ(fa.kv_read_bytes, fb.kv_read_bytes) << "round " << r;
    EXPECT_EQ(fa.kv_write_bytes, fb.kv_write_bytes) << "round " << r;
  }
}

// Each machine owns its query caches, and kv::QueryCache takes no lock.
// Every worker of 8 machines sends mixed Get/Put/Update traffic through
// the round's MachineContext, into the store's read-through caches
// (Lookup, and LookupManyAsync under DriveLookupPipelined) and a derived
// set (DerivedCache), over 64 keys the machine's workers share. A push
// round runs each machine's workers on one host task, so on a 4-thread
// pool machines run at once while no cache has two users (CI runs this
// under TSAN). Every value written for key k is 2k, so every hit must
// read 2k; every counter, sim: timer and round footprint must equal a
// 1-thread pool's run; and a pull round's context hands out no derived
// cache.
void MixedMachineCacheTraffic(Cluster& cluster) {
  constexpr int64_t kKeys = 64;
  constexpr int64_t kItems = 4096;
  kv::ShardedStore<int64_t> store = cluster.MakeStore<int64_t>(kKeys);
  cluster.RunKvWritePhase("w", store, kKeys,
                          [](int64_t k) { return 2 * k; });
  kv::MachineCaches<int64_t> derived = cluster.MakeMachineCaches<int64_t>();
  std::atomic<int64_t> wrong{0};
  auto check = [&wrong](const int64_t* value, uint64_t key) {
    if (value == nullptr || *value != 2 * static_cast<int64_t>(key)) ++wrong;
  };
  for (int round = 0; round < 3; ++round) {
    cluster.RunBatchMapPhase(
        "mixed", kItems,
        [&](std::span<const int64_t> items, MachineContext& ctx) {
          kv::QueryCache<int64_t>* cache = ctx.DerivedCache(derived);
          if (cache == nullptr) {
            ++wrong;
            return;
          }
          const uint64_t epoch = ctx.CacheEpoch(store);
          std::vector<uint64_t> batch;
          for (const int64_t item : items) {
            const uint64_t k = static_cast<uint64_t>(item * 7 + round) % kKeys;
            const int64_t twice = 2 * static_cast<int64_t>(k);
            check(ctx.Lookup(store, k), k);
            batch.push_back((k * 5 + 1) % kKeys);
            switch ((item + round) % 3) {
              case 0:
                cache->Put(k, epoch, twice);
                break;
              case 1:
                cache->Update(k, epoch, [&](std::optional<int64_t> cur) {
                  if (cur.has_value()) check(&*cur, k);
                  return twice;
                });
                break;
              default:
                if (const std::optional<int64_t> hit = cache->Get(k, epoch)) {
                  check(&*hit, k);
                  ctx.CountCacheHit();
                } else {
                  ctx.CountCacheMiss();
                }
            }
          }
          const std::vector<const int64_t*> values =
              DriveLookups(ctx, store, batch);
          for (size_t i = 0; i < batch.size(); ++i) check(values[i], batch[i]);
        });
  }
  cluster.RunPullPhase(
      "pull", kItems, [&](std::span<const int64_t>, MachineContext& ctx) {
        if (ctx.DerivedCache(derived) != nullptr) ++wrong;
      });
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GT(cluster.metrics().Get("cache_hits"), 0);
  EXPECT_GT(cluster.metrics().Get("cache_misses"), 0);
}

TEST(ClusterTest, MachineOwnedCachesChargeAlikeOnAnyPool) {
  ClusterConfig config;
  config.num_machines = 8;
  config.threads_per_machine = 8;
  ThreadPool four(4);
  ThreadPool serial(1);
  ExpectTwinClusterCosts(config, config, MixedMachineCacheTraffic, four,
                         serial);
}

ClusterConfig UncachedFrontierConfig(FrontierMode mode) {
  ClusterConfig config;
  config.num_machines = 4;
  config.threads_per_machine = 4;
  config.query_cache.enabled = false;
  config.frontier.mode = mode;
  config.in_memory_threshold_arcs = 64;
  return config;
}

// A twin-cluster job that must leave `counter` positive: the kind of
// frontier round the case is about really ran.
template <typename Job>
auto Counting(const char* counter, Job job) {
  return [counter, job](Cluster& cluster) {
    job(cluster);
    EXPECT_GT(cluster.metrics().Get(counter), 0) << counter;
  };
}

constexpr const char* kPullRounds = "frontier_dense_rounds";
constexpr const char* kPushRounds = "frontier_sparse_rounds";

TEST(ClusterTest, TwinClustersChargeEqualCostsForHybridKCore) {
  const graph::Graph g =
      graph::BuildGraph(graph::GenerateErdosRenyi(2000, 12000, 11));
  const ClusterConfig config = UncachedFrontierConfig(FrontierMode::kHybrid);
  ExpectTwinClusterCosts(config, config,
                         Counting(kPullRounds, [&](Cluster& cluster) {
                           core::AmpcKCore(cluster, g);
                         }));
}

// Each round scatters 40000 items in ten 4096-item chunks from several
// pool threads. Buckets must still hold their items in index order:
// which worker slice gets which item decides the per-worker exchange
// dedup of every pull round.
TEST(ClusterTest, TwinClustersChargeEqualCostsForDenseKCoreAcrossChunks) {
  const graph::Graph g =
      graph::BuildGraph(graph::GenerateErdosRenyi(40000, 300000, 11));
  const ClusterConfig config = UncachedFrontierConfig(FrontierMode::kDense);
  ExpectTwinClusterCosts(config, config,
                         Counting(kPullRounds, [&](Cluster& cluster) {
                           core::AmpcKCore(cluster, g);
                         }));
}

TEST(ClusterTest, TwinClustersChargeEqualCostsForPullMsf) {
  const graph::WeightedEdgeList list = graph::MakeRandomWeighted(
      graph::GenerateErdosRenyi(1000, 5000, 13), /*seed=*/13);
  const ClusterConfig config = UncachedFrontierConfig(FrontierMode::kDense);
  ExpectTwinClusterCosts(config, config,
                         Counting(kPullRounds, [&](Cluster& cluster) {
                           core::AmpcMsf(cluster, list);
                         }));
}

TEST(ClusterTest, TwinClustersChargeEqualCostsForPullPageRank) {
  const graph::Graph g =
      graph::BuildGraph(graph::GenerateErdosRenyi(500, 2500, 17));
  core::PageRankMcOptions options;
  options.walks_per_node = 4;
  const ClusterConfig config = UncachedFrontierConfig(FrontierMode::kDense);
  ExpectTwinClusterCosts(config, config,
                         Counting(kPullRounds, [&](Cluster& cluster) {
                           core::AmpcMonteCarloPageRank(cluster, g, options);
                         }));
}

// Cache on, the default: a machine's workers share its query caches,
// and a cached push round must still charge the same on every run,
// whichever host thread reaches a machine's cache first. One thread per
// machine interleaves nothing; four and eight do.
ClusterConfig CachedTwinConfig(int threads) {
  ClusterConfig config;
  config.num_machines = 8;
  config.threads_per_machine = threads;
  config.in_memory_threshold_arcs = 64;
  return config;
}

// Every adaptive core back to back, cache on. The job must really hit
// the caches, and under churn really lose machines.
void ExpectCachedTwinCosts(const ClusterConfig& config) {
  const graph::EdgeList list = graph::GenerateRmat(12, 30000, 17);
  const graph::Graph g = graph::BuildGraph(list);
  const graph::WeightedEdgeList weighted = graph::MakeDegreeWeighted(list, g);
  const graph::Graph cycle =
      graph::BuildGraph(graph::GenerateDoubleCycle(4096));
  core::PageRankMcOptions pagerank;
  pagerank.walks_per_node = 4;
  const bool churn = config.faults.fault_rate_per_machine_sec > 0;
  ExpectTwinClusterCosts(
      config, config, Counting("cache_hits", [&](Cluster& cluster) {
        core::AmpcMis(cluster, g, /*seed=*/17);
        core::AmpcMatching(cluster, g);
        core::AmpcMsf(cluster, weighted);
        core::AmpcConnectivity(cluster, list);
        core::AmpcKCore(cluster, g);
        core::AmpcMonteCarloPageRank(cluster, g, pagerank);
        core::AmpcOneVsTwoCycle(cluster, cycle);
        if (churn) {
          EXPECT_GT(cluster.metrics().Get("machines_lost"), 0);
        }
      }));
}

TEST(ClusterTest, TwinClustersChargeEqualCachedCosts) {
  for (const int threads : {1, 4, 8}) {
    SCOPED_TRACE(threads);
    ExpectCachedTwinCosts(CachedTwinConfig(threads));
  }
}

TEST(ClusterTest, TwinClustersChargeEqualCachedCostsUnderChurn) {
  for (const int threads : {1, 4, 8}) {
    SCOPED_TRACE(threads);
    ClusterConfig config = CachedTwinConfig(threads);
    config.faults.fault_seed = 7;
    config.faults.replication = 2;
    config.faults.fault_rate_per_machine_sec = 5.0;
    ExpectCachedTwinCosts(config);
  }
}

// kSparse is the policy's "always push" answer, nothing more: a hybrid
// cluster whose dense threshold is out of reach (alpha = 1e-9 asks for
// more frontier out-edges than the graph has, a billion times over)
// must run and charge exactly what a sparse cluster does.
ClusterConfig NeverDenseHybridConfig() {
  ClusterConfig config = UncachedFrontierConfig(FrontierMode::kHybrid);
  config.frontier.alpha = 1e-9;
  return config;
}

TEST(ClusterTest, SparseKCoreChargesLikeNeverDenseHybrid) {
  const graph::Graph g =
      graph::BuildGraph(graph::GenerateErdosRenyi(2000, 12000, 11));
  ExpectTwinClusterCosts(UncachedFrontierConfig(FrontierMode::kSparse),
                         NeverDenseHybridConfig(),
                         Counting(kPushRounds, [&](Cluster& cluster) {
                           core::AmpcKCore(cluster, g);
                         }));
}

TEST(ClusterTest, SparseMsfChargesLikeNeverDenseHybrid) {
  const graph::WeightedEdgeList list = graph::MakeRandomWeighted(
      graph::GenerateErdosRenyi(1000, 5000, 13), /*seed=*/13);
  ExpectTwinClusterCosts(UncachedFrontierConfig(FrontierMode::kSparse),
                         NeverDenseHybridConfig(),
                         Counting(kPushRounds, [&](Cluster& cluster) {
                           core::AmpcMsf(cluster, list);
                         }));
}

// A map phase whose per-machine share cannot feed every worker 32
// items is regrouped into 32-item slices, kSparse included.
TEST(ClusterTest, SmallShareRegroupsIntoGrainSizedSlices) {
  ClusterConfig config;
  config.num_machines = 1;
  config.threads_per_machine = 8;
  config.frontier.mode = FrontierMode::kSparse;
  Cluster cluster(config);
  std::mutex mu;
  std::vector<size_t> slice_sizes;
  cluster.RunBatchMapPhase(
      "small", 100, [&](std::span<const int64_t> items, MachineContext&) {
        std::lock_guard<std::mutex> lock(mu);
        slice_sizes.push_back(items.size());
      });
  std::sort(slice_sizes.begin(), slice_sizes.end());
  EXPECT_EQ(slice_sizes, (std::vector<size_t>{4, 32, 32, 32}));
  EXPECT_EQ(cluster.metrics().Get("map_items"), 100);
}

// Pins the fault-path charges: independent and domain kills, replica
// wipeouts, drains, checkpoints and whole-job restarts. A slip in the
// shared round tail (a checkpoint that re-runs the churn hook, a drain
// charged to the wrong timer) changes one of these numbers. Each value
// is the same unpinned and on one core.
TEST(ClusterTest, FaultChargesMatchParent) {
  const graph::EdgeList raw = graph::GenerateRmat(10, 6000, 7);
  const graph::WeightedEdgeList w =
      graph::MakeDegreeWeighted(raw, graph::BuildGraph(raw));
  ClusterConfig config;
  config.num_machines = 4;
  config.threads_per_machine = 2;
  config.in_memory_threshold_arcs = 64;
  config.faults.fault_seed = 7;

  // Job A: replicated AMPC MSF under independent and domain kills, with
  // checkpoints and warned drains.
  ClusterConfig churn = config;
  churn.faults.fault_rate_per_machine_sec = 4.0;
  churn.faults.replication = 2;
  churn.faults.checkpoint_period_sec = 0.1;
  churn.faults.machines_per_domain = 2;
  churn.faults.domain_fault_rate_sec = 2.0;
  churn.faults.domain_aware_placement = false;
  churn.faults.warning_lead_sec = 0.02;
  Cluster a(churn);
  core::AmpcMsf(a, w);
  const Metrics& ma = a.metrics();
  EXPECT_EQ(ma.Get("rounds"), 33);
  EXPECT_EQ(ma.Get("machines_lost"), 48);
  EXPECT_EQ(ma.Get("domains_lost"), 6);
  EXPECT_EQ(ma.Get("replica_wipeouts"), 12);
  EXPECT_EQ(ma.Get("machines_drained"), 39);
  EXPECT_EQ(ma.Get("shards_migrated"), 67);
  EXPECT_EQ(ma.Get("checkpoints"), 6);
  EXPECT_DOUBLE_EQ(a.SimSeconds(), 2.62598396);
  EXPECT_DOUBLE_EQ(ma.GetTime("sim:recovery"), 0.409736926);
  EXPECT_DOUBLE_EQ(ma.GetTime("recovery_replay_seconds"), 0.37895755);
  EXPECT_DOUBLE_EQ(ma.GetTime("sim:checkpoint"), 0.42);
  EXPECT_DOUBLE_EQ(ma.GetTime("sim:drain"), 0.1454572);

  // Job B: the MPC Boruvka baseline with nothing persisted, so every
  // kill restarts the whole job.
  ClusterConfig restart = config;
  restart.faults.fault_rate_per_machine_sec = 1.0;
  Cluster b(restart);
  baselines::MpcBoruvkaMsf(b, w, 7);
  const Metrics& mb = b.metrics();
  EXPECT_EQ(mb.Get("rounds"), 52);
  EXPECT_EQ(mb.Get("machines_lost"), 14);
  EXPECT_DOUBLE_EQ(b.SimSeconds(), 2616.011995606);
  EXPECT_DOUBLE_EQ(mb.GetTime("sim:recovery"), 2612.371995606);
  EXPECT_DOUBLE_EQ(mb.GetTime("recovery_replay_seconds"), 2612.371995606);
}

}  // namespace
}  // namespace ampc::sim
