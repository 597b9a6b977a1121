#include "mpc/dataflow.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"

namespace ampc::mpc {
namespace {

sim::Cluster MakeCluster() {
  sim::ClusterConfig config;
  config.num_machines = 4;
  return sim::Cluster(config);
}

TEST(DataflowTest, ParDoTransformsAndCountsRound) {
  sim::Cluster cluster = MakeCluster();
  PCollection<int> input = {1, 2, 3, 4};
  PCollection<int> doubled = ParDo<int, int>(
      cluster, "double", input,
      [](const int& x, auto emit) { emit(x * 2); });
  std::sort(doubled.begin(), doubled.end());
  EXPECT_EQ(doubled, (PCollection<int>{2, 4, 6, 8}));
  EXPECT_EQ(cluster.metrics().Get("rounds"), 1);
  EXPECT_EQ(cluster.metrics().Get("shuffles"), 0);
}

TEST(DataflowTest, ParDoCanFanOutAndFilter) {
  sim::Cluster cluster = MakeCluster();
  PCollection<int> input = {1, 2, 3};
  PCollection<int> out = ParDo<int, int>(
      cluster, "fan", input, [](const int& x, auto emit) {
        if (x % 2 == 1) {
          emit(x);
          emit(x * 10);
        }
      });
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (PCollection<int>{1, 3, 10, 30}));
}

TEST(DataflowTest, GroupByKeyGroupsAndCountsShuffle) {
  sim::Cluster cluster = MakeCluster();
  PCollection<KV<uint32_t, uint32_t>> records = {
      {2, 20}, {1, 10}, {2, 21}, {3, 30}, {1, 11}};
  auto groups = GroupByKey(cluster, "group", std::move(records));
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].first, 1u);
  EXPECT_EQ(groups[1].first, 2u);
  EXPECT_EQ(groups[2].first, 3u);
  std::vector<uint32_t> ones = groups[0].second;
  std::sort(ones.begin(), ones.end());
  EXPECT_EQ(ones, (std::vector<uint32_t>{10, 11}));
  EXPECT_EQ(cluster.metrics().Get("shuffles"), 1);
  // 5 records x (4 + 4) bytes.
  EXPECT_EQ(cluster.metrics().Get("shuffle_bytes"), 40);
}

TEST(DataflowTest, ShuffleBytesComputesWireSize) {
  PCollection<KV<uint64_t, uint32_t>> records = {{1, 2}, {3, 4}};
  EXPECT_EQ(ShuffleBytes(records), 2 * (8 + 4));
}

TEST(DataflowTest, FlattenConcatenatesInOrder) {
  PCollection<int> flat = Flatten<int>({{1, 2}, {3}, {}});
  EXPECT_EQ(flat, (PCollection<int>{1, 2, 3}));
}

TEST(DataflowTest, WordCountPipeline) {
  // A miniature end-to-end Flume-style pipeline.
  sim::Cluster cluster = MakeCluster();
  PCollection<std::string> lines = {"a b", "b c", "c b"};
  auto words = ParDo<std::string, KV<char, uint32_t>>(
      cluster, "split", lines, [](const std::string& line, auto emit) {
        for (char c : line) {
          if (c != ' ') emit(KV<char, uint32_t>{c, 1});
        }
      });
  auto grouped = GroupByKey(cluster, "shuffle", std::move(words));
  auto counts = ParDo<KV<char, std::vector<uint32_t>>, KV<char, size_t>>(
      cluster, "count", grouped, [](const auto& group, auto emit) {
        emit(KV<char, size_t>{group.first, group.second.size()});
      });
  std::sort(counts.begin(), counts.end());
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], (KV<char, size_t>{'a', 1}));
  EXPECT_EQ(counts[1], (KV<char, size_t>{'b', 3}));
  EXPECT_EQ(counts[2], (KV<char, size_t>{'c', 2}));
  EXPECT_EQ(cluster.metrics().Get("rounds"), 3);
  EXPECT_EQ(cluster.metrics().Get("shuffles"), 1);
}

TEST(DataflowTest, ParDoOutputIsDeterministicAndInSerialOrder) {
  // Per-chunk slots are assembled in index order, so the output must be
  // exactly the serial emission sequence — on every run.
  const int64_t n = 100000;
  PCollection<uint32_t> input(n);
  for (int64_t i = 0; i < n; ++i) input[i] = static_cast<uint32_t>(i);
  auto fan = [](const uint32_t& x, auto emit) {
    if (x % 3 == 0) return;  // filtering changes slot sizes
    emit(x);
    if (x % 5 == 0) emit(x + 1000000);
  };
  PCollection<uint32_t> serial;
  auto serial_emit = [&serial](uint32_t v) { serial.push_back(v); };
  for (const uint32_t& x : input) fan(x, serial_emit);

  PCollection<uint32_t> first;
  for (int run = 0; run < 3; ++run) {
    sim::Cluster cluster = MakeCluster();
    auto out = ParDo<uint32_t, uint32_t>(cluster, "fan", input, fan);
    EXPECT_EQ(out, serial);
    if (run == 0) {
      first = std::move(out);
    } else {
      EXPECT_EQ(out, first);
    }
  }
}

TEST(DataflowTest, GroupByKeyLargeInputMatchesSerialReference) {
  // Large enough to take the sharded parallel path (>= kShardCutoff).
  // 50,000 keys make more group headers than ParallelSort's cutoff, so
  // the final header sort runs its merge passes on vector-valued
  // elements; a single key puts every record in one shard and one group.
  const int64_t n = 200000;
  const int hardware =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  for (const uint64_t num_keys : {5000, 50000, 1}) {
    Rng rng(7);
    PCollection<KV<uint32_t, uint32_t>> records(n);
    for (int64_t i = 0; i < n; ++i) {
      records[i] = {static_cast<uint32_t>(rng.NextBelow(num_keys)),
                    static_cast<uint32_t>(i)};
    }
    // Serial reference: stable sort by key, then scan.
    auto reference = records;
    std::stable_sort(reference.begin(), reference.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    PCollection<KV<uint32_t, std::vector<uint32_t>>> want;
    for (size_t i = 0; i < reference.size();) {
      size_t j = i;
      std::vector<uint32_t> values;
      while (j < reference.size() &&
             reference[j].first == reference[i].first) {
        values.push_back(reference[j].second);
        ++j;
      }
      want.emplace_back(reference[i].first, std::move(values));
      i = j;
    }

    for (const int threads : {1, 2, 3, hardware}) {
      ThreadPool pool(threads);
      sim::ClusterConfig config;
      config.num_machines = 4;
      sim::Cluster cluster(config, pool);
      auto groups = GroupByKey(cluster, "big", records);
      ASSERT_EQ(groups.size(), want.size())
          << num_keys << " keys, " << threads << " threads";
      // Key-sorted, values in input order.
      EXPECT_EQ(groups, want) << num_keys << " keys, " << threads
                              << " threads";
      EXPECT_EQ(cluster.metrics().Get("shuffles"), 1);
      EXPECT_EQ(cluster.metrics().Get("rounds"), 1);
      EXPECT_EQ(cluster.metrics().Get("shuffle_bytes"), n * (4 + 4));
    }
  }
}

TEST(DataflowTest, GroupByKeyDeterministicAcrossThreadCounts) {
  const int64_t n = 60000;
  Rng rng(9);
  PCollection<KV<uint64_t, uint64_t>> records(n);
  for (int64_t i = 0; i < n; ++i) {
    records[i] = {rng.NextBelow(300), static_cast<uint64_t>(i)};
  }
  std::vector<PCollection<KV<uint64_t, std::vector<uint64_t>>>> results;
  for (int threads : {1, 3, 8}) {
    ThreadPool pool(threads);
    auto copy = records;
    auto groups = GroupByKeyEngine(pool, std::move(copy));
    EXPECT_TRUE(std::is_sorted(groups.begin(), groups.end(),
                               [](const auto& a, const auto& b) {
                                 return a.first < b.first;
                               }));
    results.push_back(std::move(groups));
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[0], results[2]);
}

TEST(DataflowTest, ShuffleBytesParallelOverloadMatchesSerial) {
  ThreadPool pool(4);
  Rng rng(11);
  PCollection<KV<uint64_t, uint32_t>> records(50000);
  for (auto& r : records) {
    r = {rng.Next(), static_cast<uint32_t>(rng.NextBelow(100))};
  }
  EXPECT_EQ(ShuffleBytes(pool, records), ShuffleBytes(records));
}

TEST(DataflowTest, EmptyInputsAreFine) {
  sim::Cluster cluster = MakeCluster();
  PCollection<int> empty;
  auto out = ParDo<int, int>(cluster, "e", empty,
                             [](const int& x, auto emit) { emit(x); });
  EXPECT_TRUE(out.empty());
  auto groups =
      GroupByKey(cluster, "g", PCollection<KV<int, int>>{});
  EXPECT_TRUE(groups.empty());
}

}  // namespace
}  // namespace ampc::mpc
