#include "core/mis.h"

#include <gtest/gtest.h>

#include "core/priorities.h"
#include "graph/generators.h"
#include "seq/greedy.h"

namespace ampc::core {
namespace {

using graph::EdgeList;
using graph::Graph;

sim::ClusterConfig SmallConfig(bool caching = true, bool mt = true) {
  sim::ClusterConfig config;
  config.num_machines = 4;
  config.threads_per_machine = 2;
  config.query_cache.enabled = caching;
  config.multithreading = mt;
  return config;
}

TEST(AmpcMisTest, EmptyAndSingletonGraphs) {
  sim::Cluster cluster(SmallConfig());
  EdgeList list;
  list.num_nodes = 5;  // no edges: everyone joins the MIS
  Graph g = graph::BuildGraph(list);
  MisResult r = AmpcMis(cluster, g, 1);
  EXPECT_EQ(r.in_mis, (std::vector<uint8_t>{1, 1, 1, 1, 1}));
}

TEST(AmpcMisTest, TriangleHasOneMember) {
  sim::Cluster cluster(SmallConfig());
  Graph g = graph::BuildGraph(graph::GenerateComplete(3));
  MisResult r = AmpcMis(cluster, g, 7);
  int members = r.in_mis[0] + r.in_mis[1] + r.in_mis[2];
  EXPECT_EQ(members, 1);
}

TEST(AmpcMisTest, UsesExactlyOneShuffle) {
  sim::Cluster cluster(SmallConfig());
  Graph g = graph::BuildGraph(graph::GenerateErdosRenyi(500, 2000, 3));
  AmpcMis(cluster, g, 3);
  // Table 3: the AMPC MIS implementation uses a single shuffle.
  EXPECT_EQ(cluster.metrics().Get("shuffles"), 1);
}

class MisEqualityTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(MisEqualityTest, MatchesSequentialGreedyExactly) {
  const auto [shape, seed] = GetParam();
  EdgeList list;
  switch (shape) {
    case 0:
      list = graph::GenerateErdosRenyi(400, 1600, seed);
      break;
    case 1:
      list = graph::GenerateRmat(9, 3000, seed);
      break;
    case 2:
      list = graph::GeneratePath(700);
      break;
    case 3:
      list = graph::GenerateCycle(512);
      break;
    default:
      list = graph::GenerateStar(300);
  }
  Graph g = graph::BuildGraph(list);
  sim::Cluster cluster(SmallConfig());
  MisResult ampc = AmpcMis(cluster, g, seed);
  std::vector<uint64_t> ranks = AllVertexRanks(g.num_nodes(), seed);
  std::vector<uint8_t> oracle = seq::GreedyMis(g, ranks);
  EXPECT_EQ(ampc.in_mis, oracle);
  EXPECT_TRUE(seq::IsMaximalIndependentSet(g, ampc.in_mis));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MisEqualityTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4),
                       ::testing::Values(1u, 2u, 3u)));

TEST(AmpcMisTest, CachingOffStillCorrect) {
  EdgeList list = graph::GenerateErdosRenyi(200, 800, 5);
  Graph g = graph::BuildGraph(list);
  sim::Cluster with_cache(SmallConfig(/*caching=*/true));
  sim::Cluster no_cache(SmallConfig(/*caching=*/false));
  MisResult a = AmpcMis(with_cache, g, 5);
  MisResult b = AmpcMis(no_cache, g, 5);
  EXPECT_EQ(a.in_mis, b.in_mis);
}

TEST(AmpcMisTest, CachingReducesKvTraffic) {
  EdgeList list = graph::GenerateErdosRenyi(300, 2400, 9);
  Graph g = graph::BuildGraph(list);
  sim::Cluster with_cache(SmallConfig(/*caching=*/true));
  sim::Cluster no_cache(SmallConfig(/*caching=*/false));
  AmpcMis(with_cache, g, 9);
  AmpcMis(no_cache, g, 9);
  // The Section 5.3 claim: caching cuts bytes read from the KV store.
  EXPECT_LT(with_cache.metrics().Get("kv_read_bytes"),
            no_cache.metrics().Get("kv_read_bytes"));
  EXPECT_GT(with_cache.metrics().Get("cache_hits"), 0);
}

TEST(AmpcMisTest, DifferentSeedsUsuallyDiffer) {
  EdgeList list = graph::GenerateErdosRenyi(300, 1500, 11);
  Graph g = graph::BuildGraph(list);
  sim::Cluster c1(SmallConfig());
  sim::Cluster c2(SmallConfig());
  MisResult a = AmpcMis(c1, g, 100);
  MisResult b = AmpcMis(c2, g, 200);
  EXPECT_NE(a.in_mis, b.in_mis);
}

TEST(AmpcMisTest, DeterministicAcrossClusterShapes) {
  // The output must not depend on machine count or threading — only on
  // the seed.
  EdgeList list = graph::GenerateRmat(9, 4000, 13);
  Graph g = graph::BuildGraph(list);
  sim::ClusterConfig one;
  one.num_machines = 1;
  one.threads_per_machine = 1;
  sim::ClusterConfig many;
  many.num_machines = 13;
  many.threads_per_machine = 4;
  sim::Cluster c1(one), c2(many);
  EXPECT_EQ(AmpcMis(c1, g, 21).in_mis, AmpcMis(c2, g, 21).in_mis);
}

// Pins the cached charges of AmpcMis on a hub-heavy web R-MAT. On one
// machine its 2^17 vertices overflow the query cache
// (sim::Cluster::kQueryCacheCapacity), so the derived and read-through
// caches must evict; four machines split the reads. The values were
// recorded with the list + map LRU: how a cache stores its entries may
// change; which probes hit and what is evicted, and so every charge,
// may not.
TEST(AmpcMisTest, ChargedCostsMatchParent) {
  graph::RmatOptions web;
  web.a = 0.65;
  web.b = web.c = (1.0 - web.a) / 3.0;
  const Graph g = graph::BuildGraph(graph::GenerateRmat(17, 600000, 5, web));
  // cache_hits, cache_misses, kv_reads, kv_read_bytes, kv_lookup_trips;
  // `staging` gets the DirectGraph shuffle's and KV-Write round's
  // charges: shuffle_bytes, kv_writes, kv_write_bytes,
  // kv_hot_machine_write_bytes, rounds, shuffles.
  const auto run = [&](int machines, double* sim_seconds,
                       std::vector<int64_t>* staging) {
    sim::ClusterConfig config;
    config.num_machines = machines;
    config.threads_per_machine = 4;
    sim::Cluster cluster(config);
    EXPECT_TRUE(
        seq::IsMaximalIndependentSet(g, AmpcMis(cluster, g, 42).in_mis));
    *sim_seconds = cluster.SimSeconds();
    const Metrics& m = cluster.metrics();
    *staging = {m.Get("shuffle_bytes"), m.Get("kv_writes"),
                m.Get("kv_write_bytes"), m.Get("kv_hot_machine_write_bytes"),
                m.Get("rounds"),         m.Get("shuffles")};
    return std::vector<int64_t>{m.Get("cache_hits"), m.Get("cache_misses"),
                                m.Get("kv_reads"), m.Get("kv_read_bytes"),
                                m.Get("kv_lookup_trips")};
  };
  double sim_seconds = 0;
  std::vector<int64_t> staging;
  EXPECT_EQ(run(1, &sim_seconds, &staging),
            (std::vector<int64_t>{115589, 52815, 33361, 1376168, 45}));
  EXPECT_DOUBLE_EQ(sim_seconds, 0.377044969);
  EXPECT_EQ(staging,
            (std::vector<int64_t>{4144376, 131072, 4144376, 4144376, 3, 1}));
  EXPECT_EQ(run(4, &sim_seconds, &staging),
            (std::vector<int64_t>{127584, 109003, 61177, 3973612, 1002}));
  EXPECT_DOUBLE_EQ(sim_seconds, 0.207471350);
  EXPECT_EQ(staging,
            (std::vector<int64_t>{4144376, 131072, 4144376, 1064464, 3, 1}));
}

TEST(AmpcMisTest, DeepRankChainDoesNotOverflowStack) {
  // A long path is the worst case for the recursion depth; the iterative
  // implementation must handle it at any seed.
  Graph g = graph::BuildGraph(graph::GeneratePath(200000));
  sim::Cluster cluster(SmallConfig());
  MisResult r = AmpcMis(cluster, g, 2);
  EXPECT_TRUE(seq::IsMaximalIndependentSet(g, r.in_mis));
}

}  // namespace
}  // namespace ampc::core
