#include "core/matching.h"

#include <gtest/gtest.h>

#include "core/priorities.h"
#include "graph/generators.h"
#include "seq/greedy.h"

namespace ampc::core {
namespace {

using graph::EdgeList;
using graph::Graph;
using graph::kInvalidNode;

sim::ClusterConfig SmallConfig(bool caching = true) {
  sim::ClusterConfig config;
  config.num_machines = 4;
  config.threads_per_machine = 2;
  config.query_cache.enabled = caching;
  return config;
}

// The charges of a job's staging shuffles and KV-Write rounds:
// shuffle_bytes, kv_writes, kv_write_bytes, kv_hot_machine_write_bytes,
// rounds, shuffles.
std::vector<int64_t> StagingCharges(const Metrics& m) {
  return {m.Get("shuffle_bytes"),  m.Get("kv_writes"),
          m.Get("kv_write_bytes"), m.Get("kv_hot_machine_write_bytes"),
          m.Get("rounds"),         m.Get("shuffles")};
}

EdgeList ShapeGraph(int shape, uint64_t seed) {
  switch (shape) {
    case 0:
      return graph::GenerateErdosRenyi(300, 1200, seed);
    case 1:
      return graph::GenerateRmat(9, 2500, seed);
    case 2:
      return graph::GeneratePath(600);
    case 3:
      return graph::GenerateCycle(512);
    default:
      return graph::GenerateStar(200);
  }
}

TEST(AmpcMatchingTest, SingleEdgeMatches) {
  EdgeList list;
  list.num_nodes = 2;
  list.edges = {{0, 1}};
  Graph g = graph::BuildGraph(list);
  sim::Cluster cluster(SmallConfig());
  MatchingResult r = AmpcMatching(cluster, g);
  EXPECT_EQ(r.partner[0], 1u);
  EXPECT_EQ(r.partner[1], 0u);
}

TEST(AmpcMatchingTest, UsesExactlyOneShuffle) {
  Graph g = graph::BuildGraph(graph::GenerateErdosRenyi(400, 1600, 3));
  sim::Cluster cluster(SmallConfig());
  MatchingOptions options;
  options.seed = 3;
  AmpcMatching(cluster, g, options);
  EXPECT_EQ(cluster.metrics().Get("shuffles"), 1);  // Table 3
}

class MatchingEqualityTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(MatchingEqualityTest, MatchesSequentialGreedyExactly) {
  const auto [shape, seed] = GetParam();
  EdgeList list = ShapeGraph(shape, seed);
  Graph g = graph::BuildGraph(list);
  sim::Cluster cluster(SmallConfig());
  MatchingOptions options;
  options.seed = seed;
  MatchingResult ampc = AmpcMatching(cluster, g, options);

  // Build the oracle over the *deduped* edge list of g so both sides see
  // the same simple graph.
  EdgeList simple;
  simple.num_nodes = g.num_nodes();
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    for (graph::NodeId u : g.neighbors(v)) {
      if (v < u) simple.edges.push_back(graph::Edge{v, u});
    }
  }
  std::vector<uint64_t> ranks = AllEdgeRanks(simple, seed);
  seq::MatchingResult oracle = seq::GreedyMaximalMatching(simple, ranks);
  EXPECT_EQ(ampc.partner, oracle.partner);

  seq::MatchingResult converted = ToSeqMatching(simple, ampc.partner);
  EXPECT_TRUE(seq::IsMaximalMatching(simple, converted.edges));
  EXPECT_EQ(converted.edges, oracle.edges);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MatchingEqualityTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4),
                       ::testing::Values(1u, 2u, 3u)));

TEST(AmpcMatchingTest, CachingOffStillCorrect) {
  EdgeList list = graph::GenerateErdosRenyi(150, 600, 5);
  Graph g = graph::BuildGraph(list);
  sim::Cluster with_cache(SmallConfig(true));
  sim::Cluster no_cache(SmallConfig(false));
  MatchingOptions options;
  options.seed = 5;
  EXPECT_EQ(AmpcMatching(with_cache, g, options).partner,
            AmpcMatching(no_cache, g, options).partner);
}

TEST(AmpcMatchingTest, CachingReducesKvTraffic) {
  EdgeList list = graph::GenerateErdosRenyi(200, 1600, 7);
  Graph g = graph::BuildGraph(list);
  sim::Cluster with_cache(SmallConfig(true));
  sim::Cluster no_cache(SmallConfig(false));
  MatchingOptions options;
  options.seed = 7;
  AmpcMatching(with_cache, g, options);
  AmpcMatching(no_cache, g, options);
  EXPECT_LT(with_cache.metrics().Get("kv_read_bytes"),
            no_cache.metrics().Get("kv_read_bytes"));
}

TEST(AmpcMatchingTest, TruncationRetriesUntilSettled) {
  EdgeList list = graph::GenerateErdosRenyi(200, 900, 11);
  Graph g = graph::BuildGraph(list);
  sim::Cluster cluster(SmallConfig());
  MatchingOptions options;
  options.seed = 11;
  options.max_queries_per_vertex = 8;  // aggressive truncation
  MatchingResult r = AmpcMatching(cluster, g, options);
  EXPECT_GE(r.phases, 1);

  sim::Cluster unlimited(SmallConfig());
  MatchingOptions wide;
  wide.seed = 11;
  MatchingResult full = AmpcMatching(unlimited, g, wide);
  EXPECT_EQ(r.partner, full.partner);  // truncation changes cost, not output
}

TEST(AmpcMatchingTest, DeterministicAcrossClusterShapes) {
  EdgeList list = graph::GenerateRmat(9, 3000, 13);
  Graph g = graph::BuildGraph(list);
  sim::ClusterConfig one;
  one.num_machines = 1;
  one.threads_per_machine = 1;
  sim::ClusterConfig many;
  many.num_machines = 11;
  many.threads_per_machine = 3;
  sim::Cluster c1(one), c2(many);
  MatchingOptions options;
  options.seed = 17;
  EXPECT_EQ(AmpcMatching(c1, g, options).partner,
            AmpcMatching(c2, g, options).partner);
}

// Pins the cached charges of AmpcMatching on a hub-heavy web R-MAT. On
// one machine its 2^17 vertices overflow the query cache
// (sim::Cluster::kQueryCacheCapacity), so the derived and read-through
// caches must evict; four machines split the reads. The values were
// recorded with the list + map LRU: how a cache stores its entries may
// change; which probes hit and what is evicted, and so every charge,
// may not.
TEST(AmpcMatchingTest, ChargedCostsMatchParent) {
  graph::RmatOptions web;
  web.a = 0.65;
  web.b = web.c = (1.0 - web.a) / 3.0;
  const Graph g = graph::BuildGraph(graph::GenerateRmat(17, 600000, 5, web));
  MatchingOptions options;
  options.seed = 42;
  std::vector<graph::NodeId> partner;
  // cache_hits, cache_misses, kv_reads, kv_read_bytes, kv_lookup_trips;
  // `staging` gets the PermuteGraph and KV-Write StagingCharges.
  const auto run = [&](int machines, double* sim_seconds,
                       std::vector<int64_t>* staging) {
    sim::ClusterConfig config;
    config.num_machines = machines;
    config.threads_per_machine = 4;
    sim::Cluster cluster(config);
    const MatchingResult r = AmpcMatching(cluster, g, options);
    if (partner.empty()) partner = r.partner;
    EXPECT_EQ(r.partner, partner);
    *sim_seconds = cluster.SimSeconds();
    const Metrics& m = cluster.metrics();
    *staging = StagingCharges(m);
    return std::vector<int64_t>{m.Get("cache_hits"), m.Get("cache_misses"),
                                m.Get("kv_reads"), m.Get("kv_read_bytes"),
                                m.Get("kv_lookup_trips")};
  };
  double sim_seconds = 0;
  std::vector<int64_t> staging;
  EXPECT_EQ(run(1, &sim_seconds, &staging),
            (std::vector<int64_t>{152618, 29319, 29319, 4057392, 29319}));
  EXPECT_DOUBLE_EQ(sim_seconds, 0.500666289);
  EXPECT_EQ(staging,
            (std::vector<int64_t>{6191600, 131072, 6191600, 6191600, 3, 1}));
  EXPECT_EQ(run(4, &sim_seconds, &staging),
            (std::vector<int64_t>{250780, 90396, 90396, 15145096, 90396}));
  EXPECT_DOUBLE_EQ(sim_seconds, 0.249494139);
  EXPECT_EQ(staging,
            (std::vector<int64_t>{6191600, 131072, 6191600, 1561932, 3, 1}));
}

// Pins AmpcMatchingSampled's charges on the same web graph. Each
// iteration's SampleGraph shuffle ships a row only for an alive vertex,
// and only the arcs below the iteration's rank threshold, so its bytes
// are no formula over all n rows; they were recorded at the parent of
// the flat rank-keyed staging.
TEST(AmpcMatchingTest, SampledChargedCostsMatchParent) {
  graph::RmatOptions web;
  web.a = 0.65;
  web.b = web.c = (1.0 - web.a) / 3.0;
  const Graph g = graph::BuildGraph(graph::GenerateRmat(17, 600000, 5, web));
  MatchingOptions options;
  options.seed = 42;
  std::vector<graph::NodeId> partner;
  // cache_hits, cache_misses, kv_reads, kv_read_bytes, kv_lookup_trips,
  // then StagingCharges.
  const auto run = [&](int machines, double* sim_seconds, int* phases) {
    sim::ClusterConfig config;
    config.num_machines = machines;
    config.threads_per_machine = 4;
    sim::Cluster cluster(config);
    const MatchingResult r = AmpcMatchingSampled(cluster, g, options);
    if (partner.empty()) partner = r.partner;
    EXPECT_EQ(r.partner, partner);
    *sim_seconds = cluster.SimSeconds();
    *phases = r.phases;
    const Metrics& m = cluster.metrics();
    std::vector<int64_t> charges{m.Get("cache_hits"), m.Get("cache_misses"),
                                 m.Get("kv_reads"), m.Get("kv_read_bytes"),
                                 m.Get("kv_lookup_trips")};
    const std::vector<int64_t> staging = StagingCharges(m);
    charges.insert(charges.end(), staging.begin(), staging.end());
    return charges;
  };
  double sim_seconds = 0;
  int phases = 0;
  EXPECT_EQ(run(1, &sim_seconds, &phases),
            (std::vector<int64_t>{45948, 24757, 24757, 659308, 24757, 6373824,
                                  393216, 6730784, 6730784, 13, 3}));
  EXPECT_DOUBLE_EQ(sim_seconds, 1.041123605);
  EXPECT_EQ(phases, 3);
  EXPECT_EQ(run(4, &sim_seconds, &phases),
            (std::vector<int64_t>{31594, 60672, 60672, 1736856, 60672, 6373824,
                                  393216, 6730784, 1687276, 13, 3}));
  EXPECT_DOUBLE_EQ(sim_seconds, 0.753734328);
  EXPECT_EQ(phases, 3);
  // The matching is Algorithm 4's union of per-level greedy matchings,
  // which is the global one AmpcMatching computes.
  sim::Cluster direct_cluster(SmallConfig());
  EXPECT_EQ(AmpcMatching(direct_cluster, g, options).partner, partner);
}

class SampledMatchingTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SampledMatchingTest, SampledVariantEqualsGreedyToo) {
  const uint64_t seed = GetParam();
  EdgeList list = graph::GenerateRmat(9, 3000, seed);
  Graph g = graph::BuildGraph(list);
  sim::Cluster cluster(SmallConfig());
  MatchingOptions options;
  options.seed = seed;
  MatchingResult sampled = AmpcMatchingSampled(cluster, g, options);

  sim::Cluster direct_cluster(SmallConfig());
  MatchingResult direct = AmpcMatching(direct_cluster, g, options);
  // Algorithm 4's union of per-level matchings is the global LFMM.
  EXPECT_EQ(sampled.partner, direct.partner);
  EXPECT_GE(sampled.phases, 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SampledMatchingTest,
                         ::testing::Values(1, 2, 3, 4));

TEST(AmpcMatchingTest, LongPathNoStackOverflow) {
  Graph g = graph::BuildGraph(graph::GeneratePath(120000));
  sim::Cluster cluster(SmallConfig());
  MatchingOptions options;
  options.seed = 23;
  MatchingResult r = AmpcMatching(cluster, g, options);
  // Validate as a matching on the path.
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (r.partner[v] != kInvalidNode) {
      EXPECT_EQ(r.partner[r.partner[v]], v);
    }
  }
}

}  // namespace
}  // namespace ampc::core
