#include "core/msf.h"

#include <gtest/gtest.h>

#include "core/connectivity.h"
#include "graph/generators.h"
#include "seq/msf.h"

namespace ampc::core {
namespace {

using graph::EdgeList;
using graph::WeightedEdgeList;

sim::ClusterConfig SmallConfig() {
  sim::ClusterConfig config;
  config.num_machines = 4;
  config.threads_per_machine = 2;
  // Force the distributed path even on the small test graphs.
  config.in_memory_threshold_arcs = 64;
  return config;
}

WeightedEdgeList ShapeWeighted(int shape, uint64_t seed) {
  EdgeList raw;
  switch (shape) {
    case 0:
      raw = graph::GenerateErdosRenyi(300, 1200, seed);
      break;
    case 1:
      raw = graph::GenerateRmat(9, 2500, seed);
      break;
    case 2:
      raw = graph::GeneratePath(500);
      break;
    case 3:
      raw = graph::GenerateGrid(20, 25);
      break;
    case 4:
      raw = graph::GenerateDoubleCycle(250);
      break;
    // Shapes 5 and 6 are shapes 0 and 1 with every weight tied, so the
    // edge id alone orders the edges: AmpcConnectivity's input, where
    // searches meet R-MAT hubs whose adjacency is one long tie.
    case 5:
      raw = graph::GenerateErdosRenyi(300, 1200, seed);
      return graph::MakeUnitWeighted(raw);
    default:
      raw = graph::GenerateRmat(9, 2500, seed);
      return graph::MakeUnitWeighted(raw);
  }
  return graph::MakeRandomWeighted(raw, seed ^ 0xbeef);
}

TEST(AmpcMsfTest, TinyGraphInMemoryPath) {
  sim::ClusterConfig config;
  config.num_machines = 2;
  config.in_memory_threshold_arcs = 1 << 20;  // everything in-memory
  sim::Cluster cluster(config);
  WeightedEdgeList list = ShapeWeighted(0, 1);
  MsfResult r = AmpcMsf(cluster, list);
  EXPECT_EQ(r.edges, seq::KruskalMsf(list));
  EXPECT_EQ(r.rounds, 0);
}

class MsfEqualityTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(MsfEqualityTest, ExactlyMatchesKruskal) {
  const auto [shape, seed] = GetParam();
  WeightedEdgeList list = ShapeWeighted(shape, seed);
  sim::Cluster cluster(SmallConfig());
  MsfOptions options;
  options.seed = seed;
  MsfResult r = AmpcMsf(cluster, list, options);
  EXPECT_EQ(r.edges, seq::KruskalMsf(list));
  EXPECT_GE(r.rounds, 1);  // the distributed path really ran
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MsfEqualityTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4, 5, 6),
                       ::testing::Values(1u, 2u, 3u)));

TEST(AmpcMsfTest, TernarizedPathMatchesKruskalToo) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    WeightedEdgeList list;
    {
      // Ternarize needs a simple graph: dedupe through the CSR.
      EdgeList raw = graph::GenerateRmat(8, 1200, seed);
      graph::Graph g = graph::BuildGraph(raw);
      list.num_nodes = g.num_nodes();
      for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
        for (graph::NodeId u : g.neighbors(v)) {
          if (v < u) {
            list.edges.push_back(graph::WeightedEdge{
                v, u, ToUnitDouble(HashEdge(v, u, seed)),
                static_cast<graph::EdgeId>(list.edges.size())});
          }
        }
      }
    }
    sim::Cluster cluster(SmallConfig());
    MsfOptions options;
    options.seed = seed;
    options.ternarize = true;
    MsfResult r = AmpcMsf(cluster, list, options);
    EXPECT_EQ(r.edges, seq::KruskalMsf(list)) << "seed " << seed;
  }
}

TEST(AmpcMsfTest, FiveShufflesPerContractionRound) {
  WeightedEdgeList list = ShapeWeighted(1, 5);
  sim::Cluster cluster(SmallConfig());
  MsfOptions options;
  options.seed = 5;
  MsfResult r = AmpcMsf(cluster, list, options);
  // Section 5.5 / Table 3: 5 shuffles per search+contract round.
  EXPECT_EQ(cluster.metrics().Get("shuffles"), 5 * r.rounds);
}

TEST(AmpcMsfTest, SearchLimitChangesCostNotOutput) {
  WeightedEdgeList list = ShapeWeighted(0, 9);
  MsfOptions tight;
  tight.seed = 9;
  tight.search_limit = 2;
  MsfOptions loose;
  loose.seed = 9;
  loose.search_limit = 64;
  sim::Cluster c1(SmallConfig()), c2(SmallConfig());
  EXPECT_EQ(AmpcMsf(c1, list, tight).edges, AmpcMsf(c2, list, loose).edges);
}

TEST(AmpcMsfTest, DeterministicAcrossClusterShapes) {
  WeightedEdgeList list = ShapeWeighted(1, 13);
  sim::ClusterConfig one;
  one.num_machines = 1;
  one.in_memory_threshold_arcs = 64;
  sim::ClusterConfig many;
  many.num_machines = 9;
  many.threads_per_machine = 4;
  many.in_memory_threshold_arcs = 64;
  sim::Cluster c1(one), c2(many);
  MsfOptions options;
  options.seed = 13;
  EXPECT_EQ(AmpcMsf(c1, list, options).edges,
            AmpcMsf(c2, list, options).edges);
}

TEST(AmpcMsfTest, DegreeWeightedInputsWork) {
  // The weighting scheme used by the paper's MSF experiments.
  EdgeList raw = graph::GenerateRmat(9, 2500, 17);
  graph::Graph g = graph::BuildGraph(raw);
  WeightedEdgeList list = graph::MakeDegreeWeighted(raw, g);
  sim::Cluster cluster(SmallConfig());
  MsfOptions options;
  options.seed = 17;
  MsfResult r = AmpcMsf(cluster, list, options);
  EXPECT_EQ(r.edges, seq::KruskalMsf(list));
}

TEST(AmpcMsfTest, EmptyAndEdgelessGraphs) {
  sim::Cluster cluster(SmallConfig());
  WeightedEdgeList list;
  list.num_nodes = 10;
  MsfResult r = AmpcMsf(cluster, list);
  EXPECT_TRUE(r.edges.empty());
}

TEST(AmpcMsfTest, ParallelEdgesAndSelfLoopsTolerated) {
  WeightedEdgeList list;
  list.num_nodes = 3;
  list.edges = {{0, 1, 5.0, 0}, {0, 1, 1.0, 1}, {1, 1, 0.5, 2},
                {1, 2, 2.0, 3}};
  sim::Cluster cluster(SmallConfig());
  MsfResult r = AmpcMsf(cluster, list);
  EXPECT_EQ(r.edges, seq::KruskalMsf(list));
  EXPECT_EQ(r.edges, (std::vector<graph::EdgeId>{1, 3}));
}

// Pins the charged costs of a multi-round AmpcMsf and AmpcConnectivity
// run, uncached so every counter and the simulated clock are exact. The
// values were recorded with the earlier eager heap of arc copies: the
// search's host-side data structures may change; what it reads, and so
// what it is charged, may not.
TEST(AmpcMsfTest, ChargedCostsMatchParent) {
  const EdgeList raw = graph::GenerateRmat(12, 20000, 7);
  sim::ClusterConfig config;
  config.num_machines = 4;
  config.threads_per_machine = 4;
  config.query_cache.enabled = false;
  config.in_memory_threshold_arcs = 64;
  MsfOptions options;
  options.seed = 7;
  // rounds, kv_reads, kv_lookup_trips, kv_batches, kv_read_bytes,
  // kv_write_bytes.
  const auto counters = [](sim::Cluster& cluster) {
    const Metrics& m = cluster.metrics();
    return std::vector<int64_t>{m.Get("rounds"), m.Get("kv_reads"),
                                m.Get("kv_lookup_trips"), m.Get("kv_batches"),
                                m.Get("kv_read_bytes"),
                                m.Get("kv_write_bytes")};
  };

  sim::Cluster msf(config);
  AmpcMsf(msf, graph::MakeDegreeWeighted(raw, graph::BuildGraph(raw)),
          options);
  EXPECT_EQ(counters(msf),
            (std::vector<int64_t>{18, 33615, 9055, 4035, 3366128, 666132}));
  EXPECT_DOUBLE_EQ(msf.SimSeconds(), 1.102666546);

  sim::Cluster cc(config);
  AmpcConnectivity(cc, raw, options);
  EXPECT_EQ(counters(cc),
            (std::vector<int64_t>{21, 32749, 6458, 2936, 26488420, 666312}));
  EXPECT_DOUBLE_EQ(cc.SimSeconds(), 1.29827504);
}

TEST(AmpcMsfTest, PointerJumpChainsStayShort) {
  // The paper observed a maximum chain length of 33 across all graphs;
  // ours should likewise stay far below n.
  WeightedEdgeList list = ShapeWeighted(1, 19);
  sim::Cluster cluster(SmallConfig());
  MsfOptions options;
  options.seed = 19;
  MsfResult r = AmpcMsf(cluster, list, options);
  EXPECT_LE(r.max_jump_chain, 64);
}

}  // namespace
}  // namespace ampc::core
