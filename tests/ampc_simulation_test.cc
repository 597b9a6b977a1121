// Tests for the Section 5.3 rejected baseline: simulating the AMPC MIS
// query process in MPC, one shuffle per synchronized lookup round.
#include "baselines/ampc_simulation.h"

#include <gtest/gtest.h>

#include "baselines/rootset_mis.h"
#include "core/mis.h"
#include "core/priorities.h"
#include "graph/generators.h"
#include "seq/greedy.h"

namespace ampc::baselines {
namespace {

using graph::Graph;
using graph::NodeId;

sim::ClusterConfig SmallConfig() {
  sim::ClusterConfig config;
  config.num_machines = 4;
  config.threads_per_machine = 2;
  return config;
}

TEST(SimulatedAmpcMisTest, ComputesTheSameMisAsAmpc) {
  for (uint64_t seed = 0; seed < 5; ++seed) {
    Graph g = graph::BuildGraph(graph::GenerateErdosRenyi(200, 600, seed));
    sim::Cluster sim_cluster(SmallConfig());
    SimulatedAmpcMisResult simulated =
        MpcSimulatedAmpcMis(sim_cluster, g, seed);

    sim::Cluster ampc_cluster(SmallConfig());
    core::MisResult ampc = core::AmpcMis(ampc_cluster, g, seed);
    EXPECT_EQ(simulated.in_mis, ampc.in_mis) << "seed " << seed;
  }
}

TEST(SimulatedAmpcMisTest, OutputIsLexicographicallyFirstMis) {
  Graph g = graph::BuildGraph(graph::GenerateRmat(8, 1500, 7));
  sim::Cluster cluster(SmallConfig());
  SimulatedAmpcMisResult result = MpcSimulatedAmpcMis(cluster, g, 7);
  std::vector<uint64_t> ranks =
      core::AllVertexRanks(g.num_nodes(), 7);
  EXPECT_EQ(result.in_mis, seq::GreedyMis(g, ranks));
}

TEST(SimulatedAmpcMisTest, ShuffleCountBlowsUp) {
  // The point of the experiment: per-query shuffles make the round count
  // explode compared to both the AMPC implementation (1 shuffle) and the
  // rootset MPC baseline (tens).
  Graph g = graph::BuildGraph(graph::GenerateRmat(10, 12000, 42));
  sim::Cluster cluster(SmallConfig());
  SimulatedAmpcMisResult result = MpcSimulatedAmpcMis(cluster, g, 42);
  EXPECT_EQ(cluster.metrics().Get("shuffles"), result.rounds + 1);
  EXPECT_GT(result.rounds, 50);

  sim::Cluster rootset_cluster(SmallConfig());
  MpcRootsetMis(rootset_cluster, g, 42);
  EXPECT_GT(result.rounds,
            4 * rootset_cluster.metrics().Get("shuffles"));
}

// Pins the simulation's charges on a hub-heavy web R-MAT: the
// DirectGraph shuffle charges each directed row to its shard owner, and
// every lockstep query round ships the rows fetched at its depth. The
// values were recorded at the parent of the flat rank-keyed staging.
TEST(SimulatedAmpcMisTest, ChargedCostsMatchParent) {
  graph::RmatOptions web;
  web.a = 0.65;
  web.b = web.c = (1.0 - web.a) / 3.0;
  const Graph g = graph::BuildGraph(graph::GenerateRmat(12, 40000, 5, web));
  sim::Cluster cluster(SmallConfig());
  const SimulatedAmpcMisResult result = MpcSimulatedAmpcMis(cluster, g, 42);
  EXPECT_EQ(result.in_mis,
            seq::GreedyMis(g, core::AllVertexRanks(g.num_nodes(), 42)));
  const Metrics& m = cluster.metrics();
  // rounds, shuffles, shuffle_bytes, shuffle_hot_machine_bytes.
  EXPECT_EQ((std::vector<int64_t>{m.Get("rounds"), m.Get("shuffles"),
                                  m.Get("shuffle_bytes"),
                                  m.Get("shuffle_hot_machine_bytes")}),
            (std::vector<int64_t>{135, 135, 801080, 300668}));
  EXPECT_EQ(result.rounds, 134);
  EXPECT_EQ(result.total_queries, 17750);
  EXPECT_DOUBLE_EQ(cluster.SimSeconds(), 9.45);
}

TEST(SimulatedAmpcMisTest, IsolatedAndTinyGraphs) {
  graph::EdgeList list;
  list.num_nodes = 3;
  Graph g = graph::BuildGraph(list);
  sim::Cluster cluster(SmallConfig());
  SimulatedAmpcMisResult result = MpcSimulatedAmpcMis(cluster, g, 1);
  // No edges: everyone is in the MIS after zero lookups.
  EXPECT_EQ(result.in_mis, (std::vector<uint8_t>{1, 1, 1}));
  EXPECT_EQ(result.rounds, 0);
  EXPECT_EQ(result.total_queries, 0);
}

TEST(SimulatedAmpcMisTest, SingleEdgeTakesOneRound) {
  graph::EdgeList list;
  list.num_nodes = 2;
  list.edges = {{0, 1}};
  Graph g = graph::BuildGraph(list);
  sim::Cluster cluster(SmallConfig());
  SimulatedAmpcMisResult result = MpcSimulatedAmpcMis(cluster, g, 9);
  // The later-ranked endpoint queries the earlier one; one lookup round.
  EXPECT_EQ(result.rounds, 1);
  EXPECT_EQ(result.total_queries, 1);
  EXPECT_EQ(result.in_mis[0] + result.in_mis[1], 1);
}

}  // namespace
}  // namespace ampc::baselines
