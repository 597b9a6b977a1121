// Tests for the Section 5.7 random-walk extension: the exact sequential
// oracle, the MPC power-iteration baseline, the AMPC Monte-Carlo
// estimator, and the walk-corpus sampler.
#include "core/pagerank.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "baselines/mpc_pagerank.h"
#include "graph/generators.h"
#include "seq/pagerank.h"

namespace ampc {
namespace {

using graph::Graph;
using graph::NodeId;

sim::ClusterConfig SmallConfig() {
  sim::ClusterConfig config;
  config.num_machines = 4;
  config.threads_per_machine = 2;
  return config;
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

// ---------------------------------------------------------------------------
// Exact oracle.
// ---------------------------------------------------------------------------

TEST(PageRankExactTest, SumsToOneAndConverges) {
  Graph g = graph::BuildGraph(graph::GenerateRmat(9, 2500, 3));
  seq::PageRankResult result = seq::PageRankExact(g);
  EXPECT_NEAR(Sum(result.rank), 1.0, 1e-9);
  EXPECT_LT(result.iterations, 1000);
}

TEST(PageRankExactTest, UniformOnVertexTransitiveGraphs) {
  for (const auto& list :
       {graph::GenerateCycle(12), graph::GenerateComplete(9)}) {
    Graph g = graph::BuildGraph(list);
    seq::PageRankResult result = seq::PageRankExact(g);
    for (const double r : result.rank) {
      EXPECT_NEAR(r, 1.0 / g.num_nodes(), 1e-9);
    }
  }
}

TEST(PageRankExactTest, StarHubDominates) {
  // Star on 1 + k leaves: hub rank has the closed form
  // (1 - d + d) * ... — verify the fixpoint equations directly instead:
  // rank(hub) = (1-d)/n + d * k * rank(leaf),
  // rank(leaf) = (1-d)/n + d * rank(hub) / k.
  const int64_t k = 9;
  Graph g = graph::BuildGraph(graph::GenerateStar(k + 1));
  seq::PageRankResult result = seq::PageRankExact(g);
  const double d = 0.85;
  const double n = static_cast<double>(k + 1);
  const double hub = result.rank[0];
  const double leaf = result.rank[1];
  EXPECT_NEAR(hub, (1 - d) / n + d * k * leaf, 1e-9);
  EXPECT_NEAR(leaf, (1 - d) / n + d * hub / k, 1e-9);
  for (int64_t v = 1; v <= k; ++v) EXPECT_NEAR(result.rank[v], leaf, 1e-12);
}

TEST(PageRankExactTest, IsolatedVerticesKeepTeleportMass) {
  graph::EdgeList list;
  list.num_nodes = 4;
  list.edges = {{0, 1}};  // 2 and 3 isolated
  Graph g = graph::BuildGraph(list);
  seq::PageRankResult result = seq::PageRankExact(g);
  EXPECT_NEAR(Sum(result.rank), 1.0, 1e-9);
  // Isolated vertices receive only the uniform terms and are equal.
  EXPECT_NEAR(result.rank[2], result.rank[3], 1e-12);
  EXPECT_GT(result.rank[0], result.rank[2]);
}

TEST(PageRankExactTest, L1DistanceHelper) {
  EXPECT_EQ(seq::L1Distance({0.5, 0.5}, {0.5, 0.5}), 0.0);
  EXPECT_NEAR(seq::L1Distance({1.0, 0.0}, {0.0, 1.0}), 2.0, 1e-12);
}

// ---------------------------------------------------------------------------
// MPC power iteration.
// ---------------------------------------------------------------------------

TEST(MpcPageRankTest, MatchesExactOracle) {
  Graph g = graph::BuildGraph(graph::GenerateErdosRenyi(150, 500, 8));
  sim::Cluster cluster(SmallConfig());
  baselines::MpcPageRankResult mpc = baselines::MpcPageRank(cluster, g);
  seq::PageRankResult exact = seq::PageRankExact(g);
  EXPECT_LT(seq::L1Distance(mpc.rank, exact.rank), 1e-8);
  EXPECT_EQ(mpc.iterations, exact.iterations);
}

TEST(MpcPageRankTest, OneShufflePerIteration) {
  Graph g = graph::BuildGraph(graph::GenerateErdosRenyi(100, 350, 4));
  sim::Cluster cluster(SmallConfig());
  baselines::MpcPageRankResult mpc = baselines::MpcPageRank(cluster, g);
  EXPECT_EQ(cluster.metrics().Get("shuffles"), mpc.iterations);
}

// ---------------------------------------------------------------------------
// AMPC Monte-Carlo estimator.
// ---------------------------------------------------------------------------

TEST(AmpcPageRankTest, EstimateConvergesToExact) {
  Graph g = graph::BuildGraph(graph::GenerateErdosRenyi(64, 200, 12));
  seq::PageRankResult exact = seq::PageRankExact(g);

  sim::Cluster cluster(SmallConfig());
  core::PageRankMcOptions options;
  options.walks_per_node = 4000;
  core::PageRankMcResult mc = core::AmpcMonteCarloPageRank(cluster, g,
                                                           options);
  EXPECT_NEAR(Sum(mc.rank), 1.0, 1e-9);
  EXPECT_LT(seq::L1Distance(mc.rank, exact.rank), 0.05);
  // Expected steps: n * R * d / (1 - d) transitions.
  const double expected_steps = 64.0 * 4000 * 0.85 / 0.15;
  EXPECT_NEAR(static_cast<double>(mc.total_steps), expected_steps,
              0.1 * expected_steps);
}

TEST(AmpcPageRankTest, MoreWalksReduceError) {
  Graph g = graph::BuildGraph(graph::GenerateRmat(7, 500, 5));
  seq::PageRankResult exact = seq::PageRankExact(g);
  double previous_error = 1e9;
  for (const int walks : {20, 2000}) {
    sim::Cluster cluster(SmallConfig());
    core::PageRankMcOptions options;
    options.walks_per_node = walks;
    core::PageRankMcResult mc =
        core::AmpcMonteCarloPageRank(cluster, g, options);
    const double error = seq::L1Distance(mc.rank, exact.rank);
    EXPECT_LT(error, previous_error);
    previous_error = error;
  }
}

TEST(AmpcPageRankTest, UsesOneShuffleAndIsSchedulingDeterministic) {
  Graph g = graph::BuildGraph(graph::GenerateErdosRenyi(80, 250, 21));
  core::PageRankMcOptions options;
  options.walks_per_node = 50;

  sim::Cluster a(SmallConfig());
  core::PageRankMcResult first = core::AmpcMonteCarloPageRank(a, g, options);
  EXPECT_EQ(a.metrics().Get("shuffles"), 1);

  // A different machine layout must not change the estimate: walk
  // randomness is keyed by (seed, vertex, walk), not by placement.
  sim::ClusterConfig other = SmallConfig();
  other.num_machines = 7;
  other.threads_per_machine = 3;
  sim::Cluster b(other);
  core::PageRankMcResult second = core::AmpcMonteCarloPageRank(b, g, options);
  EXPECT_EQ(first.rank, second.rank);
  EXPECT_EQ(first.total_steps, second.total_steps);
}

// Pins the charged costs of a dense AmpcMonteCarloPageRank run, whose
// walk rounds are multi-step pull rounds: every step opens a fresh
// exchange, so a worker's dedup must forget exactly the previous step's
// keys. The values were recorded with the earlier hash-table dedup and
// per-record write counters.
TEST(AmpcPageRankTest, ChargedCostsMatchParent) {
  const Graph g =
      graph::BuildGraph(graph::GenerateErdosRenyi(4096, 32768, 11));
  sim::ClusterConfig config;
  config.num_machines = 4;
  config.threads_per_machine = 4;
  config.frontier.mode = FrontierMode::kDense;
  sim::Cluster cluster(config);
  core::AmpcMonteCarloPageRank(cluster, g);
  const Metrics& m = cluster.metrics();
  // kv_reads, kv_read_bytes, frontier_exchange_bytes,
  // frontier_broadcast_bytes, kv_writes, kv_write_bytes,
  // kv_hot_machine_read_bytes, kv_hot_machine_write_bytes, rounds.
  EXPECT_EQ((std::vector<int64_t>{m.Get("kv_reads"),
                                  m.Get("kv_read_bytes"),
                                  m.Get("frontier_exchange_bytes"),
                                  m.Get("frontier_broadcast_bytes"),
                                  m.Get("kv_writes"),
                                  m.Get("kv_write_bytes"),
                                  m.Get("kv_hot_machine_read_bytes"),
                                  m.Get("kv_hot_machine_write_bytes"),
                                  m.Get("rounds")}),
            (std::vector<int64_t>{371388, 23962148, 23962148, 34304, 4096,
                                  327040, 6272568, 85332, 3}));
  EXPECT_DOUBLE_EQ(cluster.SimSeconds(), 0.175808441);
}

TEST(AmpcPageRankTest, HandlesDanglingVertices) {
  graph::EdgeList list;
  list.num_nodes = 5;
  list.edges = {{0, 1}, {1, 2}};  // 3 and 4 isolated
  Graph g = graph::BuildGraph(list);
  seq::PageRankResult exact = seq::PageRankExact(g);
  sim::Cluster cluster(SmallConfig());
  core::PageRankMcOptions options;
  options.walks_per_node = 20000;
  core::PageRankMcResult mc =
      core::AmpcMonteCarloPageRank(cluster, g, options);
  EXPECT_LT(seq::L1Distance(mc.rank, exact.rank), 0.03);
}

// ---------------------------------------------------------------------------
// Personalized PageRank.
// ---------------------------------------------------------------------------

TEST(PersonalizedPageRankTest, ExactOracleConcentratesAroundSource) {
  Graph g = graph::BuildGraph(graph::GenerateErdosRenyi(60, 180, 31));
  const NodeId source = 5;
  seq::PageRankResult ppr = seq::PersonalizedPageRankExact(g, source);
  EXPECT_NEAR(Sum(ppr.rank), 1.0, 1e-9);
  // The source holds more mass than any global-PageRank vertex would.
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (v != source) {
      EXPECT_GT(ppr.rank[source], ppr.rank[v] * 0.999);
    }
  }
}

TEST(PersonalizedPageRankTest, McEstimateMatchesExact) {
  Graph g = graph::BuildGraph(graph::GenerateRmat(6, 300, 9));
  const NodeId source = 3;
  seq::PageRankResult exact = seq::PersonalizedPageRankExact(g, source);
  sim::Cluster cluster(SmallConfig());
  core::PageRankMcOptions options;
  options.walks_per_node = 3000;
  core::PageRankMcResult mc =
      core::AmpcPersonalizedPageRank(cluster, g, source, options);
  EXPECT_LT(seq::L1Distance(mc.rank, exact.rank), 0.05);
  EXPECT_EQ(cluster.metrics().Get("shuffles"), 1);
}

TEST(PersonalizedPageRankTest, DistinguishesNeighborhoods) {
  // Two triangles joined by one bridge edge: personalization from vertex
  // 0 keeps most mass on its own triangle.
  graph::EdgeList list;
  list.num_nodes = 6;
  list.edges = {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}, {2, 3}};
  Graph g = graph::BuildGraph(list);
  sim::Cluster cluster(SmallConfig());
  core::PageRankMcOptions options;
  options.walks_per_node = 2000;
  core::PageRankMcResult mc =
      core::AmpcPersonalizedPageRank(cluster, g, 0, options);
  const double own = mc.rank[0] + mc.rank[1] + mc.rank[2];
  const double other = mc.rank[3] + mc.rank[4] + mc.rank[5];
  EXPECT_GT(own, 2 * other);
}

TEST(PersonalizedPageRankTest, DanglingWalkReturnsToSource) {
  // Source connected to a pendant, plus isolated vertices: mass must
  // stay on {source, pendant} and sum to 1.
  graph::EdgeList list;
  list.num_nodes = 4;
  list.edges = {{0, 1}};
  Graph g = graph::BuildGraph(list);
  seq::PageRankResult exact = seq::PersonalizedPageRankExact(g, 0);
  sim::Cluster cluster(SmallConfig());
  core::PageRankMcOptions options;
  options.walks_per_node = 4000;
  core::PageRankMcResult mc =
      core::AmpcPersonalizedPageRank(cluster, g, 0, options);
  EXPECT_LT(seq::L1Distance(mc.rank, exact.rank), 0.02);
  EXPECT_NEAR(mc.rank[2] + mc.rank[3], 0.0, 1e-12);
}

// ---------------------------------------------------------------------------
// Walk corpus sampler.
// ---------------------------------------------------------------------------

TEST(SampleWalksTest, WalksAreValidPaths) {
  Graph g = graph::BuildGraph(graph::GenerateErdosRenyi(60, 180, 2));
  sim::Cluster cluster(SmallConfig());
  core::WalkOptions options;
  options.length = 6;
  options.walks_per_node = 3;
  auto walks = core::AmpcSampleWalks(cluster, g, options);
  ASSERT_EQ(walks.size(), 60u * 3u);
  for (size_t i = 0; i < walks.size(); ++i) {
    const auto& walk = walks[i];
    ASSERT_GE(walk.size(), 1u);
    EXPECT_LE(walk.size(), 7u);
    EXPECT_EQ(walk[0], static_cast<NodeId>(i / 3));
    for (size_t s = 0; s + 1 < walk.size(); ++s) {
      const auto nbrs = g.neighbors(walk[s]);
      EXPECT_TRUE(std::find(nbrs.begin(), nbrs.end(), walk[s + 1]) !=
                  nbrs.end())
          << "walk step " << s << " is not an edge";
    }
  }
}

TEST(SampleWalksTest, IsolatedStartStaysPut) {
  graph::EdgeList list;
  list.num_nodes = 3;
  list.edges = {{0, 1}};
  Graph g = graph::BuildGraph(list);
  sim::Cluster cluster(SmallConfig());
  core::WalkOptions options;
  options.length = 5;
  auto walks = core::AmpcSampleWalks(cluster, g, options);
  EXPECT_EQ(walks[2], std::vector<NodeId>{2});
  // Connected vertices bounce along the single edge for the full length.
  EXPECT_EQ(walks[0].size(), 6u);
}

TEST(SampleWalksTest, SeedChangesCorpus) {
  Graph g = graph::BuildGraph(graph::GenerateComplete(10));
  core::WalkOptions options;
  options.length = 4;
  sim::Cluster a(SmallConfig());
  auto first = core::AmpcSampleWalks(a, g, options);
  options.seed = 43;
  sim::Cluster b(SmallConfig());
  auto second = core::AmpcSampleWalks(b, g, options);
  EXPECT_NE(first, second);
}

}  // namespace
}  // namespace ampc
