#include "core/kkt.h"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <unordered_set>
#include <utility>

#include "graph/generators.h"
#include "seq/msf.h"

namespace ampc::core {
namespace {

using graph::EdgeId;
using graph::WeightedEdgeList;

sim::ClusterConfig SmallConfig() {
  sim::ClusterConfig config;
  config.num_machines = 4;
  config.in_memory_threshold_arcs = 64;
  return config;
}

WeightedEdgeList RandomWeighted(int64_t n, int64_t m, uint64_t seed) {
  return graph::MakeRandomWeighted(graph::GenerateErdosRenyi(n, m, seed),
                                   seed ^ 0xf00d);
}

TEST(FindLightEdgesTest, ForestEdgesAreAlwaysLight) {
  WeightedEdgeList list = RandomWeighted(120, 400, 1);
  std::vector<EdgeId> forest = seq::KruskalMsf(list);
  sim::Cluster cluster(SmallConfig());
  std::vector<uint8_t> light = FindLightEdges(cluster, list, forest);
  std::unordered_set<EdgeId> in_forest(forest.begin(), forest.end());
  for (size_t i = 0; i < list.edges.size(); ++i) {
    if (in_forest.contains(list.edges[i].id)) {
      EXPECT_TRUE(light[i]) << "forest edge " << i << " classified heavy";
    }
  }
}

TEST(FindLightEdgesTest, CrossTreeEdgesAreLight) {
  // Forest: only the two path edges; the bridge between components is
  // light by the w_F = infinity rule.
  WeightedEdgeList list;
  list.num_nodes = 4;
  list.edges = {{0, 1, 1.0, 0}, {2, 3, 1.0, 1}, {1, 2, 99.0, 2}};
  sim::Cluster cluster(SmallConfig());
  std::vector<uint8_t> light = FindLightEdges(cluster, list, {0, 1});
  EXPECT_TRUE(light[2]);
}

TEST(FindLightEdgesTest, HeavyCycleEdgeClassifiedHeavy) {
  // Triangle: forest holds the two light edges; the heavy closing edge
  // must be F-heavy.
  WeightedEdgeList list;
  list.num_nodes = 3;
  list.edges = {{0, 1, 1.0, 0}, {1, 2, 2.0, 1}, {2, 0, 3.0, 2}};
  sim::Cluster cluster(SmallConfig());
  std::vector<uint8_t> light = FindLightEdges(cluster, list, {0, 1});
  EXPECT_TRUE(light[0]);
  EXPECT_TRUE(light[1]);
  EXPECT_FALSE(light[2]);
}

TEST(FindLightEdgesTest, MatchesBruteForceOnRandomGraphs) {
  for (uint64_t seed : {3u, 4u, 5u}) {
    WeightedEdgeList list = RandomWeighted(80, 240, seed);
    // Random forest: MSF of a random half of the edges.
    WeightedEdgeList half;
    half.num_nodes = list.num_nodes;
    for (size_t i = 0; i < list.edges.size(); i += 2) {
      half.edges.push_back(list.edges[i]);
    }
    std::vector<EdgeId> forest = seq::KruskalMsf(half);
    sim::Cluster cluster(SmallConfig());
    std::vector<uint8_t> light = FindLightEdges(cluster, list, forest);

    // Brute force: Proposition 3.8 condition via per-query BFS max-edge.
    std::unordered_set<EdgeId> fset(forest.begin(), forest.end());
    std::vector<graph::WeightedEdge> fedges;
    for (const auto& e : list.edges) {
      if (fset.contains(e.id)) fedges.push_back(e);
    }
    // Path max by DFS for every pair needed.
    auto path_max = [&](graph::NodeId s, graph::NodeId t)
        -> std::optional<std::pair<double, EdgeId>> {
      std::vector<std::optional<std::pair<double, EdgeId>>> best(
          list.num_nodes);
      std::vector<uint8_t> seen(list.num_nodes, 0);
      std::vector<graph::NodeId> stack{s};
      seen[s] = 1;
      while (!stack.empty()) {
        graph::NodeId v = stack.back();
        stack.pop_back();
        for (const auto& e : fedges) {
          graph::NodeId other = graph::kInvalidNode;
          if (e.u == v) other = e.v;
          if (e.v == v) other = e.u;
          if (other == graph::kInvalidNode || seen[other]) continue;
          seen[other] = 1;
          std::pair<double, EdgeId> cand = std::make_pair(e.w, e.id);
          if (best[v].has_value() && *best[v] > cand) cand = *best[v];
          best[other] = cand;
          stack.push_back(other);
        }
      }
      if (!seen[t]) return std::nullopt;
      return best[t];
    };
    for (size_t i = 0; i < list.edges.size(); ++i) {
      const auto& e = list.edges[i];
      if (e.u == e.v) continue;
      auto max_on_path = path_max(e.u, e.v);
      bool expect_light;
      if (!max_on_path.has_value()) {
        expect_light = true;
      } else {
        expect_light = std::make_pair(e.w, e.id) <= *max_on_path;
      }
      EXPECT_EQ(static_cast<bool>(light[i]), expect_light)
          << "edge " << i << " seed " << seed;
    }
  }
}

class KktTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KktTest, EndToEndMatchesKruskal) {
  const uint64_t seed = GetParam();
  WeightedEdgeList list = RandomWeighted(250, 1500, seed);
  sim::Cluster cluster(SmallConfig());
  KktOptions options;
  options.msf.seed = seed;
  KktResult r = AmpcMsfKkt(cluster, list, options);
  EXPECT_EQ(r.msf_edges, seq::KruskalMsf(list));
  EXPECT_GT(r.sampled_edges, 0);
  EXPECT_GE(r.light_edges,
            static_cast<int64_t>(r.msf_edges.size()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, KktTest, ::testing::Values(1, 2, 3, 4, 5));

TEST(KktTest, TernarizedSampleKeepsEveryMsfEdge) {
  // The sample keeps its parent's ids, so they are not list positions:
  // the dummy cycle edges must be numbered past the largest of them, or
  // stripping the dummies strips real MSF edges too.
  WeightedEdgeList list =
      graph::MakeRandomWeighted(graph::GenerateRmat(10, 6000, 3), 3);
  sim::Cluster cluster(SmallConfig());
  KktOptions options;
  options.msf.ternarize = true;
  KktResult r = AmpcMsfKkt(cluster, list, options);
  EXPECT_EQ(r.msf_edges, seq::KruskalMsf(list));
}

TEST(KktTest, LightEdgeCountNearTheoreticalBound) {
  // Lemma 3.9: E[#light] = O(n/p). With p = 1/log2(n) expect about
  // n*log2(n) light edges; allow a wide constant.
  const int64_t n = 500;
  WeightedEdgeList list = RandomWeighted(n, 8000, 99);
  sim::Cluster cluster(SmallConfig());
  KktOptions options;
  options.msf.seed = 99;
  KktResult r = AmpcMsfKkt(cluster, list, options);
  const double bound = 8.0 * n * std::log2(static_cast<double>(n));
  EXPECT_LT(static_cast<double>(r.light_edges), bound);
  EXPECT_EQ(r.msf_edges, seq::KruskalMsf(list));
}

}  // namespace
}  // namespace ampc::core
