#include "graph/contraction.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>

#include "common/random.h"
#include "graph/generators.h"
#include "graph/stats.h"

namespace ampc::graph {
namespace {

WeightedEdgeList PathFour() {
  WeightedEdgeList list;
  list.num_nodes = 4;
  list.edges = {{0, 1, 1.0, 0}, {1, 2, 2.0, 1}, {2, 3, 3.0, 2}};
  return list;
}

TEST(ContractionTest, IdentityMappingDropsNothing) {
  WeightedEdgeList list = PathFour();
  std::vector<NodeId> cluster_of = {0, 1, 2, 3};
  ContractedGraph c = ContractEdgeList(list, cluster_of);
  EXPECT_EQ(c.list.num_nodes, 4);
  EXPECT_EQ(c.list.edges.size(), 3u);
}

TEST(ContractionTest, MergingEndpointsRemovesSelfLoops) {
  WeightedEdgeList list = PathFour();
  std::vector<NodeId> cluster_of = {0, 0, 2, 2};  // {0,1} and {2,3}
  ContractedGraph c = ContractEdgeList(list, cluster_of);
  EXPECT_EQ(c.list.num_nodes, 2);
  ASSERT_EQ(c.list.edges.size(), 1u);
  EXPECT_EQ(c.list.edges[0].id, 1u);  // the 1-2 edge survives
  EXPECT_EQ(c.list.edges[0].w, 2.0);
}

TEST(ContractionTest, IsolatedClustersRemoved) {
  WeightedEdgeList list;
  list.num_nodes = 4;
  list.edges = {{0, 1, 1.0, 0}};  // 2 and 3 isolated
  std::vector<NodeId> cluster_of = {0, 1, 2, 3};
  ContractedGraph c = ContractEdgeList(list, cluster_of);
  EXPECT_EQ(c.list.num_nodes, 2);
  EXPECT_EQ(c.compact_of_vertex[2], kInvalidNode);
  EXPECT_EQ(c.compact_of_vertex[3], kInvalidNode);
  EXPECT_NE(c.compact_of_vertex[0], kInvalidNode);
}

TEST(ContractionTest, RepresentativeTracksClusterRoot) {
  WeightedEdgeList list = PathFour();
  std::vector<NodeId> cluster_of = {3, 3, 2, 3};  // cluster roots 3 and 2
  ContractedGraph c = ContractEdgeList(list, cluster_of);
  EXPECT_EQ(c.list.num_nodes, 2);
  // Every compacted id maps back to its root.
  for (int64_t v = 0; v < 4; ++v) {
    const NodeId compact = c.compact_of_vertex[v];
    ASSERT_NE(compact, kInvalidNode);
    EXPECT_EQ(c.representative[compact], cluster_of[v]);
  }
}

TEST(ContractionTest, ParallelEdgesKept) {
  WeightedEdgeList list;
  list.num_nodes = 4;
  list.edges = {{0, 2, 1.0, 0}, {1, 3, 2.0, 1}};
  std::vector<NodeId> cluster_of = {0, 0, 2, 2};
  ContractedGraph c = ContractEdgeList(list, cluster_of);
  EXPECT_EQ(c.list.num_nodes, 2);
  EXPECT_EQ(c.list.edges.size(), 2u);  // both cross edges survive
}

TEST(ContractionTest, EndpointsRelabeledConsistently) {
  WeightedEdgeList list = PathFour();
  std::vector<NodeId> mapping = {0, 0, 3, 3};
  ContractedGraph c = ContractEdgeList(list, mapping);
  ASSERT_EQ(c.list.edges.size(), 1u);
  const WeightedEdge& e = c.list.edges[0];
  EXPECT_NE(e.u, e.v);
  EXPECT_LT(e.u, 2u);
  EXPECT_LT(e.v, 2u);
}

TEST(ContractionTest, ClusterIdsFollowFirstAppearance) {
  WeightedEdgeList list;
  list.num_nodes = 4;
  list.edges = {{3, 2, 1.0, 0}, {0, 1, 2.0, 1}, {2, 0, 3.0, 2}};
  ContractedGraph c = ContractEdgeList(list, {0, 1, 2, 3});
  EXPECT_EQ(c.representative, (std::vector<NodeId>{3, 2, 0, 1}));
  EXPECT_EQ(c.list.edges, (std::vector<WeightedEdge>{
                              {0, 1, 1.0, 0}, {2, 3, 2.0, 1}, {1, 2, 3.0, 2}}));
  EXPECT_EQ(c.compact_of_vertex, (std::vector<NodeId>{2, 3, 1, 0}));
}

// Reference contraction: numbers clusters through a hash map, in order of
// first appearance, as ContractEdgeList must.
ContractedGraph HashMapContract(const WeightedEdgeList& list,
                                const std::vector<NodeId>& cluster_of) {
  ContractedGraph out;
  std::unordered_map<NodeId, NodeId> compact;
  auto compact_id = [&](NodeId root) {
    auto [it, fresh] =
        compact.emplace(root, static_cast<NodeId>(compact.size()));
    if (fresh) out.representative.push_back(root);
    return it->second;
  };
  for (const WeightedEdge& e : list.edges) {
    const NodeId ru = cluster_of[e.u];
    const NodeId rv = cluster_of[e.v];
    if (ru == rv) continue;
    out.list.edges.push_back(
        WeightedEdge{compact_id(ru), compact_id(rv), e.w, e.id});
  }
  out.list.num_nodes = static_cast<int64_t>(compact.size());
  out.compact_of_vertex.assign(list.num_nodes, kInvalidNode);
  for (int64_t v = 0; v < list.num_nodes; ++v) {
    auto it = compact.find(cluster_of[v]);
    if (it != compact.end()) out.compact_of_vertex[v] = it->second;
  }
  return out;
}

TEST(ContractionTest, MatchesHashMapReference) {
  const EdgeList raw = GenerateRmat(10, 6000, 3);
  const WeightedEdgeList list = MakeRandomWeighted(raw, 3);
  const int64_t n = list.num_nodes;

  std::vector<std::vector<NodeId>> maps;
  std::vector<NodeId> identity(n);
  for (int64_t v = 0; v < n; ++v) identity[v] = static_cast<NodeId>(v);
  maps.push_back(identity);
  // Each vertex joins one of `roots` random clusters; roots need not map
  // to themselves.
  for (const uint64_t roots : {2, 16, 300, 1000}) {
    Rng rng(roots);
    std::vector<NodeId> pool(roots);
    for (NodeId& r : pool) r = static_cast<NodeId>(rng.NextBelow(n));
    std::vector<NodeId> map(n);
    for (NodeId& r : map) r = pool[rng.NextBelow(roots)];
    maps.push_back(map);
  }
  // Components of a random half of the edges: a component with no other
  // edge leaving it becomes an isolated cluster.
  Rng rng(11);
  EdgeList half_edges;
  half_edges.num_nodes = n;
  for (const Edge& e : raw.edges) {
    if (rng.NextBelow(2) == 0) half_edges.edges.push_back(e);
  }
  maps.push_back(SequentialComponents(BuildGraph(half_edges)));
  // Whole components: every cluster is isolated and no edge survives.
  maps.push_back(SequentialComponents(BuildGraph(raw)));

  for (size_t i = 0; i < maps.size(); ++i) {
    SCOPED_TRACE(i);
    const ContractedGraph want = HashMapContract(list, maps[i]);
    const ContractedGraph got = ContractEdgeList(list, maps[i]);
    EXPECT_EQ(got.list.num_nodes, want.list.num_nodes);
    EXPECT_EQ(got.list.edges, want.list.edges);
    EXPECT_EQ(got.compact_of_vertex, want.compact_of_vertex);
    EXPECT_EQ(got.representative, want.representative);
  }
  // The half-edge map keeps some edges and isolates some clusters that
  // had edges; the whole-component map isolates every cluster.
  const ContractedGraph half = ContractEdgeList(list, maps[maps.size() - 2]);
  EXPECT_FALSE(half.list.edges.empty());
  EXPECT_TRUE(std::any_of(raw.edges.begin(), raw.edges.end(),
                          [&](const Edge& e) {
                            return e.u != e.v && half.compact_of_vertex[e.u] ==
                                                     kInvalidNode;
                          }));
  EXPECT_TRUE(ContractEdgeList(list, maps.back()).list.edges.empty());
}

TEST(ContractionTest, RootOutOfRangeDies) {
  EXPECT_DEATH(ContractEdgeList(PathFour(), {0, 1, 2, 4}), "root");
}

}  // namespace
}  // namespace ampc::graph
