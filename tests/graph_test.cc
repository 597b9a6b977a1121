#include "graph/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

namespace ampc::graph {
namespace {

EdgeList Triangle() {
  EdgeList list;
  list.num_nodes = 3;
  list.edges = {{0, 1}, {1, 2}, {2, 0}};
  return list;
}

TEST(GraphTest, TriangleBasics) {
  Graph g = BuildGraph(Triangle());
  EXPECT_EQ(g.num_nodes(), 3);
  EXPECT_EQ(g.num_arcs(), 6);
  EXPECT_EQ(g.num_undirected_edges(), 3);
  EXPECT_EQ(g.max_degree(), 2);
  for (NodeId v = 0; v < 3; ++v) EXPECT_EQ(g.degree(v), 2);
}

TEST(GraphTest, AdjacencySortedByNeighborId) {
  EdgeList list;
  list.num_nodes = 5;
  list.edges = {{0, 4}, {0, 2}, {0, 1}, {0, 3}};
  Graph g = BuildGraph(list);
  auto nbrs = g.neighbors(0);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  EXPECT_EQ(nbrs.size(), 4u);
}

TEST(GraphTest, SelfLoopsRemovedByDefault) {
  EdgeList list;
  list.num_nodes = 2;
  list.edges = {{0, 0}, {0, 1}, {1, 1}};
  Graph g = BuildGraph(list);
  EXPECT_EQ(g.num_arcs(), 2);
  EXPECT_EQ(g.degree(0), 1);
}

TEST(GraphTest, ParallelEdgesDeduped) {
  EdgeList list;
  list.num_nodes = 2;
  list.edges = {{0, 1}, {1, 0}, {0, 1}};
  Graph g = BuildGraph(list);
  EXPECT_EQ(g.num_arcs(), 2);
  BuildOptions keep;
  keep.dedup = false;
  Graph multi = BuildGraph(list, keep);
  EXPECT_EQ(multi.num_arcs(), 6);
}

TEST(GraphTest, EmptyGraph) {
  EdgeList list;
  list.num_nodes = 4;
  Graph g = BuildGraph(list);
  EXPECT_EQ(g.num_nodes(), 4);
  EXPECT_EQ(g.num_arcs(), 0);
  EXPECT_EQ(g.max_degree(), 0);
}

TEST(GraphTest, AdjacencyBytesCountsRecordSize) {
  Graph g = BuildGraph(Triangle());
  EXPECT_EQ(g.AdjacencyBytes(0),
            static_cast<int64_t>(sizeof(NodeId)) * 3);  // key + 2 neighbors
}

TEST(WeightedGraphTest, CarriesWeightsAndIds) {
  WeightedEdgeList list;
  list.num_nodes = 3;
  list.edges = {{0, 1, 5.0, 0}, {1, 2, 3.0, 1}, {2, 0, 4.0, 2}};
  WeightedGraph g = BuildWeightedGraph(list);
  EXPECT_EQ(g.num_arcs(), 6);
  auto nbrs = g.neighbors(1);
  auto ws = g.weights(1);
  auto ids = g.edge_ids(1);
  ASSERT_EQ(nbrs.size(), 2u);
  for (size_t i = 0; i < nbrs.size(); ++i) {
    if (nbrs[i] == 0) {
      EXPECT_EQ(ws[i], 5.0);
      EXPECT_EQ(ids[i], 0u);
    } else {
      EXPECT_EQ(nbrs[i], 2u);
      EXPECT_EQ(ws[i], 3.0);
      EXPECT_EQ(ids[i], 1u);
    }
  }
}

TEST(WeightedGraphTest, DedupKeepsLightestParallelEdge) {
  WeightedEdgeList list;
  list.num_nodes = 2;
  list.edges = {{0, 1, 9.0, 0}, {0, 1, 2.0, 1}, {1, 0, 5.0, 2}};
  WeightedGraph g = BuildWeightedGraph(list);
  EXPECT_EQ(g.num_arcs(), 2);
  EXPECT_EQ(g.weights(0)[0], 2.0);
  EXPECT_EQ(g.edge_ids(0)[0], 1u);
}

TEST(WeightedGraphTest, AdjacencyInWeightThenIdOrder) {
  WeightedEdgeList list;
  list.num_nodes = 6;
  list.edges = {
      {0, 1, 9.0, 0},  // neighbors 1 and 2: id order is not weight order
      {0, 2, 2.0, 1},
      {0, 3, 5.0, 5},  // equal weights, ids against neighbor order
      {0, 4, 5.0, 3},
      {0, 5, 7.0, 2},  // parallel pair: the lighter copy has the larger
      {5, 0, 4.0, 6},  // id and comes second
  };
  WeightedGraph g = BuildWeightedGraph(list);
  using Arc = std::tuple<NodeId, Weight, EdgeId>;  // (neighbor, weight, id)
  std::vector<Arc> got;
  for (size_t i = 0; i < g.neighbors(0).size(); ++i) {
    got.emplace_back(g.neighbors(0)[i], g.weights(0)[i], g.edge_ids(0)[i]);
  }
  const std::vector<Arc> want = {
      {2, 2.0, 1}, {5, 4.0, 6}, {4, 5.0, 3}, {3, 5.0, 5}, {1, 9.0, 0}};
  EXPECT_EQ(got, want);
}

TEST(WeightedGraphTest, MinWeight) {
  WeightedEdgeList list;
  list.num_nodes = 3;
  list.edges = {{0, 1, 5.0, 0}, {1, 2, -3.0, 1}};
  WeightedGraph g = BuildWeightedGraph(list);
  EXPECT_EQ(g.MinWeight(), -3.0);
}

TEST(WeightingTest, DegreeWeights) {
  EdgeList list;
  list.num_nodes = 4;
  list.edges = {{0, 1}, {0, 2}, {0, 3}};  // star: deg(0)=3, leaves 1
  Graph g = BuildGraph(list);
  WeightedEdgeList w = MakeDegreeWeighted(list, g);
  ASSERT_EQ(w.edges.size(), 3u);
  for (const WeightedEdge& e : w.edges) EXPECT_EQ(e.w, 4.0);
  EXPECT_EQ(w.edges[2].id, 2u);
}

TEST(WeightingTest, RandomWeightsDeterministicAndSymmetric) {
  EdgeList list;
  list.num_nodes = 3;
  list.edges = {{0, 1}, {1, 2}};
  WeightedEdgeList a = MakeRandomWeighted(list, 7);
  WeightedEdgeList b = MakeRandomWeighted(list, 7);
  WeightedEdgeList c = MakeRandomWeighted(list, 8);
  EXPECT_EQ(a.edges[0].w, b.edges[0].w);
  EXPECT_NE(a.edges[0].w, c.edges[0].w);
  for (const WeightedEdge& e : a.edges) {
    EXPECT_GE(e.w, 0.0);
    EXPECT_LT(e.w, 1.0);
  }
}

TEST(WeightingTest, UnitAndStripRoundTrip) {
  EdgeList list;
  list.num_nodes = 3;
  list.edges = {{0, 1}, {1, 2}};
  WeightedEdgeList w = MakeUnitWeighted(list);
  for (const WeightedEdge& e : w.edges) EXPECT_EQ(e.w, 1.0);
  EdgeList back = StripWeights(w);
  EXPECT_EQ(back.num_nodes, list.num_nodes);
  ASSERT_EQ(back.edges.size(), list.edges.size());
  for (size_t i = 0; i < back.edges.size(); ++i) {
    EXPECT_EQ(back.edges[i], list.edges[i]);
  }
}

}  // namespace
}  // namespace ampc::graph
