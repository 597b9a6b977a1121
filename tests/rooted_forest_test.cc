#include "trees/rooted_forest.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "common/random.h"
#include "graph/generators.h"
#include "seq/msf.h"

namespace ampc::trees {
namespace {

using graph::NodeId;
using graph::WeightedEdge;

std::vector<WeightedEdge> PathEdges(int64_t n) {
  std::vector<WeightedEdge> edges;
  for (int64_t i = 0; i + 1 < n; ++i) {
    edges.push_back(WeightedEdge{static_cast<NodeId>(i),
                                 static_cast<NodeId>(i + 1),
                                 static_cast<double>(i), static_cast<graph::EdgeId>(i)});
  }
  return edges;
}

TEST(RootedForestTest, PathRootsAtZero) {
  RootedForest f = BuildRootedForest(5, PathEdges(5));
  EXPECT_TRUE(f.IsRoot(0));
  for (NodeId v = 1; v < 5; ++v) {
    EXPECT_EQ(f.parent[v], v - 1);
    EXPECT_EQ(f.depth[v], v);
    EXPECT_EQ(f.root[v], 0u);
    EXPECT_EQ(f.parent_weight[v], static_cast<double>(v - 1));
    EXPECT_EQ(f.parent_edge_id[v], v - 1);
  }
}

TEST(RootedForestTest, MultipleTrees) {
  std::vector<WeightedEdge> edges = {{0, 1, 1.0, 0}, {3, 4, 2.0, 1}};
  RootedForest f = BuildRootedForest(5, edges);
  EXPECT_TRUE(f.IsRoot(0));
  EXPECT_TRUE(f.IsRoot(2));
  EXPECT_TRUE(f.IsRoot(3));
  EXPECT_TRUE(f.SameTree(0, 1));
  EXPECT_TRUE(f.SameTree(3, 4));
  EXPECT_FALSE(f.SameTree(0, 3));
  EXPECT_FALSE(f.SameTree(2, 4));
}

TEST(RootedForestTest, ChildrenCsrIsConsistent) {
  std::vector<WeightedEdge> edges = {
      {0, 1, 1, 0}, {0, 2, 1, 1}, {1, 3, 1, 2}};
  RootedForest f = BuildRootedForest(4, edges);
  // Children of 0 are {1, 2}; of 1 are {3}.
  std::vector<NodeId> c0(f.children.begin() + f.child_offsets[0],
                         f.children.begin() + f.child_offsets[1]);
  std::sort(c0.begin(), c0.end());
  EXPECT_EQ(c0, (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(f.child_offsets[2] - f.child_offsets[1], 1);
  EXPECT_EQ(f.children[f.child_offsets[1]], 3u);
}

TEST(RootedForestTest, BfsOrderParentsFirst) {
  graph::EdgeList tree = graph::GenerateRandomTree(300, 9);
  std::vector<WeightedEdge> edges;
  for (size_t i = 0; i < tree.edges.size(); ++i) {
    edges.push_back(WeightedEdge{tree.edges[i].u, tree.edges[i].v, 1.0,
                                 static_cast<graph::EdgeId>(i)});
  }
  RootedForest f = BuildRootedForest(300, edges);
  std::vector<int64_t> position(300, -1);
  for (size_t i = 0; i < f.bfs_order.size(); ++i) {
    position[f.bfs_order[i]] = static_cast<int64_t>(i);
  }
  for (NodeId v = 0; v < 300; ++v) {
    ASSERT_NE(position[v], -1);
    if (!f.IsRoot(v)) {
      EXPECT_LT(position[f.parent[v]], position[v]);
    }
  }
}

TEST(RootedForestTest, DepthsAreConsistent) {
  graph::EdgeList tree = graph::GenerateRandomTree(500, 4);
  std::vector<WeightedEdge> edges;
  for (size_t i = 0; i < tree.edges.size(); ++i) {
    edges.push_back(WeightedEdge{tree.edges[i].u, tree.edges[i].v, 1.0,
                                 static_cast<graph::EdgeId>(i)});
  }
  RootedForest f = BuildRootedForest(500, edges);
  for (NodeId v = 0; v < 500; ++v) {
    if (f.IsRoot(v)) {
      EXPECT_EQ(f.depth[v], 0);
    } else {
      EXPECT_EQ(f.depth[v], f.depth[f.parent[v]] + 1);
    }
  }
}

// The builder as it was when it kept one std::deque per tree: the
// reference for the exact BFS order, which path_max's sweeps consume.
RootedForest DequeReference(int64_t num_nodes,
                            const std::vector<WeightedEdge>& edges) {
  RootedForest f;
  f.num_nodes = num_nodes;
  f.parent.resize(num_nodes);
  f.parent_weight.assign(num_nodes, 0);
  f.parent_edge_id.assign(num_nodes, graph::kInvalidEdge);
  f.depth.assign(num_nodes, 0);
  f.root.resize(num_nodes);
  std::vector<int64_t> offsets(num_nodes + 1, 0);
  for (const WeightedEdge& e : edges) {
    ++offsets[e.u + 1];
    ++offsets[e.v + 1];
  }
  for (int64_t v = 0; v < num_nodes; ++v) offsets[v + 1] += offsets[v];
  std::vector<WeightedEdge> arcs(offsets.back());
  std::vector<int64_t> cursor = offsets;
  for (const WeightedEdge& e : edges) {
    arcs[cursor[e.u]++] = WeightedEdge{e.u, e.v, e.w, e.id};
    arcs[cursor[e.v]++] = WeightedEdge{e.v, e.u, e.w, e.id};
  }
  std::vector<uint8_t> visited(num_nodes, 0);
  for (int64_t s = 0; s < num_nodes; ++s) {
    if (visited[s]) continue;
    const NodeId root = static_cast<NodeId>(s);
    visited[s] = 1;
    f.parent[s] = root;
    f.root[s] = root;
    std::deque<NodeId> queue{root};
    while (!queue.empty()) {
      const NodeId v = queue.front();
      queue.pop_front();
      f.bfs_order.push_back(v);
      for (int64_t i = offsets[v]; i < offsets[v + 1]; ++i) {
        const WeightedEdge& arc = arcs[i];
        if (visited[arc.v]) continue;
        visited[arc.v] = 1;
        f.parent[arc.v] = v;
        f.parent_weight[arc.v] = arc.w;
        f.parent_edge_id[arc.v] = arc.id;
        f.depth[arc.v] = f.depth[v] + 1;
        f.root[arc.v] = root;
        queue.push_back(arc.v);
      }
    }
  }
  f.child_offsets.assign(num_nodes + 1, 0);
  for (int64_t v = 0; v < num_nodes; ++v) {
    if (!f.IsRoot(static_cast<NodeId>(v))) ++f.child_offsets[f.parent[v] + 1];
  }
  for (int64_t v = 0; v < num_nodes; ++v) {
    f.child_offsets[v + 1] += f.child_offsets[v];
  }
  f.children.resize(f.child_offsets.back());
  std::vector<int64_t> child_cursor = f.child_offsets;
  for (int64_t v = 0; v < num_nodes; ++v) {
    if (!f.IsRoot(static_cast<NodeId>(v))) {
      f.children[child_cursor[f.parent[v]]++] = static_cast<NodeId>(v);
    }
  }
  return f;
}

TEST(RootedForestTest, MatchesDequeReference) {
  // An R-MAT MSF forest with many isolated vertices, a path, a star
  // whose center is not vertex 0, and an edgeless graph.
  const graph::EdgeList rmat = graph::GenerateRmat(12, 3000, 5);
  const graph::WeightedEdgeList weighted = graph::MakeRandomWeighted(rmat, 5);
  std::vector<WeightedEdge> msf;
  for (const graph::EdgeId id : seq::KruskalMsf(weighted)) {
    msf.push_back(weighted.edges[id]);
  }
  std::vector<WeightedEdge> star;
  for (const graph::Edge& e : graph::GenerateStar(200).edges) {
    star.push_back(WeightedEdge{(e.u + 57) % 200, (e.v + 57) % 200, 1.0,
                                static_cast<graph::EdgeId>(star.size())});
  }
  const struct {
    const char* name;
    int64_t num_nodes;
    std::vector<WeightedEdge> edges;
  } cases[] = {{"rmat msf", weighted.num_nodes, msf},
               {"path", 300, PathEdges(300)},
               {"star", 200, star},
               {"edgeless", 40, {}}};
  Rng rng(11);
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    std::vector<WeightedEdge> edges = c.edges;
    std::shuffle(edges.begin(), edges.end(), rng);
    const RootedForest want = DequeReference(c.num_nodes, edges);
    const RootedForest got = BuildRootedForest(c.num_nodes, edges);
    EXPECT_EQ(got.num_nodes, want.num_nodes);
    EXPECT_EQ(got.parent, want.parent);
    EXPECT_EQ(got.parent_weight, want.parent_weight);
    EXPECT_EQ(got.parent_edge_id, want.parent_edge_id);
    EXPECT_EQ(got.depth, want.depth);
    EXPECT_EQ(got.root, want.root);
    EXPECT_EQ(got.bfs_order, want.bfs_order);
    EXPECT_EQ(got.children, want.children);
    EXPECT_EQ(got.child_offsets, want.child_offsets);
  }
}

TEST(RootedForestDeathTest, CycleIsRejected) {
  std::vector<WeightedEdge> edges = {
      {0, 1, 1, 0}, {1, 2, 1, 1}, {2, 0, 1, 2}};
  EXPECT_DEATH(BuildRootedForest(3, edges), "cycle");
}

}  // namespace
}  // namespace ampc::trees
