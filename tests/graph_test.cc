#include "graph/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "common/parallel.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "graph/generators.h"

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

// A built CSR, flattened; weights as bit patterns so that equal means
// byte-identical.
struct Csr {
  std::vector<uint64_t> offsets;
  std::vector<NodeId> adjacency;
  std::vector<uint64_t> weight_bits;
  std::vector<EdgeId> edge_ids;

  bool operator==(const Csr&) const = default;
};

Csr Flatten(const Graph& g) {
  Csr csr;
  csr.offsets.push_back(0);
  for (int64_t v = 0; v < g.num_nodes(); ++v) {
    const auto nbrs = g.neighbors(static_cast<NodeId>(v));
    csr.adjacency.insert(csr.adjacency.end(), nbrs.begin(), nbrs.end());
    csr.offsets.push_back(csr.adjacency.size());
  }
  return csr;
}

Csr Flatten(const WeightedGraph& g) {
  Csr csr;
  csr.offsets.push_back(0);
  for (int64_t v = 0; v < g.num_nodes(); ++v) {
    const NodeId node = static_cast<NodeId>(v);
    const auto nbrs = g.neighbors(node);
    csr.adjacency.insert(csr.adjacency.end(), nbrs.begin(), nbrs.end());
    for (Weight w : g.weights(node)) {
      csr.weight_bits.push_back(std::bit_cast<uint64_t>(w));
    }
    const auto ids = g.edge_ids(node);
    csr.edge_ids.insert(csr.edge_ids.end(), ids.begin(), ids.end());
    csr.offsets.push_back(csr.adjacency.size());
  }
  return csr;
}

// The global-sort BuildGraph that the bucketed build replaced: one sort of
// all arcs by (source, neighbor), then a per-vertex unique and compaction.
Csr ReferenceBuildGraph(const EdgeList& list, const BuildOptions& options) {
  const int64_t n = list.num_nodes;
  std::vector<uint64_t> offsets(n + 1, 0);
  struct DirArc {
    NodeId from;
    NodeId to;
  };
  std::vector<DirArc> arcs;
  for (const Edge& e : list.edges) {
    if (options.remove_self_loops && e.u == e.v) continue;
    ++offsets[e.u + 1];
    ++offsets[e.v + 1];
    arcs.push_back(DirArc{e.u, e.v});
    arcs.push_back(DirArc{e.v, e.u});
  }
  for (int64_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  ParallelSort(ThreadPool::Global(), arcs,
               [](const DirArc& a, const DirArc& b) {
                 if (a.from != b.from) return a.from < b.from;
                 return a.to < b.to;
               });
  Csr csr;
  csr.offsets.push_back(0);
  for (int64_t v = 0; v < n; ++v) {
    auto begin = arcs.begin() + offsets[v];
    auto end = arcs.begin() + offsets[v + 1];
    if (options.dedup) {
      end = std::unique(begin, end, [](const DirArc& a, const DirArc& b) {
        return a.to == b.to;
      });
    }
    for (auto it = begin; it != end; ++it) csr.adjacency.push_back(it->to);
    csr.offsets.push_back(csr.adjacency.size());
  }
  return csr;
}

// The global-sort BuildWeightedGraph that the bucketed build replaced: one
// sort of all arcs by (source, weight, id, neighbor); dedup keeps each
// neighbor's first arc in that order.
Csr ReferenceBuildWeightedGraph(const WeightedEdgeList& list,
                                const BuildOptions& options) {
  const int64_t n = list.num_nodes;
  struct Arc {
    NodeId from;
    NodeId to;
    Weight w;
    EdgeId id;
  };
  std::vector<Arc> arcs;
  for (const WeightedEdge& e : list.edges) {
    if (options.remove_self_loops && e.u == e.v) continue;
    arcs.push_back(Arc{e.u, e.v, e.w, e.id});
    arcs.push_back(Arc{e.v, e.u, e.w, e.id});
  }
  ParallelSort(ThreadPool::Global(), arcs, [](const Arc& a, const Arc& b) {
    if (a.from != b.from) return a.from < b.from;
    if (a.w != b.w) return a.w < b.w;
    if (a.id != b.id) return a.id < b.id;
    return a.to < b.to;
  });
  std::vector<uint64_t> degree(n, 0);
  std::vector<NodeId> seen(options.dedup ? n : 0, kInvalidNode);
  std::vector<Arc> kept;
  for (const Arc& arc : arcs) {
    if (options.dedup) {
      if (seen[arc.to] == arc.from) continue;
      seen[arc.to] = arc.from;
    }
    ++degree[arc.from];
    kept.push_back(arc);
  }
  Csr csr;
  csr.offsets.push_back(0);
  for (int64_t v = 0; v < n; ++v) {
    csr.offsets.push_back(csr.offsets.back() + degree[v]);
  }
  for (const Arc& arc : kept) {
    csr.adjacency.push_back(arc.to);
    csr.weight_bits.push_back(std::bit_cast<uint64_t>(arc.w));
    csr.edge_ids.push_back(arc.id);
  }
  return csr;
}

// An edge list with `m` uniform edges among ids [lo, hi) of [0, n).
EdgeList RangeEdges(int64_t n, int64_t lo, int64_t hi, int64_t m,
                    uint64_t seed) {
  Rng rng(seed);
  EdgeList list;
  list.num_nodes = n;
  for (int64_t i = 0; i < m; ++i) {
    list.edges.push_back(
        Edge{static_cast<NodeId>(lo + rng.NextBelow(hi - lo)),
             static_cast<NodeId>(lo + rng.NextBelow(hi - lo))});
  }
  return list;
}

// The bucketed builders must equal the global-sort ones exactly: offsets,
// adjacency, weight bits and edge ids, under every BuildOptions. The
// builders split the edges into chunks of 2^14 and the sources into
// buckets of at least 2^14 expected arcs, so the inputs include sizes on
// both sides of one chunk and one bucket.
TEST(GraphBuildTest, MatchesReferenceBuilder) {
  struct Input {
    std::string name;
    EdgeList list;
  };
  std::vector<Input> inputs;
  inputs.push_back({"social R-MAT", GenerateRmat(13, 60'000, 3)});
  RmatOptions web;
  web.a = 0.65;
  web.b = web.c = (1.0 - web.a) / 3.0;
  inputs.push_back({"web R-MAT", GenerateRmat(14, 100'000, 4, web)});
  inputs.push_back({"ER, n = 50,003", GenerateErdosRenyi(50'003, 70'000, 5)});
  inputs.push_back({"star", GenerateStar(40'000)});
  inputs.push_back({"n = 1", EdgeList{1, {{0, 0}, {0, 0}}}});
  inputs.push_back({"n = 1, no edges", EdgeList{1, {}}});
  inputs.push_back({"no edges", EdgeList{1'000, {}}});
  EdgeList loops{50, {}};
  for (NodeId i = 0; i < 150; ++i) loops.edges.push_back(Edge{i % 50, i % 50});
  inputs.push_back({"all self-loops", loops});
  inputs.push_back(
      {"isolated ends", RangeEdges(40'000, 3'000, 37'000, 50'000, 6)});
  for (int64_t m : {100, 16'383, 16'385, 32'767, 32'769}) {
    inputs.push_back(
        {std::to_string(m) + " edges", GenerateRmat(12, m, 7 + m)});
  }

  std::vector<BuildOptions> all_options;
  for (bool dedup : {true, false}) {
    for (bool remove_self_loops : {true, false}) {
      all_options.push_back(BuildOptions{remove_self_loops, dedup});
    }
  }
  for (const Input& in : inputs) {
    std::vector<std::pair<std::string, WeightedEdgeList>> weighted = {
        {"unit", MakeUnitWeighted(in.list)},
        {"degree", MakeDegreeWeighted(in.list, BuildGraph(in.list))},
        {"random", MakeRandomWeighted(in.list, 9)}};
    for (const BuildOptions& options : all_options) {
      SCOPED_TRACE(in.name + ", dedup " + std::to_string(options.dedup) +
                   ", remove_self_loops " +
                   std::to_string(options.remove_self_loops));
      EXPECT_TRUE(Flatten(BuildGraph(in.list, options)) ==
                  ReferenceBuildGraph(in.list, options));
      for (const auto& [weights, list] : weighted) {
        EXPECT_TRUE(Flatten(BuildWeightedGraph(list, options)) ==
                    ReferenceBuildWeightedGraph(list, options))
            << weights << " weights";
      }
    }
  }

  // Heavy parallel edges among a few vertices, with tied weights and ids,
  // in both orientations.
  Rng rng(11);
  WeightedEdgeList parallel;
  parallel.num_nodes = 12;
  for (int i = 0; i < 20'000; ++i) {
    const NodeId u = static_cast<NodeId>(rng.NextBelow(12));
    const NodeId v = static_cast<NodeId>(rng.NextBelow(12));
    const Weight w = static_cast<Weight>(rng.NextBelow(3));
    const EdgeId id = static_cast<EdgeId>(rng.NextBelow(40));
    parallel.edges.push_back(WeightedEdge{u, v, w, id});
    parallel.edges.push_back(WeightedEdge{v, u, w, id});
  }
  for (const BuildOptions& options : all_options) {
    SCOPED_TRACE("parallel edges, dedup " + std::to_string(options.dedup) +
                 ", remove_self_loops " +
                 std::to_string(options.remove_self_loops));
    EXPECT_TRUE(Flatten(BuildWeightedGraph(parallel, options)) ==
                ReferenceBuildWeightedGraph(parallel, options));
    EXPECT_TRUE(Flatten(BuildGraph(StripWeights(parallel), options)) ==
                ReferenceBuildGraph(StripWeights(parallel), options));
  }
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
