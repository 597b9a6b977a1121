#include "graph/generators.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "graph/stats.h"

namespace ampc::graph {
namespace {

// 64-bit FNV-1a over every edge's u then v, four little-endian bytes each.
uint64_t Fingerprint(const EdgeList& list) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto feed = [&h](NodeId x) {
    for (int i = 0; i < 4; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const Edge& e : list.edges) {
    feed(e.u);
    feed(e.v);
  }
  return h;
}

TEST(GeneratorsTest, ErdosRenyiShape) {
  EdgeList list = GenerateErdosRenyi(100, 300, 1);
  EXPECT_EQ(list.num_nodes, 100);
  EXPECT_EQ(list.edges.size(), 300u);
  for (const Edge& e : list.edges) {
    EXPECT_LT(e.u, 100u);
    EXPECT_LT(e.v, 100u);
  }
}

TEST(GeneratorsTest, ErdosRenyiDeterministicPerSeed) {
  EdgeList a = GenerateErdosRenyi(50, 100, 3);
  EdgeList b = GenerateErdosRenyi(50, 100, 3);
  EdgeList c = GenerateErdosRenyi(50, 100, 4);
  EXPECT_EQ(a.edges.size(), b.edges.size());
  bool same_as_c = a.edges.size() == c.edges.size();
  for (size_t i = 0; i < a.edges.size(); ++i) {
    EXPECT_EQ(a.edges[i], b.edges[i]);
    if (same_as_c && !(a.edges[i] == c.edges[i])) same_as_c = false;
  }
  EXPECT_FALSE(same_as_c);
}

TEST(GeneratorsTest, RmatIsSkewed) {
  EdgeList list = GenerateRmat(12, 40000, 5);
  EXPECT_EQ(list.num_nodes, 4096);
  Graph g = BuildGraph(list);
  // Heavy-tailed: the max degree should far exceed the average.
  const double avg = static_cast<double>(g.num_arcs()) / g.num_nodes();
  EXPECT_GT(g.max_degree(), 8 * avg);
}

// The fingerprints were read from the serial generator that the chunked
// one replaced: the edge lists, and so every graph, e2e workload and
// ChargedCostsMatchParent pin built on them, must not move.
TEST(GeneratorsTest, RmatMatchesParentStream) {
  struct Case {
    int log2_nodes;
    int64_t edges;
    uint64_t seed;
    RmatOptions options;
    uint64_t fingerprint;
  };
  RmatOptions web;  // bench/e2e's web shape
  web.a = 0.65;
  web.b = web.c = (1.0 - web.a) / 3.0;
  RmatOptions unscrambled;
  unscrambled.scramble_ids = false;
  RmatOptions custom;
  custom.a = 0.45;
  custom.b = 0.15;
  custom.c = 0.30;
  const Case cases[] = {
      {18, 2'000'000, 1, web, 0x2ea62e8e727014aaULL},
      {18, 2'000'000, 2, web, 0xff7345dbdbe0bb91ULL},
      {18, 2'000'000, 3, web, 0xed725e3ce689c854ULL},
      {16, 500'000, 1, {}, 0x3ed0de1556093ef3ULL},  // social shape
      {1, 1'000, 7, {}, 0xcf926cda44e87445ULL},
      {12, 100'003, 5, {}, 0x50ca5f062fa0c651ULL},  // not a whole chunk
      {10, 40'000, 9, unscrambled, 0x658357ee24b0d18bULL},
      {14, 70'001, 11, custom, 0x220021b067c75c5bULL},
      {5, 0, 1, {}, 0xcbf29ce484222325ULL},
  };
  for (const Case& c : cases) {
    const EdgeList list =
        GenerateRmat(c.log2_nodes, c.edges, c.seed, c.options);
    EXPECT_EQ(list.num_nodes, int64_t{1} << c.log2_nodes);
    ASSERT_EQ(static_cast<int64_t>(list.edges.size()), c.edges);
    EXPECT_EQ(Fingerprint(list), c.fingerprint)
        << "log2_nodes " << c.log2_nodes << ", " << c.edges << " edges, seed "
        << c.seed;
  }
}

TEST(GeneratorsTest, CycleIsTwoRegularAndConnected) {
  EdgeList list = GenerateCycle(50);
  Graph g = BuildGraph(list);
  EXPECT_EQ(g.num_arcs(), 100);
  for (int64_t v = 0; v < 50; ++v) {
    EXPECT_EQ(g.degree(static_cast<NodeId>(v)), 2);
  }
  GraphStats stats = ComputeStats(g);
  EXPECT_EQ(stats.num_components, 1);
}

TEST(GeneratorsTest, DoubleCycleHasTwoComponents) {
  EdgeList list = GenerateDoubleCycle(40);
  EXPECT_EQ(list.num_nodes, 80);
  Graph g = BuildGraph(list);
  for (int64_t v = 0; v < 80; ++v) {
    EXPECT_EQ(g.degree(static_cast<NodeId>(v)), 2);
  }
  GraphStats stats = ComputeStats(g);
  EXPECT_EQ(stats.num_components, 2);
  EXPECT_EQ(stats.largest_component, 40);
}

TEST(GeneratorsTest, PathAndStarAndComplete) {
  Graph path = BuildGraph(GeneratePath(10));
  EXPECT_EQ(path.num_arcs(), 18);
  Graph star = BuildGraph(GenerateStar(10));
  EXPECT_EQ(star.degree(0), 9);
  EXPECT_EQ(star.max_degree(), 9);
  Graph complete = BuildGraph(GenerateComplete(6));
  EXPECT_EQ(complete.num_arcs(), 30);
}

TEST(GeneratorsTest, GridShape) {
  EdgeList list = GenerateGrid(3, 4);
  EXPECT_EQ(list.num_nodes, 12);
  // 3*3 horizontal + 2*4 vertical = 17 edges.
  EXPECT_EQ(list.edges.size(), 17u);
  Graph g = BuildGraph(list);
  GraphStats stats = ComputeStats(g);
  EXPECT_EQ(stats.num_components, 1);
}

TEST(GeneratorsTest, RandomTreeIsSpanningTree) {
  EdgeList list = GenerateRandomTree(200, 7);
  EXPECT_EQ(list.edges.size(), 199u);
  Graph g = BuildGraph(list);
  GraphStats stats = ComputeStats(g);
  EXPECT_EQ(stats.num_components, 1);
}

TEST(GeneratorsTest, RandomForestHasRequestedTrees) {
  EdgeList list = GenerateRandomForest(100, 5, 9);
  EXPECT_EQ(list.edges.size(), 95u);
  Graph g = BuildGraph(list);
  GraphStats stats = ComputeStats(g);
  EXPECT_EQ(stats.num_components, 5);
}

TEST(GeneratorsTest, TernaryTreeRespectsDegreeBound) {
  EdgeList list = GenerateRandomTernaryTree(500, 11);
  EXPECT_EQ(list.edges.size(), 499u);
  Graph g = BuildGraph(list);
  EXPECT_LE(g.max_degree(), 3);
  GraphStats stats = ComputeStats(g);
  EXPECT_EQ(stats.num_components, 1);
}

}  // namespace
}  // namespace ampc::graph
