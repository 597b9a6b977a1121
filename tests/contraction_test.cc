#include "graph/contraction.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "contraction_reference.h"
#include "graph/generators.h"
#include "graph/stats.h"

namespace ampc::graph {
namespace {

std::vector<WeightedEdge> PathFour() {
  return {{0, 1, 1.0, 0}, {1, 2, 2.0, 1}, {2, 3, 3.0, 2}};
}

TEST(ContractionTest, IdentityMappingDropsNothing) {
  std::vector<WeightedEdge> edges = PathFour();
  const Contraction c = Contract(edges, {0, 1, 2, 3});
  EXPECT_EQ(c.num_nodes(), 4);
  EXPECT_EQ(edges, PathFour());
}

TEST(ContractionTest, MergingEndpointsRemovesSelfLoops) {
  std::vector<WeightedEdge> edges = PathFour();
  const Contraction c = Contract(edges, {0, 0, 2, 2});  // {0,1} and {2,3}
  EXPECT_EQ(c.num_nodes(), 2);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].id, 1u);  // the 1-2 edge survives
  EXPECT_EQ(edges[0].w, 2.0);
}

TEST(ContractionTest, IsolatedClustersRemoved) {
  std::vector<WeightedEdge> edges = {{0, 1, 1.0, 0}};  // 2 and 3 isolated
  const Contraction c = Contract(edges, {0, 1, 2, 3});
  EXPECT_EQ(c.num_nodes(), 2);
  EXPECT_EQ(c.compact[2], kInvalidNode);
  EXPECT_EQ(c.compact[3], kInvalidNode);
  EXPECT_NE(c.compact[0], kInvalidNode);
}

TEST(ContractionTest, RepresentativeTracksClusterRoot) {
  std::vector<WeightedEdge> edges = PathFour();
  const std::vector<NodeId> cluster_of = {3, 3, 2, 3};  // roots 3 and 2
  const Contraction c = Contract(edges, cluster_of);
  EXPECT_EQ(c.num_nodes(), 2);
  // Every compacted id maps back to its root; non-roots have no id.
  for (int64_t v = 0; v < 4; ++v) {
    const NodeId compact = c.compact[cluster_of[v]];
    ASSERT_NE(compact, kInvalidNode);
    EXPECT_EQ(c.representative[compact], cluster_of[v]);
  }
  EXPECT_EQ(c.compact[0], kInvalidNode);
  EXPECT_EQ(c.compact[1], kInvalidNode);
}

TEST(ContractionTest, ParallelEdgesKept) {
  std::vector<WeightedEdge> edges = {{0, 2, 1.0, 0}, {1, 3, 2.0, 1}};
  const Contraction c = Contract(edges, {0, 0, 2, 2});
  EXPECT_EQ(c.num_nodes(), 2);
  EXPECT_EQ(edges.size(), 2u);  // both cross edges survive
}

TEST(ContractionTest, EndpointsRelabeledConsistently) {
  std::vector<WeightedEdge> edges = PathFour();
  Contract(edges, {0, 0, 3, 3});
  ASSERT_EQ(edges.size(), 1u);
  const WeightedEdge& e = edges[0];
  EXPECT_NE(e.u, e.v);
  EXPECT_LT(e.u, 2u);
  EXPECT_LT(e.v, 2u);
}

TEST(ContractionTest, ClusterIdsFollowFirstAppearance) {
  std::vector<WeightedEdge> edges = {
      {3, 2, 1.0, 0}, {0, 1, 2.0, 1}, {2, 0, 3.0, 2}};
  const Contraction c = Contract(edges, {0, 1, 2, 3});
  EXPECT_EQ(c.representative, (std::vector<NodeId>{3, 2, 0, 1}));
  EXPECT_EQ(edges, (std::vector<WeightedEdge>{
                       {0, 1, 1.0, 0}, {2, 3, 2.0, 1}, {1, 2, 3.0, 2}}));
  EXPECT_EQ(c.compact, (std::vector<NodeId>{2, 3, 1, 0}));
}

// A Borůvka-style working arc: endpoints and the input position.
struct PosArc {
  NodeId u = 0;
  NodeId v = 0;
  uint32_t pos = 0;

  bool operator==(const PosArc&) const = default;
};
static_assert(sizeof(PosArc) == 12);

// Contract() against HashMapContract, and every surviving record against
// the input record it came from: only its endpoints may change.
template <typename Record>
void ExpectMatchesReference(const std::vector<Record>& input,
                            const std::vector<NodeId>& cluster_of) {
  const ReferenceContraction<Record> want = HashMapContract(input, cluster_of);
  std::vector<Record> got = input;
  const Contraction c = Contract(got, cluster_of);
  EXPECT_EQ(got, want.records);
  EXPECT_EQ(c.representative, want.representative);
  for (size_t v = 0; v < cluster_of.size(); ++v) {
    ASSERT_EQ(c.compact[cluster_of[v]], want.compact_of_vertex[v]) << v;
  }

  std::vector<Record> kept;
  for (const Record& r : input) {
    if (cluster_of[r.u] != cluster_of[r.v]) kept.push_back(r);
  }
  ASSERT_EQ(got.size(), kept.size());
  for (size_t j = 0; j < kept.size(); ++j) {
    EXPECT_EQ(got[j].u, c.compact[cluster_of[kept[j].u]]);
    EXPECT_EQ(got[j].v, c.compact[cluster_of[kept[j].v]]);
    Record restored = got[j];
    restored.u = kept[j].u;
    restored.v = kept[j].v;
    ASSERT_EQ(restored, kept[j]) << j;
  }
}

TEST(ContractionTest, MatchesHashMapReference) {
  const EdgeList raw = GenerateRmat(10, 6000, 3);
  const int64_t n = raw.num_nodes;
  // Weighted records whose ids are a shuffled permutation of positions,
  // so no member of a record can stand in for another.
  WeightedEdgeList weighted = MakeRandomWeighted(raw, 3);
  Rng shuffle(5);
  for (size_t i = weighted.edges.size(); i > 1; --i) {
    std::swap(weighted.edges[i - 1].id,
              weighted.edges[shuffle.NextBelow(i)].id);
  }
  std::vector<PosArc> arcs;
  for (size_t i = 0; i < raw.edges.size(); ++i) {
    arcs.push_back(
        PosArc{raw.edges[i].u, raw.edges[i].v, static_cast<uint32_t>(i)});
  }

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
    ExpectMatchesReference(weighted.edges, maps[i]);
    ExpectMatchesReference(raw.edges, maps[i]);
    ExpectMatchesReference(arcs, maps[i]);
  }
  // The half-edge map keeps some edges and isolates some clusters that
  // had edges; the whole-component map isolates every cluster.
  const std::vector<NodeId>& half = maps[maps.size() - 2];
  std::vector<Edge> half_kept = raw.edges;
  const Contraction c = Contract(half_kept, half);
  EXPECT_FALSE(half_kept.empty());
  EXPECT_TRUE(std::any_of(raw.edges.begin(), raw.edges.end(),
                          [&](const Edge& e) {
                            return e.u != e.v &&
                                   c.compact[half[e.u]] == kInvalidNode;
                          }));
  std::vector<Edge> whole_kept = raw.edges;
  Contract(whole_kept, maps.back());
  EXPECT_TRUE(whole_kept.empty());
}

TEST(ContractionTest, RootOutOfRangeDies) {
  std::vector<WeightedEdge> edges = PathFour();
  EXPECT_DEATH(Contract(edges, {0, 1, 2, 4}), "root");
}

}  // namespace
}  // namespace ampc::graph
