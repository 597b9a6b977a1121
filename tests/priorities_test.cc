// Row-order tests for the rank-keyed staging builder
// (core::BuildRankedRows and its MIS and matching keyings). The
// references are the comparator sorts AMPC MIS and matching staged their
// rows with before the builder: VertexBefore's filter and sort, and
// EdgeOrder::Before's (bucket, rank, (min, max) endpoints) sort. The
// builder's rows must equal them for every vertex.
#include "core/priorities.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "graph/generators.h"

namespace ampc::core {
namespace {

using graph::EdgeList;
using graph::Graph;
using graph::NodeId;

EdgeList Shape(const std::string& name, uint64_t seed) {
  if (name == "web") {
    graph::RmatOptions web;
    web.a = 0.65;
    web.b = web.c = (1.0 - web.a) / 3.0;
    return graph::GenerateRmat(12, 40000, seed, web);
  }
  if (name == "er") return graph::GenerateErdosRenyi(2000, 8000, seed);
  if (name == "star") return graph::GenerateStar(300);
  return graph::GeneratePath(500);
}

// AmpcMis's DirectGraph row before the builder: keep the neighbors that
// precede v, sorted by `before` (VertexBefore, or a forced-tie copy).
template <typename Before>
std::vector<NodeId> ReferenceDirectedRow(const Graph& g, NodeId v,
                                         Before before) {
  std::vector<NodeId> row;
  for (const NodeId u : g.neighbors(v)) {
    if (before(u, v)) row.push_back(u);
  }
  std::sort(row.begin(), row.end(), before);
  return row;
}

// StageGraph's comparator before the builder (EdgeOrder in matching.cc):
// the bucket, then the rank, then the (min, max) endpoint pair. With
// `tie_all` every rank is equal, so the endpoint tie-break decides.
struct ReferenceEdgeOrder {
  uint64_t seed = 0;
  const EdgeBucketMap* buckets = nullptr;
  bool tie_all = false;

  uint64_t Rank(NodeId a, NodeId b) const {
    return tie_all ? 0 : EdgeRank(a, b, seed);
  }
  uint32_t Bucket(NodeId a, NodeId b) const {
    if (buckets == nullptr) return 0;
    const auto it = buckets->find(EdgeKey(a, b));
    return it == buckets->end() ? 0 : it->second;
  }
  bool Before(NodeId a1, NodeId b1, NodeId a2, NodeId b2) const {
    if (buckets != nullptr) {
      const uint32_t c1 = Bucket(a1, b1);
      const uint32_t c2 = Bucket(a2, b2);
      if (c1 != c2) return c1 < c2;
    }
    const uint64_t r1 = Rank(a1, b1);
    const uint64_t r2 = Rank(a2, b2);
    if (r1 != r2) return r1 < r2;
    const std::pair<NodeId, NodeId> k1{std::min(a1, b1), std::max(a1, b1)};
    const std::pair<NodeId, NodeId> k2{std::min(a2, b2), std::max(a2, b2)};
    return k1 < k2;
  }
};

// StageGraph's row before the builder: alive and rank-threshold filters,
// then the EdgeOrder sort.
std::vector<NodeId> ReferenceEdgeRow(const Graph& g, NodeId v,
                                     const ReferenceEdgeOrder& order,
                                     const std::vector<uint8_t>* alive,
                                     double rank_threshold) {
  std::vector<NodeId> row;
  if (alive != nullptr && !(*alive)[v]) return row;
  for (const NodeId u : g.neighbors(v)) {
    if (alive != nullptr && !(*alive)[u]) continue;
    if (rank_threshold < 1.0 &&
        ToUnitDouble(order.Rank(v, u)) > rank_threshold) {
      continue;
    }
    row.push_back(u);
  }
  std::sort(row.begin(), row.end(), [&](NodeId p, NodeId q) {
    return order.Before(v, p, v, q);
  });
  return row;
}

// Several weight classes over the edges, with every seventh edge left
// out of the map (bucket 0), as AmpcMatching's callers may.
EdgeBucketMap Buckets(const EdgeList& list) {
  EdgeBucketMap buckets;
  for (size_t i = 0; i < list.edges.size(); ++i) {
    if (i % 7 == 0) continue;
    const uint64_t key = EdgeKey(list.edges[i].u, list.edges[i].v);
    buckets[key] = static_cast<uint32_t>(Hash64(key, 5) % 6);
  }
  return buckets;
}

void ExpectRowsEqual(const RankedRows& rows, const Graph& g,
                     const std::function<std::vector<NodeId>(NodeId)>& ref) {
  ASSERT_EQ(rows.num_rows(), g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const std::span<const NodeId> row = rows.Row(v);
    ASSERT_EQ(std::vector<NodeId>(row.begin(), row.end()), ref(v))
        << "row " << v;
  }
}

class StagingRowsTest
    : public ::testing::TestWithParam<std::tuple<std::string, uint64_t>> {};

TEST_P(StagingRowsTest, PrecedingNeighborRowsEqualVertexBeforeSort) {
  const auto [shape, seed] = GetParam();
  const Graph g = graph::BuildGraph(Shape(shape, seed));
  ThreadPool pool(3);
  ExpectRowsEqual(PrecedingNeighborRows(pool, g, seed), g, [&](NodeId v) {
    return ReferenceDirectedRow(g, v, [&](NodeId a, NodeId b) {
      return VertexBefore(a, b, seed);
    });
  });
}

TEST_P(StagingRowsTest, EdgeRankedRowsEqualEdgeOrderSort) {
  const auto [shape, seed] = GetParam();
  const EdgeList list = Shape(shape, seed);
  const Graph g = graph::BuildGraph(list);
  const EdgeBucketMap buckets = Buckets(list);
  ThreadPool pool(3);
  for (const EdgeBucketMap* map : {static_cast<const EdgeBucketMap*>(nullptr),
                                   &buckets}) {
    const ReferenceEdgeOrder order{seed, map};
    ExpectRowsEqual(EdgeRankedRows(pool, g, seed, map, nullptr, 1.0), g,
                    [&](NodeId v) {
                      return ReferenceEdgeRow(g, v, order, nullptr, 1.0);
                    });
  }
}

TEST_P(StagingRowsTest, SampledRowsDropDeadVerticesAndHighRanks) {
  const auto [shape, seed] = GetParam();
  const Graph g = graph::BuildGraph(Shape(shape, seed));
  std::vector<uint8_t> alive(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) alive[v] = Hash64(v, seed) % 3;
  const ReferenceEdgeOrder order{seed};
  ThreadPool pool(3);
  ExpectRowsEqual(EdgeRankedRows(pool, g, seed, nullptr, &alive, 0.3), g,
                  [&](NodeId v) {
                    return ReferenceEdgeRow(g, v, order, &alive, 0.3);
                  });
}

// 64-bit hash ties never occur on real inputs, so a key that ranks every
// arc equal is the only way to run the builder's neighbor tie-break
// against the references' id and (min, max) endpoint tie-breaks.
TEST_P(StagingRowsTest, ForcedTiesBreakByNeighborId) {
  const auto [shape, seed] = GetParam();
  const EdgeList list = Shape(shape, seed);
  const Graph g = graph::BuildGraph(list);
  ThreadPool pool(3);
  // VertexBefore with every rank equal.
  const auto tied_before = [](NodeId a, NodeId b) {
    const uint64_t ra = 0, rb = 0;
    if (ra != rb) return ra < rb;
    return a < b;
  };
  ExpectRowsEqual(
      BuildRankedRows(
          pool, g, [&](NodeId v, NodeId u) { return tied_before(u, v); },
          [](NodeId, NodeId) { return ArcKey{}; }),
      g, [&](NodeId v) { return ReferenceDirectedRow(g, v, tied_before); });

  const EdgeBucketMap buckets = Buckets(list);
  for (const EdgeBucketMap* map : {static_cast<const EdgeBucketMap*>(nullptr),
                                   &buckets}) {
    const ReferenceEdgeOrder order{seed, map, /*tie_all=*/true};
    ExpectRowsEqual(
        BuildRankedRows(
            pool, g, [](NodeId, NodeId) { return true; },
            [&](NodeId v, NodeId u) {
              return ArcKey{.bucket = order.Bucket(v, u)};
            }),
        g, [&](NodeId v) {
          return ReferenceEdgeRow(g, v, order, nullptr, 1.0);
        });
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, StagingRowsTest,
    ::testing::Combine(::testing::Values("web", "er", "star", "path"),
                       ::testing::Values(1u, 42u)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

TEST(RankedRowsTest, EmptyGraphHasEmptyRows) {
  EdgeList list;
  list.num_nodes = 3;
  const Graph g = graph::BuildGraph(list);
  ThreadPool pool(2);
  const RankedRows rows = PrecedingNeighborRows(pool, g, 7);
  ASSERT_EQ(rows.num_rows(), 3);
  for (NodeId v = 0; v < 3; ++v) EXPECT_TRUE(rows.Row(v).empty());
}

}  // namespace
}  // namespace ampc::core
