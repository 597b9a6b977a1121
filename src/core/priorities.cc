#include "core/priorities.h"

#include "common/parallel.h"

namespace ampc::core {

std::vector<uint64_t> AllVertexRanks(int64_t num_nodes, uint64_t seed) {
  std::vector<uint64_t> ranks(num_nodes);
  for (int64_t v = 0; v < num_nodes; ++v) {
    ranks[v] = VertexRank(static_cast<graph::NodeId>(v), seed);
  }
  return ranks;
}

std::vector<uint64_t> AllVertexRanks(ThreadPool& pool, int64_t num_nodes,
                                     uint64_t seed) {
  return ParallelTabulate<uint64_t>(pool, num_nodes, [seed](int64_t v) {
    return VertexRank(static_cast<graph::NodeId>(v), seed);
  });
}

std::vector<uint64_t> AllEdgeRanks(const graph::EdgeList& list,
                                   uint64_t seed) {
  std::vector<uint64_t> ranks(list.edges.size());
  for (size_t i = 0; i < list.edges.size(); ++i) {
    ranks[i] = EdgeRank(list.edges[i].u, list.edges[i].v, seed);
  }
  return ranks;
}

std::vector<uint64_t> AllEdgeRanks(ThreadPool& pool,
                                   const graph::EdgeList& list,
                                   uint64_t seed) {
  return ParallelTabulate<uint64_t>(
      pool, static_cast<int64_t>(list.edges.size()), [&](int64_t i) {
        return EdgeRank(list.edges[i].u, list.edges[i].v, seed);
      });
}

RankedRows PrecedingNeighborRows(ThreadPool& pool, const graph::Graph& g,
                                 uint64_t seed) {
  const std::vector<uint64_t> ranks = AllVertexRanks(pool, g.num_nodes(), seed);
  return BuildRankedRows(
      pool, g,
      [&](graph::NodeId v, graph::NodeId u) {
        return ranks[u] != ranks[v] ? ranks[u] < ranks[v] : u < v;
      },
      [&](graph::NodeId, graph::NodeId u) { return ArcKey{.rank = ranks[u]}; });
}

RankedRows EdgeRankedRows(ThreadPool& pool, const graph::Graph& g,
                          uint64_t seed, const EdgeBucketMap* buckets,
                          const std::vector<uint8_t>* alive,
                          double rank_threshold) {
  return BuildRankedRows(
      pool, g,
      [&](graph::NodeId v, graph::NodeId u) {
        if (alive != nullptr && !((*alive)[v] && (*alive)[u])) return false;
        return rank_threshold >= 1.0 ||
               ToUnitDouble(EdgeRank(v, u, seed)) <= rank_threshold;
      },
      [&](graph::NodeId v, graph::NodeId u) {
        ArcKey key{.rank = EdgeRank(v, u, seed)};
        if (buckets != nullptr) {
          const auto it = buckets->find(EdgeKey(v, u));
          if (it != buckets->end()) key.bucket = it->second;
        }
        return key;
      });
}

}  // namespace ampc::core
