#include "baselines/boruvka.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/random.h"
#include "common/timer.h"
#include "graph/contraction.h"
#include "seq/msf.h"

namespace ampc::baselines {
namespace {

using graph::kInvalidNode;
using graph::NodeId;
using graph::WeightedEdge;
using graph::WeightedEdgeList;

constexpr uint32_t kNoEdge = 0xffffffffu;

}  // namespace

BoruvkaResult MpcBoruvkaMsf(sim::Cluster& cluster,
                            const WeightedEdgeList& list, uint64_t seed) {
  BoruvkaResult result;
  WeightedEdgeList current = list;
  const int64_t threshold = cluster.config().in_memory_threshold_arcs;

  while (2 * static_cast<int64_t>(current.edges.size()) > threshold) {
    WallTimer timer;
    ++result.phases;
    const uint64_t phase_seed = seed + 7919ULL * result.phases;
    const int64_t k = current.num_nodes;

    // Minimum-order incident edge per vertex.
    std::vector<uint32_t> min_edge(k, kNoEdge);
    for (uint32_t i = 0; i < current.edges.size(); ++i) {
      const WeightedEdge& e = current.edges[i];
      if (e.u == e.v) continue;
      for (NodeId endpoint : {e.u, e.v}) {
        uint32_t& slot = min_edge[endpoint];
        if (slot == kNoEdge ||
            seq::EdgeLess(e, current.edges[slot])) {
          slot = i;
        }
      }
    }

    // Blue vertices hook into red neighbors along their minimum edge.
    std::vector<NodeId> cluster_of(k);
    for (int64_t v = 0; v < k; ++v) {
      cluster_of[v] = static_cast<NodeId>(v);
      if (min_edge[v] == kNoEdge) continue;
      const bool blue = (Hash64(v, phase_seed) & 1) == 0;
      if (!blue) continue;
      const WeightedEdge& e = current.edges[min_edge[v]];
      const NodeId other = (e.u == static_cast<NodeId>(v)) ? e.v : e.u;
      const bool other_red = (Hash64(other, phase_seed) & 1) != 0;
      if (!other_red) continue;
      cluster_of[v] = other;
      result.edges.push_back(e.id);
    }

    // Contract (three shuffles in the Flume implementation). The three
    // shuffles share the host time of the whole phase.
    const int64_t edge_bytes =
        static_cast<int64_t>(current.edges.size()) *
        static_cast<int64_t>(sizeof(WeightedEdge));
    graph::ContractedGraph contracted =
        graph::ContractEdgeList(std::move(current), cluster_of);
    const double wall = timer.Seconds();
    const int64_t contracted_bytes =
        static_cast<int64_t>(contracted.list.edges.size()) *
        static_cast<int64_t>(sizeof(WeightedEdge));
    cluster.AccountShuffle("BoruvkaMark", edge_bytes + k, wall / 3);
    cluster.AccountShuffle("BoruvkaRelabel", edge_bytes, wall / 3);
    cluster.AccountShuffle("BoruvkaRebuild", contracted_bytes, wall / 3);

    // A phase without hooks (unlikely for several phases in a row) just
    // retries with fresh colors.
    current = std::move(contracted.list);
    if (current.edges.empty()) break;
  }

  // In-memory Kruskal on the residual multigraph.
  const int64_t m = static_cast<int64_t>(current.edges.size());
  cluster.AccountInMemoryFinish(
      "InMemoryMSF", m * static_cast<int64_t>(sizeof(WeightedEdge)),
      m + static_cast<int64_t>(m * std::log2(static_cast<double>(m) + 2)));
  std::vector<graph::EdgeId> finish = seq::KruskalMsf(current);
  result.edges.insert(result.edges.end(), finish.begin(), finish.end());

  ParallelSort(cluster.pool(), result.edges);
  result.edges.erase(std::unique(result.edges.begin(), result.edges.end()),
                     result.edges.end());
  return result;
}

}  // namespace ampc::baselines
