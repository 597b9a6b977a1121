#include "core/connectivity.h"

#include "common/timer.h"
#include "trees/rooted_forest.h"

namespace ampc::core {

using graph::EdgeList;
using graph::NodeId;
using graph::WeightedEdge;
using graph::WeightedEdgeList;

ConnectivityResult AmpcConnectivity(sim::Cluster& cluster,
                                    const EdgeList& list,
                                    const MsfOptions& options) {
  // Any spanning forest works; unit weights with id tie-breaks make the
  // MSF a spanning forest while keeping the edge order deterministic.
  // The frontier engine (ClusterConfig::frontier, common/frontier.h)
  // reaches connectivity through these AmpcMsf rounds: each round's
  // PrimSearch and PointerJump phases pick push or pull per the
  // dense/sparse policy in msf.cc — outputs are identical in every
  // mode.
  const WeightedEdgeList weighted = graph::MakeUnitWeighted(list);
  MsfResult msf = AmpcMsf(cluster, weighted, options);

  // ForestConnectivity (Proposition 3.2 stand-in): root every tree and
  // propagate the root label. Charged as two shuffles plus a map round.
  // MakeUnitWeighted numbers the edges by position, so a forest id
  // indexes the list, and msf.edges ascends, so the forest keeps the
  // list's order.
  WallTimer timer;
  std::vector<WeightedEdge> forest_edges;
  forest_edges.reserve(msf.edges.size());
  for (const graph::EdgeId id : msf.edges) {
    forest_edges.push_back(weighted.edges[id]);
  }
  trees::RootedForest forest =
      trees::BuildRootedForest(list.num_nodes, forest_edges);
  const double wall = timer.Seconds();
  // Charge both shuffles to the machines whose DHT shards receive the
  // records: forest edges land with their child endpoint's owner, root
  // labels with the labelled vertex's owner. Skewed ownership (many tree
  // edges hashing to one machine) lengthens the round accordingly.
  const std::vector<int64_t> edge_bytes = cluster.AttributeShardedBytes(
      static_cast<int64_t>(forest_edges.size()),
      [&](int64_t i) {
        return cluster.MachineOf(forest_edges[i].u, list.num_nodes);
      },
      [](int64_t) { return static_cast<int64_t>(sizeof(WeightedEdge)); });
  cluster.AccountShardedShuffle("ForestConnectivity", edge_bytes, wall / 2);
  const std::vector<int64_t> label_bytes = cluster.AttributeShardedBytes(
      list.num_nodes,
      [&](int64_t v) { return cluster.MachineOf(v, list.num_nodes); },
      [](int64_t) { return static_cast<int64_t>(sizeof(NodeId)); });
  cluster.AccountShardedShuffle("ForestConnectivity", label_bytes, wall / 2);
  cluster.AccountMapRound("ForestConnectivity");

  ConnectivityResult result;
  result.forest_edges = std::move(msf.edges);
  result.component = std::move(forest.root);
  // One component per tree, labelled by its root.
  for (int64_t v = 0; v < list.num_nodes; ++v) {
    result.num_components += (result.component[v] == v);
  }
  return result;
}

}  // namespace ampc::core
