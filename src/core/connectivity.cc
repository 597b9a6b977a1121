#include "core/connectivity.h"

#include <unordered_set>

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

  ConnectivityResult result;
  result.forest_edges = msf.edges;

  // ForestConnectivity (Proposition 3.2 stand-in): root every tree and
  // propagate the root label. Charged as two shuffles plus a map round.
  WallTimer timer;
  std::unordered_set<graph::EdgeId> in_forest(msf.edges.begin(),
                                              msf.edges.end());
  std::vector<WeightedEdge> forest_edges;
  forest_edges.reserve(msf.edges.size());
  for (const WeightedEdge& e : weighted.edges) {
    if (in_forest.contains(e.id)) forest_edges.push_back(e);
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

  result.component = forest.root;
  std::unordered_set<NodeId> distinct(result.component.begin(),
                                      result.component.end());
  result.num_components = static_cast<int64_t>(distinct.size());
  return result;
}

}  // namespace ampc::core
