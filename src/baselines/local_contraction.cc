#include "baselines/local_contraction.h"

#include <algorithm>
#include <unordered_set>

#include "common/logging.h"
#include "common/timer.h"
#include "core/priorities.h"
#include "graph/contraction.h"
#include "graph/stats.h"

namespace ampc::baselines {
namespace {

using graph::EdgeList;
using graph::kInvalidNode;
using graph::NodeId;
using graph::WeightedEdge;
using graph::WeightedEdgeList;

}  // namespace

LocalContractionResult MpcLocalContractionCC(sim::Cluster& cluster,
                                             const EdgeList& list,
                                             uint64_t seed) {
  const int64_t n = list.num_nodes;
  LocalContractionResult result;
  result.component.assign(n, kInvalidNode);

  // label[v]: current contracted vertex that v belongs to.
  std::vector<NodeId> label(n);
  for (int64_t v = 0; v < n; ++v) label[v] = static_cast<NodeId>(v);

  WeightedEdgeList current;
  current.num_nodes = n;
  current.edges.reserve(list.edges.size());
  for (size_t i = 0; i < list.edges.size(); ++i) {
    current.edges.push_back(WeightedEdge{list.edges[i].u, list.edges[i].v,
                                         1.0,
                                         static_cast<graph::EdgeId>(i)});
  }
  // rep[cluster vertex] = an original representative (stable labels).
  std::vector<NodeId> rep(n);
  for (int64_t v = 0; v < n; ++v) rep[v] = static_cast<NodeId>(v);

  const int64_t threshold = cluster.config().in_memory_threshold_arcs;
  while (2 * static_cast<int64_t>(current.edges.size()) > threshold) {
    WallTimer timer;
    ++result.iterations;
    const uint64_t iter_seed = seed + 104729ULL * result.iterations;
    const int64_t k = current.num_nodes;

    // Hook every vertex to its minimum-rank neighbor when that neighbor
    // precedes it; chains are collapsed with path compression (the
    // contraction's pointer work).
    std::vector<NodeId> hook(k);
    for (int64_t v = 0; v < k; ++v) hook[v] = static_cast<NodeId>(v);
    for (const WeightedEdge& e : current.edges) {
      if (e.u == e.v) continue;
      for (int side = 0; side < 2; ++side) {
        const NodeId v = side == 0 ? e.u : e.v;
        const NodeId u = side == 0 ? e.v : e.u;
        if (!core::VertexBefore(u, v, iter_seed)) continue;
        NodeId& h = hook[v];
        if (h == v || core::VertexBefore(u, h, iter_seed)) h = u;
      }
    }
    std::vector<NodeId> root(k, kInvalidNode);
    auto find_root = [&](NodeId start) {
      NodeId v = start;
      std::vector<NodeId> path;
      while (root[v] == kInvalidNode && hook[v] != v) {
        path.push_back(v);
        v = hook[v];
      }
      const NodeId r = root[v] == kInvalidNode ? v : root[v];
      for (NodeId w : path) root[w] = r;
      root[v] = r;
      return r;
    };
    for (int64_t v = 0; v < k; ++v) find_root(static_cast<NodeId>(v));

    // Contract: three shuffles as in the paper's contraction routine. The
    // three shuffles share the host time of the whole iteration.
    const int64_t edge_bytes =
        static_cast<int64_t>(current.edges.size()) *
        static_cast<int64_t>(sizeof(WeightedEdge));
    graph::ContractedGraph contracted =
        graph::ContractEdgeList(std::move(current), root);
    const double wall = timer.Seconds();
    cluster.AccountShuffle("LC-Hook", edge_bytes + k, wall / 3);
    cluster.AccountShuffle("LC-Relabel", edge_bytes, wall / 3);
    cluster.AccountShuffle(
        "LC-Rebuild",
        static_cast<int64_t>(contracted.list.edges.size()) *
            static_cast<int64_t>(sizeof(WeightedEdge)),
        wall / 3);

    // Fold the contraction into the global labels. Vertices whose cluster
    // became isolated keep the cluster root as their final representative.
    std::vector<NodeId> new_rep(contracted.list.num_nodes);
    for (int64_t c = 0; c < contracted.list.num_nodes; ++c) {
      new_rep[c] = rep[contracted.representative[c]];
    }
    for (int64_t v = 0; v < n; ++v) {
      if (label[v] == kInvalidNode) continue;  // already finished
      const NodeId cluster_vertex = root[label[v]];
      const NodeId compact = contracted.compact_of_vertex[cluster_vertex];
      label[v] = compact;
      if (compact == kInvalidNode) {
        // Finished: the whole component contracted to cluster_vertex.
        result.component[v] = rep[cluster_vertex];
      }
    }
    rep = std::move(new_rep);
    current = std::move(contracted.list);
    if (current.edges.empty()) break;
  }

  // In-memory finish on the residual graph.
  const int64_t m = static_cast<int64_t>(current.edges.size());
  cluster.AccountInMemoryFinish(
      "InMemoryCC", m * static_cast<int64_t>(sizeof(WeightedEdge)), m + n);
  EdgeList rest;
  rest.num_nodes = current.num_nodes;
  for (const WeightedEdge& e : current.edges) {
    rest.edges.push_back(graph::Edge{e.u, e.v});
  }
  graph::Graph rest_graph = graph::BuildGraph(rest);
  std::vector<NodeId> rest_labels = graph::SequentialComponents(rest_graph);

  for (int64_t v = 0; v < n; ++v) {
    if (label[v] != kInvalidNode) {
      result.component[v] = rep[rest_labels[label[v]]];
    }
    AMPC_CHECK_NE(result.component[v], kInvalidNode);
  }

  std::unordered_set<NodeId> distinct(result.component.begin(),
                                      result.component.end());
  result.num_components = static_cast<int64_t>(distinct.size());
  return result;
}

int MpcOneVsTwoCycle(sim::Cluster& cluster, const EdgeList& list,
                     uint64_t seed) {
  LocalContractionResult cc = MpcLocalContractionCC(cluster, list, seed);
  return static_cast<int>(cc.num_components);
}

}  // namespace ampc::baselines
