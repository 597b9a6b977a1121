#include "baselines/local_contraction.h"

#include <algorithm>

#include "common/logging.h"
#include "common/timer.h"
#include "core/priorities.h"
#include "graph/contraction.h"
#include "graph/stats.h"

namespace ampc::baselines {
namespace {

using graph::Edge;
using graph::EdgeList;
using graph::kInvalidNode;
using graph::NodeId;

// The modeled job ships WeightedEdge records, so every charge prices an
// edge at sizeof(WeightedEdge), not sizeof(Edge).
int64_t RecordBytes(const std::vector<Edge>& edges) {
  return static_cast<int64_t>(edges.size()) *
         static_cast<int64_t>(sizeof(graph::WeightedEdge));
}

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

  std::vector<Edge> current = list.edges;
  int64_t k = n;
  // rep[cluster vertex] = an original representative (stable labels).
  std::vector<NodeId> rep(n);
  for (int64_t v = 0; v < n; ++v) rep[v] = static_cast<NodeId>(v);

  const int64_t threshold = cluster.config().in_memory_threshold_arcs;
  std::vector<NodeId> path;
  while (2 * static_cast<int64_t>(current.size()) > threshold) {
    WallTimer timer;
    ++result.iterations;
    const uint64_t iter_seed = seed + 104729ULL * result.iterations;

    // Hook every vertex to its minimum-rank neighbor when that neighbor
    // precedes it; chains are collapsed with path compression (the
    // contraction's pointer work). before() is VertexBefore read from one
    // rank table. hook[v] is v or a neighbor before v, so
    // before(u, hook[v]) implies before(u, v), and a self-loop never
    // hooks.
    const std::vector<uint64_t> rank =
        core::AllVertexRanks(cluster.pool(), k, iter_seed);
    const auto before = [&](NodeId a, NodeId b) {
      return rank[a] != rank[b] ? rank[a] < rank[b] : a < b;
    };
    std::vector<NodeId> hook(k);
    for (int64_t v = 0; v < k; ++v) hook[v] = static_cast<NodeId>(v);
    for (const Edge& e : current) {
      if (before(e.v, hook[e.u])) hook[e.u] = e.v;
      if (before(e.u, hook[e.v])) hook[e.v] = e.u;
    }
    std::vector<NodeId> root(k, kInvalidNode);
    auto find_root = [&](NodeId start) {
      NodeId v = start;
      path.clear();
      while (root[v] == kInvalidNode && hook[v] != v) {
        path.push_back(v);
        v = hook[v];
      }
      const NodeId r = root[v] == kInvalidNode ? v : root[v];
      for (NodeId w : path) root[w] = r;
      root[v] = r;
    };
    for (int64_t v = 0; v < k; ++v) find_root(static_cast<NodeId>(v));

    // Contract: three shuffles as in the paper's contraction routine. The
    // three shuffles share the host time of the whole iteration.
    const int64_t edge_bytes = RecordBytes(current);
    const graph::Contraction contraction = graph::Contract(current, root);
    const double wall = timer.Seconds();
    cluster.AccountShuffle("LC-Hook", edge_bytes + k, wall / 3);
    cluster.AccountShuffle("LC-Relabel", edge_bytes, wall / 3);
    cluster.AccountShuffle("LC-Rebuild", RecordBytes(current), wall / 3);

    // Fold the contraction into the global labels. Vertices whose cluster
    // became isolated keep the cluster root as their final representative.
    std::vector<NodeId> new_rep(contraction.num_nodes());
    for (int64_t c = 0; c < contraction.num_nodes(); ++c) {
      new_rep[c] = rep[contraction.representative[c]];
    }
    for (int64_t v = 0; v < n; ++v) {
      if (label[v] == kInvalidNode) continue;  // already finished
      const NodeId cluster_vertex = root[label[v]];
      const NodeId compact = contraction.compact[cluster_vertex];
      label[v] = compact;
      if (compact == kInvalidNode) {
        // Finished: the whole component contracted to cluster_vertex.
        result.component[v] = rep[cluster_vertex];
      }
    }
    rep = std::move(new_rep);
    k = contraction.num_nodes();
    if (current.empty()) break;
  }

  // In-memory finish on the residual graph.
  const int64_t m = static_cast<int64_t>(current.size());
  cluster.AccountInMemoryFinish("InMemoryCC", RecordBytes(current), m + n);
  EdgeList rest;
  rest.num_nodes = k;
  rest.edges = std::move(current);
  graph::Graph rest_graph = graph::BuildGraph(rest);
  std::vector<NodeId> rest_labels = graph::SequentialComponents(rest_graph);

  for (int64_t v = 0; v < n; ++v) {
    if (label[v] != kInvalidNode) {
      result.component[v] = rep[rest_labels[label[v]]];
    }
    AMPC_CHECK_NE(result.component[v], kInvalidNode);
  }

  // Representatives are vertex ids, so n seen-flags count them.
  std::vector<uint8_t> seen(n, 0);
  for (const NodeId c : result.component) {
    result.num_components += !seen[c];
    seen[c] = 1;
  }
  return result;
}

int MpcOneVsTwoCycle(sim::Cluster& cluster, const EdgeList& list,
                     uint64_t seed) {
  LocalContractionResult cc = MpcLocalContractionCC(cluster, list, seed);
  return static_cast<int>(cc.num_components);
}

}  // namespace ampc::baselines
