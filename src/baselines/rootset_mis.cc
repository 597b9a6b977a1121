#include "baselines/rootset_mis.h"

#include <atomic>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/priorities.h"
#include "seq/greedy.h"

namespace ampc::baselines {
namespace {

using graph::Graph;
using graph::NodeId;

// Mutable adjacency of the residual graph, rebuilt by each phase's second
// shuffle.
struct Residual {
  std::vector<std::vector<NodeId>> adj;
  std::vector<uint8_t> alive;
  int64_t arcs = 0;

  int64_t GraphBytes() const {
    int64_t bytes = 0;
    for (size_t v = 0; v < adj.size(); ++v) {
      if (alive[v]) {
        bytes += kv::kKeyBytes +
                 static_cast<int64_t>(adj[v].size() * sizeof(NodeId));
      }
    }
    return bytes;
  }
};

}  // namespace

RootsetMisResult MpcRootsetMis(sim::Cluster& cluster, const Graph& g,
                               uint64_t seed) {
  const int64_t n = g.num_nodes();
  Residual r;
  r.adj.resize(n);
  r.alive.assign(n, 1);
  for (int64_t v = 0; v < n; ++v) {
    auto nbrs = g.neighbors(static_cast<NodeId>(v));
    r.adj[v].assign(nbrs.begin(), nbrs.end());
    r.arcs += static_cast<int64_t>(nbrs.size());
  }

  RootsetMisResult result;
  result.in_mis.assign(n, 0);
  const int64_t threshold = cluster.config().in_memory_threshold_arcs;

  while (r.arcs > threshold) {
    ++result.phases;
    // (1) LocalMinima: priority below all alive neighbors (no shuffle —
    // each node knows its neighbors and priorities are hashes).
    std::vector<uint8_t> minima(n, 0);
    cluster.RunMapPhase("LocalMinima", n,
                        [&](int64_t v, sim::MachineContext&) {
                          if (!r.alive[v]) return;
                          for (NodeId u : r.adj[v]) {
                            if (core::VertexBefore(u, static_cast<NodeId>(v),
                                                   seed)) {
                              return;
                            }
                          }
                          minima[v] = 1;
                          result.in_mis[v] = 1;
                        });

    // (2)+(3) Mark minima and their neighborhoods for removal — the join
    // is the phase's first shuffle. Two minima in different chunks can
    // share a neighbor, so every mark is an atomic store.
    WallTimer mark_timer;
    std::vector<uint8_t> remove(n, 0);
    const auto mark = [&remove](int64_t v) {
      std::atomic_ref<uint8_t>(remove[v]).store(1, std::memory_order_relaxed);
    };
    ParallelForChunked(cluster.pool(), 0, n, 2048,
                       [&](int64_t lo, int64_t hi) {
                         for (int64_t v = lo; v < hi; ++v) {
                           if (!minima[v]) continue;
                           mark(v);
                           for (NodeId u : r.adj[v]) mark(u);
                         }
                       });
    cluster.AccountShuffle("MarkNodesToRemove", r.GraphBytes() + n,
                           mark_timer.Seconds());

    // (4)+(5) Drop removed vertices and incident edges; rebuilding the
    // graph is the phase's second shuffle.
    WallTimer rebuild_timer;
    std::atomic<int64_t> new_arcs{0};
    ParallelForChunked(
        cluster.pool(), 0, n, 2048, [&](int64_t lo, int64_t hi) {
          int64_t arcs = 0;
          for (int64_t v = lo; v < hi; ++v) {
            if (!r.alive[v]) continue;
            if (remove[v]) {
              r.alive[v] = 0;
              r.adj[v].clear();
              r.adj[v].shrink_to_fit();
              continue;
            }
            auto& list = r.adj[v];
            size_t out = 0;
            for (NodeId u : list) {
              if (!remove[u]) list[out++] = u;
            }
            list.resize(out);
            arcs += static_cast<int64_t>(out);
          }
          new_arcs.fetch_add(arcs, std::memory_order_relaxed);
        });
    r.arcs = new_arcs.load();
    cluster.AccountShuffle("RemoveNodesAndEdges", r.GraphBytes(),
                           rebuild_timer.Seconds());
  }

  // In-memory finish on the residual graph (gather + sequential greedy).
  graph::EdgeList rest;
  rest.num_nodes = n;
  for (int64_t v = 0; v < n; ++v) {
    if (!r.alive[v]) continue;
    for (NodeId u : r.adj[v]) {
      if (static_cast<NodeId>(v) < u) {
        rest.edges.push_back(graph::Edge{static_cast<NodeId>(v), u});
      }
    }
  }
  cluster.AccountInMemoryFinish(
      "InMemoryMIS", r.GraphBytes(),
      r.arcs + static_cast<int64_t>(rest.edges.size()));
  graph::Graph rest_graph = graph::BuildGraph(rest);
  std::vector<uint64_t> ranks =
      core::AllVertexRanks(cluster.pool(), n, seed);
  std::vector<uint8_t> local = seq::GreedyMis(rest_graph, ranks);
  for (int64_t v = 0; v < n; ++v) {
    if (r.alive[v] && local[v]) result.in_mis[v] = 1;
  }
  return result;
}

}  // namespace ampc::baselines
