#include "graph/graph.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/random.h"
#include "common/thread_pool.h"

namespace ampc::graph {
namespace {

// Computes per-node arc counts for a symmetrized edge list.
std::vector<uint64_t> CountDegrees(int64_t n, std::span<const NodeId> us,
                                   std::span<const NodeId> vs,
                                   bool remove_self_loops) {
  std::vector<uint64_t> deg(n, 0);
  for (size_t i = 0; i < us.size(); ++i) {
    if (remove_self_loops && us[i] == vs[i]) continue;
    ++deg[us[i]];
    ++deg[vs[i]];
  }
  return deg;
}

std::vector<uint64_t> ExclusiveScan(const std::vector<uint64_t>& deg) {
  std::vector<uint64_t> offsets(deg.size() + 1, 0);
  for (size_t i = 0; i < deg.size(); ++i) offsets[i + 1] = offsets[i] + deg[i];
  return offsets;
}

}  // namespace

int64_t Graph::max_degree() const {
  int64_t best = 0;
  for (int64_t v = 0; v < num_nodes(); ++v) {
    best = std::max(best, degree(static_cast<NodeId>(v)));
  }
  return best;
}

int64_t WeightedGraph::max_degree() const {
  int64_t best = 0;
  for (int64_t v = 0; v < num_nodes(); ++v) {
    best = std::max(best, degree(static_cast<NodeId>(v)));
  }
  return best;
}

Graph BuildGraph(const EdgeList& list, const BuildOptions& options) {
  const int64_t n = list.num_nodes;
  for (const Edge& e : list.edges) {
    AMPC_CHECK_LT(e.u, n);
    AMPC_CHECK_LT(e.v, n);
  }
  std::vector<NodeId> us(list.edges.size()), vs(list.edges.size());
  for (size_t i = 0; i < list.edges.size(); ++i) {
    us[i] = list.edges[i].u;
    vs[i] = list.edges[i].v;
  }

  std::vector<uint64_t> deg =
      CountDegrees(n, us, vs, options.remove_self_loops);
  std::vector<uint64_t> offsets = ExclusiveScan(deg);

  // One global sort keyed by (owner, neighbor) replaces per-vertex sorts:
  // a hub vertex's adjacency no longer sorts on a single thread, so
  // skewed degree distributions parallelize as well as uniform ones.
  struct DirArc {
    NodeId from;
    NodeId to;
  };
  std::vector<DirArc> arcs;
  arcs.reserve(offsets.back());
  for (size_t i = 0; i < us.size(); ++i) {
    if (options.remove_self_loops && us[i] == vs[i]) continue;
    arcs.push_back(DirArc{us[i], vs[i]});
    arcs.push_back(DirArc{vs[i], us[i]});
  }
  ParallelSort(ThreadPool::Global(), arcs,
               [](const DirArc& a, const DirArc& b) {
                 if (a.from != b.from) return a.from < b.from;
                 return a.to < b.to;
               });
  std::vector<NodeId> adjacency(offsets.back());
  ParallelForChunked(ThreadPool::Global(), 0,
                     static_cast<int64_t>(arcs.size()), 4096,
                     [&](int64_t lo, int64_t hi) {
                       for (int64_t i = lo; i < hi; ++i) {
                         adjacency[i] = arcs[i].to;
                       }
                     });

  Graph g;
  if (!options.dedup) {
    g.offsets_ = std::move(offsets);
    g.adjacency_ = std::move(adjacency);
    return g;
  }

  // Dedup within each sorted adjacency, then compact.
  std::vector<uint64_t> new_deg(n, 0);
  for (int64_t v = 0; v < n; ++v) {
    auto begin = adjacency.begin() + offsets[v];
    auto end = adjacency.begin() + offsets[v + 1];
    new_deg[v] = static_cast<uint64_t>(std::unique(begin, end) - begin);
  }
  std::vector<uint64_t> new_offsets = ExclusiveScan(new_deg);
  std::vector<NodeId> compact(new_offsets.back());
  for (int64_t v = 0; v < n; ++v) {
    std::copy_n(adjacency.begin() + offsets[v], new_deg[v],
                compact.begin() + new_offsets[v]);
  }
  g.offsets_ = std::move(new_offsets);
  g.adjacency_ = std::move(compact);
  return g;
}

WeightedGraph BuildWeightedGraph(const WeightedEdgeList& list,
                                 const BuildOptions& options) {
  const int64_t n = list.num_nodes;
  for (const WeightedEdge& e : list.edges) {
    AMPC_CHECK_LT(e.u, n);
    AMPC_CHECK_LT(e.v, n);
  }

  // One global sort keyed by (owner, weight, id) instead of per-vertex
  // sorts, for the same skew-robustness as BuildGraph above; the neighbor
  // id last makes the order total.
  struct Arc {
    NodeId from;
    NodeId to;
    Weight w;
    EdgeId id;
  };
  std::vector<Arc> arcs;
  arcs.reserve(2 * list.edges.size());
  for (const WeightedEdge& e : list.edges) {
    if (options.remove_self_loops && e.u == e.v) continue;
    arcs.push_back(Arc{e.u, e.v, e.w, e.id});
    arcs.push_back(Arc{e.v, e.u, e.w, e.id});
  }
  ParallelSort(ThreadPool::Global(), arcs,
               [](const Arc& a, const Arc& b) {
                 if (a.from != b.from) return a.from < b.from;
                 if (a.w != b.w) return a.w < b.w;
                 if (a.id != b.id) return a.id < b.id;
                 return a.to < b.to;
               });

  // Dedup keeps each neighbor's first arc in that order, which is the
  // lightest of its parallel arcs; seen[to] == from marks a neighbor
  // already kept. Compacts `arcs` in place.
  std::vector<uint64_t> deg(n, 0);
  std::vector<NodeId> seen(options.dedup ? n : 0, kInvalidNode);
  size_t kept = 0;
  for (size_t i = 0; i < arcs.size(); ++i) {
    const Arc arc = arcs[i];
    if (options.dedup) {
      if (seen[arc.to] == arc.from) continue;
      seen[arc.to] = arc.from;
    }
    ++deg[arc.from];
    arcs[kept++] = arc;
  }

  WeightedGraph g;
  g.offsets_ = ExclusiveScan(deg);
  g.adjacency_.resize(kept);
  g.weights_.resize(kept);
  g.edge_ids_.resize(kept);
  ParallelForChunked(ThreadPool::Global(), 0, static_cast<int64_t>(kept), 4096,
                     [&](int64_t lo, int64_t hi) {
                       for (int64_t i = lo; i < hi; ++i) {
                         g.adjacency_[i] = arcs[i].to;
                         g.weights_[i] = arcs[i].w;
                         g.edge_ids_[i] = arcs[i].id;
                       }
                     });
  return g;
}

Weight WeightedGraph::MinWeight() const {
  Weight best = 0;
  bool any = false;
  for (size_t i = 0; i < weights_.size(); ++i) {
    if (!any || weights_[i] < best) {
      best = weights_[i];
      any = true;
    }
  }
  return best;
}

WeightedEdgeList MakeDegreeWeighted(const EdgeList& list, const Graph& g) {
  WeightedEdgeList out;
  out.num_nodes = list.num_nodes;
  out.edges.reserve(list.edges.size());
  for (size_t i = 0; i < list.edges.size(); ++i) {
    const Edge& e = list.edges[i];
    out.edges.push_back(WeightedEdge{
        e.u, e.v, static_cast<Weight>(g.degree(e.u) + g.degree(e.v)),
        static_cast<EdgeId>(i)});
  }
  return out;
}

WeightedEdgeList MakeRandomWeighted(const EdgeList& list, uint64_t seed) {
  WeightedEdgeList out;
  out.num_nodes = list.num_nodes;
  out.edges.reserve(list.edges.size());
  for (size_t i = 0; i < list.edges.size(); ++i) {
    const Edge& e = list.edges[i];
    out.edges.push_back(WeightedEdge{
        e.u, e.v, ToUnitDouble(HashEdge(e.u, e.v, seed)),
        static_cast<EdgeId>(i)});
  }
  return out;
}

WeightedEdgeList MakeUnitWeighted(const EdgeList& list) {
  WeightedEdgeList out;
  out.num_nodes = list.num_nodes;
  out.edges.reserve(list.edges.size());
  for (size_t i = 0; i < list.edges.size(); ++i) {
    const Edge& e = list.edges[i];
    out.edges.push_back(WeightedEdge{e.u, e.v, 1.0, static_cast<EdgeId>(i)});
  }
  return out;
}

EdgeList StripWeights(const WeightedEdgeList& list) {
  EdgeList out;
  out.num_nodes = list.num_nodes;
  out.edges.reserve(list.edges.size());
  for (const WeightedEdge& e : list.edges) out.edges.push_back(Edge{e.u, e.v});
  return out;
}

}  // namespace ampc::graph
