#include "graph/ternarize.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace ampc::graph {

Ternarized TernarizeGraph(const WeightedEdgeList& list) {
  const int64_t n = list.num_nodes;
  std::vector<int64_t> deg(n, 0);
  for (const WeightedEdge& e : list.edges) {
    if (e.u == e.v) continue;  // Self-loops are never in an MSF; drop them.
    ++deg[e.u];
    ++deg[e.v];
  }

  // Block layout: vertex v occupies [block[v], block[v] + size_v) where
  // size_v = deg(v) if deg(v) > 3 else 1.
  std::vector<int64_t> block(n + 1, 0);
  for (int64_t v = 0; v < n; ++v) {
    block[v + 1] = block[v] + (deg[v] > 3 ? deg[v] : 1);
  }
  const int64_t new_n = block[n];

  Ternarized out;
  out.list.num_nodes = new_n;
  out.orig_of_node.resize(new_n);
  for (int64_t v = 0; v < n; ++v) {
    for (int64_t i = block[v]; i < block[v + 1]; ++i) {
      out.orig_of_node[i] = static_cast<NodeId>(v);
    }
  }

  // Dummies are numbered past the largest input id, which is not always
  // the list's size: a sampled list keeps its parent's ids.
  Weight min_w = std::numeric_limits<Weight>::infinity();
  for (const WeightedEdge& e : list.edges) {
    min_w = std::min(min_w, e.w);
    out.first_dummy_id = std::max(out.first_dummy_id, e.id + 1);
  }
  out.dummy_weight = list.edges.empty() ? -1.0 : min_w - 1.0;

  // Place each original edge on its endpoints' next free cycle slot.
  std::vector<int64_t> cursor(n, 0);
  out.list.edges.reserve(list.edges.size() + new_n);
  for (const WeightedEdge& e : list.edges) {
    if (e.u == e.v) continue;
    const int64_t su = deg[e.u] > 3 ? cursor[e.u]++ : 0;
    const int64_t sv = deg[e.v] > 3 ? cursor[e.v]++ : 0;
    out.list.edges.push_back(WeightedEdge{
        static_cast<NodeId>(block[e.u] + su),
        static_cast<NodeId>(block[e.v] + sv), e.w, e.id});
  }

  // Dummy cycle edges for high-degree vertices.
  EdgeId next_id = out.first_dummy_id;
  for (int64_t v = 0; v < n; ++v) {
    if (deg[v] <= 3) continue;
    for (int64_t i = 0; i < deg[v]; ++i) {
      const int64_t a = block[v] + i;
      const int64_t b = block[v] + (i + 1) % deg[v];
      out.list.edges.push_back(WeightedEdge{static_cast<NodeId>(a),
                                            static_cast<NodeId>(b),
                                            out.dummy_weight, next_id++});
    }
  }
  return out;
}

std::vector<EdgeId> StripDummyEdges(const Ternarized& t,
                                    const std::vector<EdgeId>& msf_edges) {
  std::vector<EdgeId> out;
  out.reserve(msf_edges.size());
  for (EdgeId id : msf_edges) {
    if (id < t.first_dummy_id) out.push_back(id);
  }
  return out;
}

}  // namespace ampc::graph
