#include "graph/contraction.h"

#include "common/logging.h"

namespace ampc::graph {

ContractedGraph ContractEdgeList(WeightedEdgeList list,
                                 const std::vector<NodeId>& cluster_of) {
  AMPC_CHECK_EQ(static_cast<int64_t>(cluster_of.size()), list.num_nodes);
  for (const NodeId root : cluster_of) AMPC_CHECK_LT(root, list.num_nodes);
  ContractedGraph out;

  // Compact cluster ids that appear on at least one surviving edge, in
  // order of first appearance.
  std::vector<NodeId> compact(list.num_nodes, kInvalidNode);
  auto compact_id = [&](NodeId root) {
    NodeId& id = compact[root];
    if (id == kInvalidNode) {
      id = static_cast<NodeId>(out.representative.size());
      out.representative.push_back(root);
    }
    return id;
  };

  // Surviving edges overwrite the list's own prefix: the write index never
  // passes the read index.
  size_t kept = 0;
  for (size_t i = 0; i < list.edges.size(); ++i) {
    const WeightedEdge e = list.edges[i];
    const NodeId ru = cluster_of[e.u];
    const NodeId rv = cluster_of[e.v];
    if (ru == rv) continue;
    list.edges[kept++] =
        WeightedEdge{compact_id(ru), compact_id(rv), e.w, e.id};
  }
  list.edges.resize(kept);

  out.compact_of_vertex.resize(list.num_nodes);
  for (int64_t v = 0; v < list.num_nodes; ++v) {
    out.compact_of_vertex[v] = compact[cluster_of[v]];
  }
  list.num_nodes = static_cast<int64_t>(out.representative.size());
  out.list = std::move(list);
  return out;
}

}  // namespace ampc::graph
