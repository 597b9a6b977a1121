// Reference contraction for tests: numbers clusters through a hash map,
// in order of first appearance, as graph::Contract must, and returns the
// contracted records in a new vector.
#pragma once

#include <unordered_map>
#include <vector>

#include "graph/graph.h"

namespace ampc::graph {

template <typename Record>
struct ReferenceContraction {
  std::vector<Record> records;
  /// Each vertex's compacted cluster id, or kInvalidNode when its cluster
  /// became isolated.
  std::vector<NodeId> compact_of_vertex;
  std::vector<NodeId> representative;
};

template <typename Record>
ReferenceContraction<Record> HashMapContract(
    const std::vector<Record>& records, const std::vector<NodeId>& cluster_of) {
  ReferenceContraction<Record> out;
  std::unordered_map<NodeId, NodeId> compact;
  auto compact_id = [&](NodeId root) {
    auto [it, fresh] =
        compact.emplace(root, static_cast<NodeId>(compact.size()));
    if (fresh) out.representative.push_back(root);
    return it->second;
  };
  for (const Record& r : records) {
    const NodeId ru = cluster_of[r.u];
    const NodeId rv = cluster_of[r.v];
    if (ru == rv) continue;
    Record relabeled = r;
    relabeled.u = compact_id(ru);
    relabeled.v = compact_id(rv);
    out.records.push_back(relabeled);
  }
  out.compact_of_vertex.assign(cluster_of.size(), kInvalidNode);
  for (size_t v = 0; v < cluster_of.size(); ++v) {
    auto it = compact.find(cluster_of[v]);
    if (it != compact.end()) out.compact_of_vertex[v] = it->second;
  }
  return out;
}

}  // namespace ampc::graph
