// Graph contraction: relabel edge endpoints through a vertex -> cluster
// mapping, drop intra-cluster edges, and compact cluster ids. Used by the
// AMPC MSF contraction step (paper Algorithm 1, line 14) and the MPC
// Borůvka (Section 5.5) and local contraction (Section 5.6) baselines.
#pragma once

#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "graph/graph.h"

namespace ampc::graph {

/// The cluster numbering a contraction produced.
struct Contraction {
  /// compact[root]: the compacted id of the cluster whose root is `root`,
  /// or kInvalidNode when `root` is no cluster's root or its cluster
  /// became isolated (no surviving incident edge) — such clusters are
  /// removed, matching "with isolated vertices removed" in Algorithm 1.
  std::vector<NodeId> compact;
  /// For each compacted cluster, its root.
  std::vector<NodeId> representative;

  int64_t num_nodes() const {
    return static_cast<int64_t>(representative.size());
  }
};

/// Contracts `records` according to `cluster_of` (vertex -> cluster root;
/// the mapping need not be compact), in place. A record is any struct
/// with NodeId members `u` and `v`: each surviving record keeps every
/// other member and its input order, and its endpoints become compacted
/// cluster ids. Parallel edges are kept (the MSF algorithms tolerate
/// them); self-loops are removed.
///
/// - Precondition: every root is a vertex, i.e.
///   `cluster_of[v] < cluster_of.size()` (checked).
/// - Cluster ids are numbered in order of first appearance on a surviving
///   record: records in input order, u before v within a record. Later
///   phases of the MPC baselines color and hook by these ids, so their
///   charged costs depend on this numbering.
/// - The surviving records overwrite the vector's prefix, which is safe
///   because the write index never passes the read index, and the vector
///   is then truncated to them.
template <typename Record>
Contraction Contract(std::vector<Record>& records,
                     const std::vector<NodeId>& cluster_of) {
  const size_t n = cluster_of.size();
  for (const NodeId root : cluster_of) AMPC_CHECK_LT(root, n);
  Contraction out;
  out.compact.assign(n, kInvalidNode);
  auto compact_id = [&](NodeId root) {
    NodeId& id = out.compact[root];
    if (id == kInvalidNode) {
      id = static_cast<NodeId>(out.representative.size());
      out.representative.push_back(root);
    }
    return id;
  };

  size_t kept = 0;
  for (size_t i = 0; i < records.size(); ++i) {
    Record r = records[i];
    const NodeId ru = cluster_of[r.u];
    const NodeId rv = cluster_of[r.v];
    if (ru == rv) continue;
    r.u = compact_id(ru);
    r.v = compact_id(rv);
    records[kept++] = r;
  }
  records.resize(kept);
  return out;
}

}  // namespace ampc::graph
