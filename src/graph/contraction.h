// Graph contraction: relabel edge endpoints through a vertex -> cluster
// mapping, drop intra-cluster edges, and compact cluster ids. Used by the
// AMPC MSF contraction step (paper Algorithm 1, line 14) and the MPC
// Borůvka baseline (Section 5.5).
#pragma once

#include <vector>

#include "graph/graph.h"

namespace ampc::graph {

/// Result of contracting a weighted edge list.
struct ContractedGraph {
  /// Surviving inter-cluster edges with compacted endpoints; edge ids and
  /// weights are preserved from the input.
  WeightedEdgeList list;
  /// Maps each original vertex to its compacted cluster id, or
  /// kInvalidNode for vertices whose cluster became isolated (no
  /// surviving incident edge) — such clusters are removed, matching
  /// "with isolated vertices removed" in Algorithm 1.
  std::vector<NodeId> compact_of_vertex;
  /// For each compacted cluster, a representative original vertex.
  std::vector<NodeId> representative;
};

/// Contracts `list` according to `cluster_of` (vertex -> cluster root; the
/// mapping need not be compact). Parallel edges are kept (the MSF
/// algorithms tolerate them); self-loops are removed.
///
/// - Precondition: every root is a vertex of `list`, i.e.
///   `cluster_of[v] < list.num_nodes` (checked).
/// - Cluster ids are numbered in order of first appearance on a surviving
///   edge: edges in input order, u before v within an edge. Later phases
///   of the MPC baselines color and hook by these ids, so their charged
///   costs depend on this numbering.
/// - `list` is taken by value and rewritten in place: the surviving,
///   relabeled edges overwrite its prefix and it becomes `out.list`.
///   Callers that no longer need their list pass it with `std::move` and
///   pay no copy.
ContractedGraph ContractEdgeList(WeightedEdgeList list,
                                 const std::vector<NodeId>& cluster_of);

}  // namespace ampc::graph
