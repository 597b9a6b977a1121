// Ternarization (paper Algorithm 2, line 2): replaces every vertex of
// degree > 3 with a cycle of length deg(v), attaching each incident edge
// to its own cycle vertex. Dummy cycle edges get weight strictly below the
// lightest real edge, so they all join the MSF of the ternarized graph and
// can be stripped from the output afterwards.
#pragma once

#include <vector>

#include "graph/graph.h"

namespace ampc::graph {

/// Result of ternarizing a weighted graph.
struct Ternarized {
  /// Edges of the ternarized graph. Ids < first_dummy_id are original edge
  /// ids (unchanged); ids >= first_dummy_id are dummy cycle edges.
  WeightedEdgeList list;
  /// Maps each ternarized vertex to the original vertex it represents.
  std::vector<NodeId> orig_of_node;
  /// First edge id used for dummy cycle edges: one past the largest
  /// input id (0 for an empty list).
  EdgeId first_dummy_id = 0;
  /// The weight assigned to dummy edges (below every real weight).
  Weight dummy_weight = 0;
};

/// Ternarizes `list`. Self-loops are dropped (they can never join an MSF);
/// parallel edges are kept, each on its own cycle slot. The resulting graph
/// has maximum degree <= 3 and O(num_edges) vertices.
Ternarized TernarizeGraph(const WeightedEdgeList& list);

/// Filters a ternarized MSF edge-id set back to original edge ids
/// (drops dummy edges). Ids must come from TernarizeGraph's `list`.
std::vector<EdgeId> StripDummyEdges(const Ternarized& t,
                                    const std::vector<EdgeId>& msf_edges);

}  // namespace ampc::graph
