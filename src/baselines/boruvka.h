// MPC baseline: Borůvka's Minimum Spanning Forest (paper Section 5.5).
//
// Each phase: every vertex colors itself red or blue at random; every
// blue vertex finds its minimum-order incident edge and, when the other
// endpoint is red, contracts into it. Each phase costs three shuffles
// (the contraction), and only shrinks the vertex count by a constant
// factor — the paper observed 11-28 phases (33-84 shuffles). Below the
// threshold an in-memory Kruskal finishes.
//
// On the host the phases work on 12-byte {u, v, input position} arcs and
// read weights and ids from the input list; the min-edge pass keeps each
// vertex's lightest (w, id, arc) in a vertex-sized array. Charges price
// every arc as the 24-byte WeightedEdge record the modeled job ships.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "sim/cluster.h"

namespace ampc::baselines {

struct BoruvkaResult {
  /// MSF edge ids (into the input list), sorted.
  std::vector<graph::EdgeId> edges;
  int phases = 0;
};

BoruvkaResult MpcBoruvkaMsf(sim::Cluster& cluster,
                            const graph::WeightedEdgeList& list,
                            uint64_t seed);

}  // namespace ampc::baselines
