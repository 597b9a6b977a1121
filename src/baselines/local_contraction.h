// MPC baseline: connected components via local contractions —
// the stand-in for CC-LocalContraction [Lacki, Mirrokni, Wlodarczyk],
// which the paper uses as the MPC side of the 1-vs-2-Cycle comparison
// (Section 5.6).
//
// Per iteration every vertex hooks to its minimum-rank neighbor when that
// neighbor precedes it in the permutation; the resulting trees are
// contracted (three shuffles, as in the paper's contraction routine). On
// a cycle the survivors are exactly the local rank minima, ~n/3 of the
// vertices, matching the paper's observed 2.59-3x shrink per iteration.
//
// On the host the iterations work on 8-byte graph::Edge records, and each
// iteration ranks its vertices once (core::AllVertexRanks). Charges price
// every edge as the 24-byte WeightedEdge record the modeled job ships.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "sim/cluster.h"

namespace ampc::baselines {

struct LocalContractionResult {
  /// component[v] = representative vertex id of v's component.
  std::vector<graph::NodeId> component;
  int64_t num_components = 0;
  int iterations = 0;
};

/// Connected components of an arbitrary undirected graph.
LocalContractionResult MpcLocalContractionCC(sim::Cluster& cluster,
                                             const graph::EdgeList& list,
                                             uint64_t seed);

/// 1-vs-2-Cycle answered through MpcLocalContractionCC (the number of
/// components of a union of cycles is the number of cycles).
int MpcOneVsTwoCycle(sim::Cluster& cluster, const graph::EdgeList& list,
                     uint64_t seed);

}  // namespace ampc::baselines
