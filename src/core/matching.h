// AMPC Maximal Matching (paper Section 4, Theorem 2; implementation
// Section 5.4).
//
// Both variants compute the lexicographically-first maximal matching over
// the random edge permutation induced by core::EdgeRank, so their outputs
// equal seq::GreedyMaximalMatching for the same seed.
//
//  * AmpcMatching — Theorem 2 part 2: O(1) rounds. One shuffle builds the
//    rank-sorted adjacency (PermuteGraph), one cheap round writes it to
//    the DHT, then vertex-rooted truncated query processes (the paper's
//    IsInMM) resolve every vertex. Per-machine caches (kv::QueryCache
//    instances from Cluster::MakeMachineCaches) store, per vertex,
//    either its matched partner or the highest-rank neighbor up to which
//    all incident edges are known to be out of the matching — exactly the
//    per-vertex cache described in Section 5.4.
//
//  * AmpcMatchingSampled — Theorem 2 part 1 / Algorithm 4: O(log log n)
//    rounds. Iteration i matches the greedy matching of the subgraph H_i
//    holding the globally lowest-ranked edges (rank <= Delta_i^{-1/2}),
//    then deletes matched vertices; Proposition 4.3 drives the maximum
//    degree doubly-exponentially down.
#pragma once

#include <cstdint>
#include <vector>

#include "core/priorities.h"
#include "graph/graph.h"
#include "seq/greedy.h"
#include "sim/cluster.h"

namespace ampc::core {

struct MatchingOptions {
  uint64_t seed = 42;
  /// Per-vertex query budget (the n^epsilon truncation of Lemma 4.7).
  /// 0 disables truncation — the practical single-pass configuration of
  /// Section 5.4.
  int64_t max_queries_per_vertex = 0;
  /// Safety cap on query-process repetitions (Lemma 4.7 needs O(1/eps)).
  int max_phases = 64;
  /// Optional major sort key for the edge permutation: every edge in a
  /// lower bucket precedes every edge in a higher bucket; the random rank
  /// breaks ties within a bucket. Edges missing from the map default to
  /// bucket 0. The Corollary 4.1 weighted-matching reduction supplies
  /// descending weight classes here. Must outlive the call.
  const EdgeBucketMap* edge_buckets = nullptr;
};

struct MatchingResult {
  /// partner[v] = matched neighbor, or graph::kInvalidNode.
  std::vector<graph::NodeId> partner;
  /// Number of IsInMM phases executed (1 unless truncation kicked in).
  int phases = 0;
};

/// O(1)-round maximal matching (Theorem 2 part 2).
MatchingResult AmpcMatching(sim::Cluster& cluster, const graph::Graph& g,
                            const MatchingOptions& options = {});

/// O(log log n)-round edge-sampling maximal matching (Algorithm 4).
MatchingResult AmpcMatchingSampled(sim::Cluster& cluster,
                                   const graph::Graph& g,
                                   const MatchingOptions& options = {});

/// Converts a partner array into edge ids of `list` (for comparison with
/// seq::GreedyMaximalMatching and validity checks).
seq::MatchingResult ToSeqMatching(const graph::EdgeList& list,
                                  const std::vector<graph::NodeId>& partner);

}  // namespace ampc::core
