// AMPC k-core decomposition — the Section 5.7 "Sub-structure Extraction"
// extension study ("It would be interesting to study whether we can solve
// these problems [in] O(1) rounds in the AMPC model").
//
// Both engines run the h-index fixpoint of Lü et al. (Nature Comm. 2016):
// start every vertex at its degree and repeatedly replace each value with
// the h-index of its neighbors' values; the fixpoint is exactly the
// coreness. The iteration counts are identical by construction — what
// changes is the cost of a round:
//
//   * AmpcKCore stages the adjacency in the DHT once (1 shuffle), then
//     every iteration is a cheap KV-write of the current values plus a
//     map round whose lookups hit the DHT — zero further shuffles.
//   * baselines::MpcKCore (see baselines/mpc_kcore.h) must join values
//     onto adjacency with a GroupByKey every iteration — one shuffle per
//     iteration, the same pattern as the paper's MPC MIS/MM baselines.
//
// The fixpoint needs at most O(n) iterations (tight on paths); on the
// skewed graphs of the evaluation it converges in a few dozen.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "sim/cluster.h"

namespace ampc::core {

struct KCoreOptions {
  /// Safety cap on h-index iterations (n + 1 always suffices).
  int max_iterations = 1 << 20;
};

struct KCoreResult {
  /// coreness[v] = largest k such that v is in the k-core.
  std::vector<int32_t> coreness;
  /// h-index iterations until fixpoint.
  int iterations = 0;
};

/// Exact core decomposition on the AMPC cluster.
KCoreResult AmpcKCore(sim::Cluster& cluster, const graph::Graph& g,
                      const KCoreOptions& options = {});

/// Computes the h-index of `values`: the largest h with at least h
/// entries >= h. Exposed for tests and the MPC baseline.
int32_t HIndex(std::span<const int32_t> values);

}  // namespace ampc::core
