// Synthetic graph generators.
//
// The paper evaluates on five real-world graphs (com-Orkut, Twitter,
// Friendster, ClueWeb, Hyperlink2012) plus synthetic 2xk double cycles.
// The real datasets are multi-terabyte web/social crawls we cannot ship,
// so the benchmark harness substitutes structural stand-ins generated
// here: RMAT graphs matched to each dataset's size ratio and degree skew
// (social graphs: lightly skewed; web graphs: heavily skewed with
// multi-million-degree hubs), and exact 2xk cycles for Section 5.6.
// DESIGN.md and EXPERIMENTS.md record the substitution.
#pragma once

#include <cstdint>

#include "graph/graph.h"

namespace ampc::graph {

/// G(n, m) Erdős–Rényi multigraph: m edges sampled uniformly (dedup at
/// build time).
EdgeList GenerateErdosRenyi(int64_t num_nodes, int64_t num_edges,
                            uint64_t seed);

/// Parameters of the recursive-matrix (R-MAT) generator.
struct RmatOptions {
  double a = 0.57;
  double b = 0.19;
  double c = 0.19;  // d = 1 - a - b - c
  /// Permute node ids so degree correlates with nothing (avoids locality
  /// artifacts in partitioned runtimes).
  bool scramble_ids = true;
};

/// R-MAT graph over 2^log2_nodes vertices with num_edges samples. With the
/// default parameters this yields the heavy-tailed degree distributions
/// typical of social/web graphs. Fills chunks of edges concurrently on
/// ThreadPool::Global(); the edge list is one seeded stream's, the same on
/// any pool.
EdgeList GenerateRmat(int log2_nodes, int64_t num_edges, uint64_t seed,
                      const RmatOptions& options = {});

/// A single cycle 0-1-2-...-(n-1)-0.
EdgeList GenerateCycle(int64_t num_nodes);

/// Two disjoint cycles of k vertices each — the paper's "2 x k" family
/// used by the 1-vs-2-Cycle experiments (Section 5.6).
EdgeList GenerateDoubleCycle(int64_t k);

/// Simple path 0-1-...-(n-1).
EdgeList GeneratePath(int64_t num_nodes);

/// rows x cols grid with 4-neighbor connectivity.
EdgeList GenerateGrid(int64_t rows, int64_t cols);

/// Uniform random recursive tree: node i attaches to a uniform node < i.
EdgeList GenerateRandomTree(int64_t num_nodes, uint64_t seed);

/// Random forest: `num_trees` disjoint random trees of roughly equal size.
EdgeList GenerateRandomForest(int64_t num_nodes, int64_t num_trees,
                              uint64_t seed);

/// Star with center 0 and n-1 leaves.
EdgeList GenerateStar(int64_t num_nodes);

/// Complete graph K_n (use only for tiny n).
EdgeList GenerateComplete(int64_t num_nodes);

/// Random tree with every vertex of degree <= 3 (binary-ish), used to
/// exercise the ternary-treap analysis paths.
EdgeList GenerateRandomTernaryTree(int64_t num_nodes, uint64_t seed);

}  // namespace ampc::graph
