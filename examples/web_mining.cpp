// Web-graph mining with the Section 5.7 extension algorithms: given a
// skewed web-like crawl, find its dense community core with k-core
// decomposition and its most authoritative pages with Monte-Carlo
// PageRank — both on the AMPC cluster, both with a single graph-staging
// shuffle, and both cross-checked against their exact counterparts. It
// exits 1 if the k-core decomposition differs from sequential peeling.
//
// Run:  ./build/examples/web_mining
#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/kcore.h"
#include "core/pagerank.h"
#include "graph/generators.h"
#include "seq/kcore.h"
#include "seq/pagerank.h"

int main() {
  using namespace ampc;

  // A web-like crawl: RMAT with heavy skew (default parameters mirror
  // the hub-dominated degree profile of the paper's CW/HL inputs).
  const graph::EdgeList edges = graph::GenerateRmat(16, 600'000, 2012);
  const graph::Graph g = graph::BuildGraph(edges);
  std::printf("crawl: %lld pages, %lld links, max degree %lld\n",
              static_cast<long long>(g.num_nodes()),
              static_cast<long long>(g.num_arcs()),
              static_cast<long long>(g.max_degree()));

  sim::ClusterConfig config;
  config.num_machines = 8;
  sim::Cluster cluster(config);

  // --- dense-community extraction ---------------------------------------
  const core::KCoreResult cores = core::AmpcKCore(cluster, g);
  const int32_t degeneracy = seq::Degeneracy(cores.coreness);
  const std::vector<graph::NodeId> community =
      seq::KCoreVertices(cores.coreness, degeneracy);
  std::printf(
      "k-core: degeneracy %d, innermost core has %zu pages "
      "(%d h-index rounds, %lld shuffles so far)\n",
      degeneracy, community.size(), cores.iterations,
      static_cast<long long>(cluster.metrics().Get("shuffles")));

  // --- authority scoring --------------------------------------------------
  core::PageRankMcOptions pr_options;
  pr_options.walks_per_node = 24;
  const core::PageRankMcResult pr =
      core::AmpcMonteCarloPageRank(cluster, g, pr_options);

  std::vector<graph::NodeId> by_rank(g.num_nodes());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) by_rank[v] = v;
  std::sort(by_rank.begin(), by_rank.end(),
            [&](graph::NodeId a, graph::NodeId b) {
              return pr.rank[a] > pr.rank[b];
            });
  std::printf("top pages by Monte-Carlo PageRank (%lld walk steps):\n",
              static_cast<long long>(pr.total_steps));
  for (int i = 0; i < 5; ++i) {
    const graph::NodeId v = by_rank[i];
    std::printf("  #%d page %8u  rank %.5f  degree %lld  coreness %d\n",
                i + 1, v, pr.rank[v], static_cast<long long>(g.degree(v)),
                cores.coreness[v]);
  }

  // --- cross-checks ---------------------------------------------------------
  const bool cores_exact = cores.coreness == seq::CoreDecomposition(g);
  std::printf("k-core equals sequential peeling: %s\n",
              cores_exact ? "yes" : "NO");

  const seq::PageRankResult exact_pr = seq::PageRankExact(g);
  std::printf("PageRank L1 error vs exact power iteration: %.4f\n",
              seq::L1Distance(pr.rank, exact_pr.rank));
  int agree = 0;
  std::vector<graph::NodeId> exact_order(g.num_nodes());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) exact_order[v] = v;
  std::sort(exact_order.begin(), exact_order.end(),
            [&](graph::NodeId a, graph::NodeId b) {
              return exact_pr.rank[a] > exact_pr.rank[b];
            });
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 5; ++j) agree += by_rank[i] == exact_order[j];
  }
  std::printf("top-5 overlap with exact ranking: %d/5\n", agree);

  std::printf(
      "total cost: %lld shuffles, %.2f simulated seconds — every "
      "iteration after graph staging ran against the DHT\n",
      static_cast<long long>(cluster.metrics().Get("shuffles")),
      cluster.SimSeconds());
  return cores_exact ? 0 : 1;
}
