// Quickstart: build a graph, spin up a simulated AMPC cluster, and run
// the four headline algorithms — connected components, minimum spanning
// forest, maximal independent set and maximal matching — printing the
// results together with the model-level cost metrics (rounds, shuffles,
// KV communication) that the paper's evaluation is built on. Each result
// is checked against a sequential oracle; the example exits 1 if any
// check fails.
//
// Run:  ./build/examples/quickstart
#include <cstdio>

#include "core/connectivity.h"
#include "core/matching.h"
#include "core/mis.h"
#include "core/msf.h"
#include "graph/generators.h"
#include "graph/stats.h"
#include "seq/greedy.h"
#include "seq/msf.h"

int main() {
  using namespace ampc;

  // 1. Make a graph. Any EdgeList works: load one with graph::ReadEdgeListText,
  //    or generate one. Here: a power-law RMAT graph, like a small social
  //    network.
  graph::EdgeList edges = graph::GenerateRmat(/*log2_nodes=*/14,
                                              /*num_edges=*/200'000,
                                              /*seed=*/1);
  graph::Graph g = graph::BuildGraph(edges);
  const graph::GraphStats stats = graph::ComputeStats(g);
  std::printf("graph: %s\n", stats.ToString().c_str());
  bool ok = true;

  // 2. Configure the simulated AMPC cluster: 8 logical machines, 8 worker
  //    threads each, RDMA-cost network, caching + multithreading on.
  sim::ClusterConfig config;
  config.num_machines = 8;
  config.threads_per_machine = 8;
  config.in_memory_threshold_arcs = g.num_arcs() / 100;

  // 3. Connected components in O(1) rounds (Theorem 1).
  {
    sim::Cluster cluster(config);
    core::ConnectivityResult cc = core::AmpcConnectivity(cluster, edges);
    std::printf("connectivity: %lld components, %lld shuffles, sim %.2fs\n",
                static_cast<long long>(cc.num_components),
                static_cast<long long>(cluster.metrics().Get("shuffles")),
                cluster.SimSeconds());
    ok &= cc.num_components == stats.num_components;
  }

  // 4. Minimum spanning forest with the paper's degree weighting.
  {
    sim::Cluster cluster(config);
    graph::WeightedEdgeList weighted = graph::MakeDegreeWeighted(edges, g);
    core::MsfResult msf = core::AmpcMsf(cluster, weighted);
    std::printf(
        "msf: %zu edges, total weight %.0f, %d contraction round(s), "
        "max pointer-jump chain %lld\n",
        msf.edges.size(), seq::TotalWeight(weighted, msf.edges), msf.rounds,
        static_cast<long long>(msf.max_jump_chain));
    ok &= seq::IsSpanningForest(weighted, msf.edges) &&
          seq::TotalWeight(weighted, msf.edges) ==
              seq::TotalWeight(weighted, seq::KruskalMsf(weighted));
  }

  // 5. Maximal independent set (Figure 1) — one shuffle total.
  {
    sim::Cluster cluster(config);
    core::MisResult mis = core::AmpcMis(cluster, g, /*seed=*/42);
    int64_t size = 0;
    for (uint8_t bit : mis.in_mis) size += bit;
    std::printf("mis: %lld vertices, %lld shuffles, %lld KV reads "
                "(%lld cache hits)\n",
                static_cast<long long>(size),
                static_cast<long long>(cluster.metrics().Get("shuffles")),
                static_cast<long long>(cluster.metrics().Get("kv_reads")),
                static_cast<long long>(cluster.metrics().Get("cache_hits")));
    ok &= seq::IsMaximalIndependentSet(g, mis.in_mis);
  }

  // 6. Maximal matching (Theorem 2, O(1) rounds).
  {
    sim::Cluster cluster(config);
    core::MatchingResult mm = core::AmpcMatching(cluster, g);
    int64_t matched = 0;
    for (graph::NodeId p : mm.partner) matched += (p != graph::kInvalidNode);
    std::printf("matching: %lld matched vertices (%lld edges), sim %.2fs\n",
                static_cast<long long>(matched),
                static_cast<long long>(matched / 2), cluster.SimSeconds());
    graph::EdgeList simple;
    simple.num_nodes = g.num_nodes();
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      for (graph::NodeId u : g.neighbors(v)) {
        if (v < u) simple.edges.push_back(graph::Edge{v, u});
      }
    }
    ok &= seq::IsMaximalMatching(
        simple, core::ToSeqMatching(simple, mm.partner).edges);
  }
  std::printf("checked against the sequential oracles: %s\n",
              ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
