// Social-network analysis: the workload family motivating the paper's
// evaluation (com-Orkut / Twitter / Friendster). On a synthetic social
// graph this example computes:
//   * connected components and the giant-component fraction,
//   * a maximal independent set (a spam-resistant seed set: no two seeds
//     are friends),
//   * a maximal matching and the induced 2-approximate vertex cover
//     (moderation targets covering every edge, Corollary 4.1),
// and compares the AMPC cost against the MPC baselines on the same data.
// It exits 1 if the AMPC and MPC MIS differ.
//
// Run:  ./build/examples/social_network_analysis
#include <cstdio>

#include "baselines/rootset_mis.h"
#include "core/connectivity.h"
#include "core/matching.h"
#include "core/mis.h"
#include "graph/generators.h"
#include "graph/stats.h"
#include "seq/greedy.h"

int main() {
  using namespace ampc;
  constexpr uint64_t kSeed = 7;

  // A 65k-vertex power-law network with ~1M friendships.
  graph::EdgeList edges = graph::GenerateRmat(16, 1'000'000, kSeed);
  graph::Graph g = graph::BuildGraph(edges);
  graph::GraphStats stats = graph::ComputeStats(g);
  std::printf("network: %s\n", stats.ToString().c_str());

  sim::ClusterConfig config;
  config.num_machines = 8;
  config.in_memory_threshold_arcs = g.num_arcs() / 100;

  // Community structure: component census.
  {
    sim::Cluster cluster(config);
    core::ConnectivityResult cc = core::AmpcConnectivity(cluster, edges);
    std::printf("components: %lld; giant component %.1f%% of users\n",
                static_cast<long long>(cc.num_components),
                100.0 * stats.largest_component / stats.num_nodes);
  }

  // Seed users for a campaign: no two seeds may know each other.
  int64_t seeds = 0;
  {
    sim::Cluster cluster(config);
    core::MisResult mis = core::AmpcMis(cluster, g, kSeed);
    for (uint8_t bit : mis.in_mis) seeds += bit;
    std::printf("independent seed set: %lld users (%.1f%%), "
                "found in %lld shuffle(s)\n",
                static_cast<long long>(seeds),
                100.0 * seeds / stats.num_nodes,
                static_cast<long long>(cluster.metrics().Get("shuffles")));
  }

  // Moderation: a vertex cover touching every friendship, via matching.
  {
    sim::Cluster cluster(config);
    core::MatchingResult mm = core::AmpcMatching(cluster, g);
    graph::EdgeList simple;
    simple.num_nodes = g.num_nodes();
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      for (graph::NodeId u : g.neighbors(v)) {
        if (v < u) simple.edges.push_back(graph::Edge{v, u});
      }
    }
    seq::MatchingResult as_edges = core::ToSeqMatching(simple, mm.partner);
    std::vector<graph::NodeId> cover =
        seq::VertexCoverFromMatching(simple, as_edges);
    std::printf("matching: %zu pairs; vertex cover (2-approx): %zu users "
                "covering all %zu friendships\n",
                as_edges.edges.size(), cover.size(), simple.edges.size());
  }

  // AMPC vs MPC on this network: same MIS, different cost.
  {
    sim::Cluster ampc_cluster(config);
    core::MisResult ampc = core::AmpcMis(ampc_cluster, g, kSeed);
    sim::Cluster mpc_cluster(config);
    baselines::RootsetMisResult mpc =
        baselines::MpcRootsetMis(mpc_cluster, g, kSeed);
    const bool identical = ampc.in_mis == mpc.in_mis;
    std::printf(
        "AMPC vs MPC MIS: identical output: %s | shuffles %lld vs %lld | "
        "simulated time %.2fs vs %.2fs (%.2fx)\n",
        identical ? "yes" : "NO (bug!)",
        static_cast<long long>(ampc_cluster.metrics().Get("shuffles")),
        static_cast<long long>(mpc_cluster.metrics().Get("shuffles")),
        ampc_cluster.SimSeconds(), mpc_cluster.SimSeconds(),
        mpc_cluster.SimSeconds() / ampc_cluster.SimSeconds());
    if (!identical) return 1;
  }
  return 0;
}
