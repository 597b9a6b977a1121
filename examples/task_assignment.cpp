// Weighted task assignment with the Corollary 4.1 algorithms: workers and
// tasks form a bipartite affinity graph; AmpcApproxMaxWeightMatching
// assigns tasks in one maximal-matching call (weight classes become the
// permutation's major key), and AmpcVertexCover prices the assignment's
// bottleneck set. The paper motivates exactly this use: "maximum weight
// matching is an important subroutine in balanced partitioning and
// hierarchical clustering" (Section 4). It exits 1 unless the assignment
// is a matching and the bottleneck set covers every bid.
//
// Run:  ./build/examples/task_assignment
#include <cstdio>
#include <vector>

#include "common/random.h"
#include "core/approx.h"
#include "core/matching.h"
#include "graph/graph.h"
#include "seq/greedy.h"

int main() {
  using namespace ampc;

  // 3000 workers x 3000 tasks; each worker bids on ~8 tasks with an
  // affinity score that is heavy-tailed (a few dream assignments, many
  // mediocre ones).
  constexpr int64_t kWorkers = 3000;
  constexpr int64_t kTasks = 3000;
  graph::WeightedEdgeList affinity;
  affinity.num_nodes = kWorkers + kTasks;
  Rng rng(7);
  for (int64_t w = 0; w < kWorkers; ++w) {
    const int bids = 4 + static_cast<int>(rng.NextBelow(9));
    for (int b = 0; b < bids; ++b) {
      const int64_t t = kWorkers + static_cast<int64_t>(rng.NextBelow(kTasks));
      // Pareto-ish scores in [1, ~1000).
      const double score = 1.0 / (1e-3 + rng.NextDouble());
      affinity.edges.push_back(graph::WeightedEdge{
          static_cast<graph::NodeId>(w), static_cast<graph::NodeId>(t),
          score, static_cast<graph::EdgeId>(affinity.edges.size())});
    }
  }
  std::printf("affinity graph: %lld workers, %lld tasks, %zu bids\n",
              static_cast<long long>(kWorkers),
              static_cast<long long>(kTasks), affinity.edges.size());

  sim::ClusterConfig config;
  config.num_machines = 8;
  sim::Cluster cluster(config);

  core::WeightMatchingOptions options;
  options.epsilon = 0.1;
  const core::WeightMatchingResult assignment =
      core::AmpcApproxMaxWeightMatching(cluster, affinity, options);

  int64_t assigned = 0;
  for (int64_t w = 0; w < kWorkers; ++w) {
    assigned += assignment.partner[w] != graph::kInvalidNode;
  }
  std::printf(
      "assignment: %lld workers matched, total affinity %.1f "
      "(%lld weight classes, %lld shuffles, %.2f sim seconds)\n",
      static_cast<long long>(assigned), assignment.total_weight,
      static_cast<long long>(assignment.num_buckets),
      static_cast<long long>(cluster.metrics().Get("shuffles")),
      cluster.SimSeconds());

  // Reference point: plain greedy by descending exact weight (the
  // sequential 2-approximation). The bucketed distributed answer should
  // land within ~(1 + eps) of it.
  const seq::MatchingResult greedy = seq::GreedyWeightMatching(affinity);
  double greedy_weight = 0;
  for (const graph::EdgeId id : greedy.edges) {
    greedy_weight += affinity.edges[id].w;
  }
  std::printf("sequential greedy-by-weight reference: %.1f (ratio %.3f)\n",
              greedy_weight, assignment.total_weight / greedy_weight);

  // Bottleneck analysis: a 2-approximate vertex cover of the *unmatched*
  // demand shows where adding capacity helps most.
  const graph::EdgeList plain = graph::StripWeights(affinity);
  sim::Cluster cover_cluster(config);
  const core::VertexCoverResult cover =
      core::AmpcVertexCover(cover_cluster, graph::BuildGraph(plain));
  std::printf(
      "bottleneck set: %lld vertices cover every bid "
      "(any exact cover needs >= %lld)\n",
      static_cast<long long>(cover.size),
      static_cast<long long>(cover.size / 2));

  std::vector<graph::NodeId> cover_nodes;
  for (graph::NodeId v = 0; v < cover.in_cover.size(); ++v) {
    if (cover.in_cover[v]) cover_nodes.push_back(v);
  }
  const bool ok =
      seq::IsMatching(plain,
                      core::ToSeqMatching(plain, assignment.partner).edges) &&
      seq::IsVertexCover(plain, cover_nodes);
  std::printf("assignment is a matching and the set covers every bid: %s\n",
              ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
