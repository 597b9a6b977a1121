// Single-linkage hierarchical clustering via MSF — the application the
// paper highlights for its MSF algorithm ("one can use this algorithm
// together with a simple sorting step, and our connectivity algorithm to
// find any desired level of a single-linkage hierarchical clustering").
//
// Points are clustered by repeatedly merging the two closest clusters;
// equivalently, the clustering at distance threshold t is the set of
// connected components of the MSF edges with weight <= t. This example
// builds a k-NN-style similarity graph over synthetic 2-D points, runs
// the AMPC MSF, and prints the dendrogram cut at several levels. It exits
// 1 unless the mid-range cuts find one cluster of >= 50 points per blob.
//
// Run:  ./build/examples/single_linkage_clustering
#include <algorithm>
#include <cmath>
#include <map>
#include <cstdio>
#include <vector>

#include "common/random.h"
#include "core/clustering.h"

namespace {

struct Point {
  double x, y;
};

}  // namespace

int main() {
  using namespace ampc;

  // Synthetic data: four Gaussian blobs of 2500 points each.
  constexpr int kBlobs = 4;
  constexpr int kPerBlob = 2500;
  constexpr int kN = kBlobs * kPerBlob;
  const double centers[kBlobs][2] = {{0, 0}, {8, 0}, {0, 8}, {8, 8}};
  std::vector<Point> points(kN);
  Rng rng(11);
  for (int i = 0; i < kN; ++i) {
    const int blob = i / kPerBlob;
    // Box-Muller for unit Gaussians.
    const double u1 = rng.NextDouble() + 1e-12;
    const double u2 = rng.NextDouble();
    const double r = std::sqrt(-2.0 * std::log(u1));
    points[i] = Point{centers[blob][0] + r * std::cos(6.28318530718 * u2),
                      centers[blob][1] + r * std::sin(6.28318530718 * u2)};
  }

  // Similarity graph: connect each point to its grid-bucket neighbors
  // (a cheap k-NN substitute that keeps the graph connected enough).
  graph::WeightedEdgeList edges;
  edges.num_nodes = kN;
  {
    // Bucket points on a coarse grid, connect within + adjacent buckets.
    const double cell = 0.5;
    std::vector<std::pair<int64_t, int>> keyed(kN);
    auto key_of = [&](const Point& p) {
      const int64_t gx = static_cast<int64_t>(std::floor(p.x / cell)) + 512;
      const int64_t gy = static_cast<int64_t>(std::floor(p.y / cell)) + 512;
      return gx * 4096 + gy;
    };
    for (int i = 0; i < kN; ++i) keyed[i] = {key_of(points[i]), i};
    std::sort(keyed.begin(), keyed.end());
    auto connect_range = [&](size_t a_begin, size_t a_end, size_t b_begin,
                             size_t b_end) {
      for (size_t a = a_begin; a < a_end; ++a) {
        for (size_t b = std::max(b_begin, a + 1); b < b_end; ++b) {
          const Point& p = points[keyed[a].second];
          const Point& q = points[keyed[b].second];
          const double d = std::hypot(p.x - q.x, p.y - q.y);
          if (d <= 2.0 * cell) {
            edges.edges.push_back(graph::WeightedEdge{
                static_cast<graph::NodeId>(keyed[a].second),
                static_cast<graph::NodeId>(keyed[b].second), d,
                static_cast<graph::EdgeId>(edges.edges.size())});
          }
        }
      }
    };
    // Same-bucket pairs plus pairs with the four "forward" neighbor
    // buckets (E, N, NE, SE) — every nearby pair is covered exactly once.
    size_t run_start = 0;
    std::map<int64_t, std::pair<size_t, size_t>> run_of_key;
    for (size_t i = 1; i <= keyed.size(); ++i) {
      if (i == keyed.size() || keyed[i].first != keyed[run_start].first) {
        run_of_key[keyed[run_start].first] = {run_start, i};
        run_start = i;
      }
    }
    constexpr int64_t kForward[4] = {1, 4096, 4096 + 1, 4096 - 1};
    for (const auto& [key, run] : run_of_key) {
      connect_range(run.first, run.second, run.first, run.second);
      for (int64_t delta : kForward) {
        const auto it = run_of_key.find(key + delta);
        if (it != run_of_key.end()) {
          connect_range(run.first, run.second, it->second.first,
                        it->second.second);
        }
      }
    }
  }
  std::printf("similarity graph: %d points, %zu edges\n", kN,
              edges.edges.size());

  // MSF + sort on the AMPC cluster = the single-linkage dendrogram.
  sim::ClusterConfig config;
  config.num_machines = 8;
  config.in_memory_threshold_arcs =
      std::max<int64_t>(1000, static_cast<int64_t>(edges.edges.size()) / 50);
  sim::Cluster cluster(config);
  core::Dendrogram dendrogram = core::AmpcSingleLinkage(cluster, edges);
  std::printf("dendrogram: %zu merges over %lld points, %lld shuffles, "
              "sim %.2fs\n",
              dendrogram.merges().size(),
              static_cast<long long>(dendrogram.num_nodes()),
              static_cast<long long>(cluster.metrics().Get("shuffles")),
              cluster.SimSeconds());

  // Cut the dendrogram at several levels and report cluster counts.
  bool ok = true;
  for (double threshold : {0.3, 0.8, 1.5, 3.0}) {
    std::vector<graph::NodeId> labels = dendrogram.CutAtThreshold(threshold);
    // Count clusters with >= 50 points (ignore stragglers).
    std::vector<int64_t> sizes(labels.size(), 0);
    for (graph::NodeId label : labels) ++sizes[label];
    int64_t big = 0;
    for (int64_t s : sizes) big += (s >= 50);
    std::printf("cut at distance %.1f: %lld clusters (%lld with >=50 pts)\n",
                threshold,
                static_cast<long long>(core::CountClusters(labels)),
                static_cast<long long>(big));
    if (threshold == 0.8 || threshold == 1.5) ok &= big == kBlobs;
  }
  std::printf("expected: the >=50-point count settles at %d blobs for "
              "mid-range cuts\n", kBlobs);
  return ok ? 0 : 1;
}
