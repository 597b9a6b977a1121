#include "baselines/boruvka.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/random.h"
#include "common/timer.h"
#include "graph/contraction.h"
#include "seq/msf.h"

namespace ampc::baselines {
namespace {

using graph::NodeId;
using graph::WeightedEdge;
using graph::WeightedEdgeList;

// A working edge: its endpoints in the current contracted graph and the
// position of its input edge. Contraction keeps input order, so `pos`
// ascends along the arcs and a pass over them reads the input front to
// back.
struct Arc {
  NodeId u;
  NodeId v;
  uint32_t pos;
};

// A vertex's lightest incident edge so far in seq::EdgeLess's (w, id)
// order, and the arc that carries it.
struct Lightest {
  graph::Weight w;
  graph::EdgeId id;
  uint32_t arc;
};

constexpr uint32_t kNoArc = 0xffffffffu;

// The modeled job ships WeightedEdge records, so every charge prices an
// arc at sizeof(WeightedEdge), not sizeof(Arc).
int64_t RecordBytes(const std::vector<Arc>& arcs) {
  return static_cast<int64_t>(arcs.size()) *
         static_cast<int64_t>(sizeof(WeightedEdge));
}

}  // namespace

BoruvkaResult MpcBoruvkaMsf(sim::Cluster& cluster,
                            const WeightedEdgeList& list, uint64_t seed) {
  AMPC_CHECK_LT(list.edges.size(), size_t{kNoArc});
  BoruvkaResult result;
  std::vector<Arc> arcs(list.edges.size());
  for (uint32_t i = 0; i < arcs.size(); ++i) {
    arcs[i] = Arc{list.edges[i].u, list.edges[i].v, i};
  }
  int64_t k = list.num_nodes;
  const int64_t threshold = cluster.config().in_memory_threshold_arcs;

  while (2 * static_cast<int64_t>(arcs.size()) > threshold) {
    WallTimer timer;
    ++result.phases;
    const uint64_t phase_seed = seed + 7919ULL * result.phases;

    // Minimum-order incident edge per vertex.
    std::vector<Lightest> lightest(k, Lightest{0, 0, kNoArc});
    for (uint32_t i = 0; i < arcs.size(); ++i) {
      const Arc& a = arcs[i];
      if (a.u == a.v) continue;
      const WeightedEdge& e = list.edges[a.pos];
      for (const NodeId endpoint : {a.u, a.v}) {
        Lightest& best = lightest[endpoint];
        if (best.arc == kNoArc || e.w < best.w ||
            (e.w == best.w && e.id < best.id)) {
          best = Lightest{e.w, e.id, i};
        }
      }
    }

    // Blue vertices hook into red neighbors along their minimum edge.
    std::vector<NodeId> cluster_of(k);
    for (int64_t v = 0; v < k; ++v) {
      cluster_of[v] = static_cast<NodeId>(v);
      if (lightest[v].arc == kNoArc) continue;
      const bool blue = (Hash64(v, phase_seed) & 1) == 0;
      if (!blue) continue;
      const Arc& a = arcs[lightest[v].arc];
      const NodeId other = (a.u == static_cast<NodeId>(v)) ? a.v : a.u;
      const bool other_red = (Hash64(other, phase_seed) & 1) != 0;
      if (!other_red) continue;
      cluster_of[v] = other;
      result.edges.push_back(lightest[v].id);
    }

    // Contract (three shuffles in the Flume implementation). The three
    // shuffles share the host time of the whole phase.
    const int64_t edge_bytes = RecordBytes(arcs);
    const int64_t contracted_nodes =
        graph::Contract(arcs, cluster_of).num_nodes();
    const double wall = timer.Seconds();
    cluster.AccountShuffle("BoruvkaMark", edge_bytes + k, wall / 3);
    cluster.AccountShuffle("BoruvkaRelabel", edge_bytes, wall / 3);
    cluster.AccountShuffle("BoruvkaRebuild", RecordBytes(arcs), wall / 3);
    k = contracted_nodes;

    // A phase without hooks just retries with fresh colors. When the
    // min-edge graph is a star, that happens whenever its hub draws blue.
    if (arcs.empty()) break;
  }

  // In-memory Kruskal on the residual multigraph.
  WeightedEdgeList rest;
  rest.num_nodes = k;
  rest.edges.reserve(arcs.size());
  for (const Arc& a : arcs) {
    const WeightedEdge& e = list.edges[a.pos];
    rest.edges.push_back(WeightedEdge{a.u, a.v, e.w, e.id});
  }
  const int64_t m = static_cast<int64_t>(rest.edges.size());
  cluster.AccountInMemoryFinish(
      "InMemoryMSF", RecordBytes(arcs),
      m + static_cast<int64_t>(m * std::log2(static_cast<double>(m) + 2)));
  std::vector<graph::EdgeId> finish = seq::KruskalMsf(rest);
  result.edges.insert(result.edges.end(), finish.begin(), finish.end());

  ParallelSort(cluster.pool(), result.edges);
  result.edges.erase(std::unique(result.edges.begin(), result.edges.end()),
                     result.edges.end());
  return result;
}

}  // namespace ampc::baselines
