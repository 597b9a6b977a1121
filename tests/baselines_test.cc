// Tests for the MPC baselines, including the paper's key methodological
// property: given the same seed, the AMPC and MPC implementations compute
// the *same* MIS / matching / MSF (Section 5.3, "By specifying the same
// source of randomness, both the MPC and AMPC algorithms compute the same
// MIS").
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <unordered_set>

#include "baselines/boruvka.h"
#include "baselines/local_contraction.h"
#include "baselines/rootset_matching.h"
#include "baselines/rootset_mis.h"
#include "common/random.h"
#include "contraction_reference.h"
#include "core/matching.h"
#include "core/mis.h"
#include "core/msf.h"
#include "core/priorities.h"
#include "graph/generators.h"
#include "graph/stats.h"
#include "seq/greedy.h"
#include "seq/msf.h"

namespace ampc::baselines {
namespace {

using graph::EdgeList;
using graph::Graph;
using graph::kInvalidNode;
using graph::NodeId;
using graph::WeightedEdge;
using graph::WeightedEdgeList;

sim::ClusterConfig SmallConfig() {
  sim::ClusterConfig config;
  config.num_machines = 4;
  config.in_memory_threshold_arcs = 64;  // force distributed phases
  return config;
}

class BaselineSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BaselineSweep, RootsetMisEqualsGreedyAndAmpc) {
  const uint64_t seed = GetParam();
  EdgeList list = graph::GenerateRmat(9, 2500, seed);
  Graph g = graph::BuildGraph(list);

  sim::Cluster mpc(SmallConfig());
  RootsetMisResult rootset = MpcRootsetMis(mpc, g, seed);
  EXPECT_GE(rootset.phases, 1);

  std::vector<uint64_t> ranks = core::AllVertexRanks(g.num_nodes(), seed);
  EXPECT_EQ(rootset.in_mis, seq::GreedyMis(g, ranks));

  sim::Cluster ampc(SmallConfig());
  EXPECT_EQ(rootset.in_mis, core::AmpcMis(ampc, g, seed).in_mis);

  // Table 3's shape: MPC uses 2 shuffles per phase (plus the gather),
  // AMPC exactly one.
  EXPECT_GE(mpc.metrics().Get("shuffles"), 2 * rootset.phases);
  EXPECT_EQ(ampc.metrics().Get("shuffles"), 1);
}

TEST_P(BaselineSweep, RootsetMatchingEqualsGreedyAndAmpc) {
  const uint64_t seed = GetParam();
  EdgeList list = graph::GenerateRmat(9, 2500, seed);
  Graph g = graph::BuildGraph(list);

  sim::Cluster mpc(SmallConfig());
  RootsetMatchingResult rootset = MpcRootsetMatching(mpc, g, seed);

  sim::Cluster ampc(SmallConfig());
  core::MatchingOptions options;
  options.seed = seed;
  core::MatchingResult direct = core::AmpcMatching(ampc, g, options);
  EXPECT_EQ(rootset.partner, direct.partner);

  // Validity on the simple graph.
  EdgeList simple;
  simple.num_nodes = g.num_nodes();
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    for (graph::NodeId u : g.neighbors(v)) {
      if (v < u) simple.edges.push_back(graph::Edge{v, u});
    }
  }
  seq::MatchingResult as_edges = core::ToSeqMatching(simple, rootset.partner);
  EXPECT_TRUE(seq::IsMaximalMatching(simple, as_edges.edges));
}

TEST_P(BaselineSweep, BoruvkaEqualsKruskalAndAmpcMsf) {
  const uint64_t seed = GetParam();
  EdgeList raw = graph::GenerateRmat(9, 2500, seed);
  WeightedEdgeList list = graph::MakeRandomWeighted(raw, seed ^ 0x9);

  sim::Cluster mpc(SmallConfig());
  BoruvkaResult boruvka = MpcBoruvkaMsf(mpc, list, seed);
  EXPECT_EQ(boruvka.edges, seq::KruskalMsf(list));

  sim::Cluster ampc(SmallConfig());
  core::MsfOptions options;
  options.seed = seed;
  EXPECT_EQ(boruvka.edges, core::AmpcMsf(ampc, list, options).edges);

  // Borůvka needs 3 shuffles per phase and many phases; AMPC MSF uses 5
  // per round with round count ~1 — the Table 3 gap.
  EXPECT_GE(mpc.metrics().Get("shuffles"), 3 * boruvka.phases);
  EXPECT_GT(mpc.metrics().Get("shuffles"),
            ampc.metrics().Get("shuffles"));
}

TEST_P(BaselineSweep, LocalContractionMatchesBfsComponents) {
  const uint64_t seed = GetParam();
  EdgeList list = graph::GenerateErdosRenyi(400, 700, seed);  // fragmented
  sim::Cluster cluster(SmallConfig());
  LocalContractionResult r = MpcLocalContractionCC(cluster, list, seed);
  Graph g = graph::BuildGraph(list);
  std::vector<graph::NodeId> oracle = graph::SequentialComponents(g);
  EXPECT_TRUE(graph::SamePartition(r.component, oracle));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BaselineSweep,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(LocalContractionTest, CycleShrinkFactorNearPaperObservation) {
  // Section 5.6: the MPC algorithm shrinks the cycle by ~2.59-3x per
  // iteration; local rank minima on a cycle survive with density 1/3.
  EdgeList list = graph::GenerateCycle(100000);
  sim::ClusterConfig config = SmallConfig();
  config.in_memory_threshold_arcs = 2000;
  sim::Cluster cluster(config);
  LocalContractionResult r = MpcLocalContractionCC(cluster, list, 7);
  EXPECT_EQ(r.num_components, 1);
  // 100000 -> 2000 at ~3x per iteration needs ~4; allow 3..10.
  EXPECT_GE(r.iterations, 3);
  EXPECT_LE(r.iterations, 10);
}

TEST(LocalContractionTest, HandlesEdgelessGraph) {
  EdgeList list;
  list.num_nodes = 5;
  sim::Cluster cluster(SmallConfig());
  LocalContractionResult r = MpcLocalContractionCC(cluster, list, 1);
  EXPECT_EQ(r.num_components, 5);
}

TEST(RootsetMisTest, InMemoryOnlyPathWorks) {
  sim::ClusterConfig config;
  config.num_machines = 2;
  config.in_memory_threshold_arcs = 1 << 20;
  sim::Cluster cluster(config);
  EdgeList list = graph::GenerateErdosRenyi(100, 300, 3);
  Graph g = graph::BuildGraph(list);
  RootsetMisResult r = MpcRootsetMis(cluster, g, 3);
  EXPECT_EQ(r.phases, 0);
  std::vector<uint64_t> ranks = core::AllVertexRanks(g.num_nodes(), 3);
  EXPECT_EQ(r.in_mis, seq::GreedyMis(g, ranks));
}

// 16,384 vertices, so the mark step's 2,048-vertex loop splits into
// chunks on several pool threads, and two minima in different chunks can
// mark a shared neighbor at once; the sweep's 512 vertices run that loop
// inline. ThreadSanitizer runs this test.
TEST(RootsetMisTest, MarksFromConcurrentChunks) {
  const Graph g = graph::BuildGraph(graph::GenerateRmat(14, 100000, 3));
  sim::Cluster cluster(SmallConfig());
  const RootsetMisResult r = MpcRootsetMis(cluster, g, 3);
  EXPECT_GE(r.phases, 1);
  EXPECT_EQ(r.in_mis,
            seq::GreedyMis(g, core::AllVertexRanks(g.num_nodes(), 3)));
}

// ---------------------------------------------------------------------------
// Reference baselines: MpcBoruvkaMsf and MpcLocalContractionCC on wide
// records. Both carry a 24-byte WeightedEdge copy of the input through
// every phase, Borůvka's min pass dereferences each vertex's current
// best edge, local contraction ranks through VertexBefore, and clusters
// are numbered by HashMapContract. The shuffles charge no host time,
// which no compared field reads.

BoruvkaResult ReferenceBoruvkaMsf(sim::Cluster& cluster,
                                  const WeightedEdgeList& list,
                                  uint64_t seed) {
  constexpr uint32_t kNoEdge = 0xffffffffu;
  BoruvkaResult result;
  WeightedEdgeList current = list;
  const int64_t threshold = cluster.config().in_memory_threshold_arcs;

  while (2 * static_cast<int64_t>(current.edges.size()) > threshold) {
    ++result.phases;
    const uint64_t phase_seed = seed + 7919ULL * result.phases;
    const int64_t k = current.num_nodes;

    std::vector<uint32_t> min_edge(k, kNoEdge);
    for (uint32_t i = 0; i < current.edges.size(); ++i) {
      const WeightedEdge& e = current.edges[i];
      if (e.u == e.v) continue;
      for (NodeId endpoint : {e.u, e.v}) {
        uint32_t& slot = min_edge[endpoint];
        if (slot == kNoEdge || seq::EdgeLess(e, current.edges[slot])) {
          slot = i;
        }
      }
    }

    std::vector<NodeId> cluster_of(k);
    for (int64_t v = 0; v < k; ++v) {
      cluster_of[v] = static_cast<NodeId>(v);
      if (min_edge[v] == kNoEdge) continue;
      const bool blue = (Hash64(v, phase_seed) & 1) == 0;
      if (!blue) continue;
      const WeightedEdge& e = current.edges[min_edge[v]];
      const NodeId other = (e.u == static_cast<NodeId>(v)) ? e.v : e.u;
      const bool other_red = (Hash64(other, phase_seed) & 1) != 0;
      if (!other_red) continue;
      cluster_of[v] = other;
      result.edges.push_back(e.id);
    }

    const int64_t edge_bytes =
        static_cast<int64_t>(current.edges.size()) *
        static_cast<int64_t>(sizeof(WeightedEdge));
    graph::ReferenceContraction<WeightedEdge> contracted =
        graph::HashMapContract(current.edges, cluster_of);
    const int64_t contracted_bytes =
        static_cast<int64_t>(contracted.records.size()) *
        static_cast<int64_t>(sizeof(WeightedEdge));
    cluster.AccountShuffle("BoruvkaMark", edge_bytes + k);
    cluster.AccountShuffle("BoruvkaRelabel", edge_bytes);
    cluster.AccountShuffle("BoruvkaRebuild", contracted_bytes);

    current.edges = std::move(contracted.records);
    current.num_nodes =
        static_cast<int64_t>(contracted.representative.size());
    if (current.edges.empty()) break;
  }

  const int64_t m = static_cast<int64_t>(current.edges.size());
  cluster.AccountInMemoryFinish(
      "InMemoryMSF", m * static_cast<int64_t>(sizeof(WeightedEdge)),
      m + static_cast<int64_t>(m * std::log2(static_cast<double>(m) + 2)));
  std::vector<graph::EdgeId> finish = seq::KruskalMsf(current);
  result.edges.insert(result.edges.end(), finish.begin(), finish.end());
  std::sort(result.edges.begin(), result.edges.end());
  result.edges.erase(std::unique(result.edges.begin(), result.edges.end()),
                     result.edges.end());
  return result;
}

LocalContractionResult ReferenceLocalContractionCC(sim::Cluster& cluster,
                                                   const EdgeList& list,
                                                   uint64_t seed) {
  const int64_t n = list.num_nodes;
  LocalContractionResult result;
  result.component.assign(n, kInvalidNode);

  std::vector<NodeId> label(n);
  for (int64_t v = 0; v < n; ++v) label[v] = static_cast<NodeId>(v);

  WeightedEdgeList current;
  current.num_nodes = n;
  for (size_t i = 0; i < list.edges.size(); ++i) {
    current.edges.push_back(WeightedEdge{list.edges[i].u, list.edges[i].v,
                                         1.0,
                                         static_cast<graph::EdgeId>(i)});
  }
  std::vector<NodeId> rep(n);
  for (int64_t v = 0; v < n; ++v) rep[v] = static_cast<NodeId>(v);

  const int64_t threshold = cluster.config().in_memory_threshold_arcs;
  while (2 * static_cast<int64_t>(current.edges.size()) > threshold) {
    ++result.iterations;
    const uint64_t iter_seed = seed + 104729ULL * result.iterations;
    const int64_t k = current.num_nodes;

    std::vector<NodeId> hook(k);
    for (int64_t v = 0; v < k; ++v) hook[v] = static_cast<NodeId>(v);
    for (const WeightedEdge& e : current.edges) {
      if (e.u == e.v) continue;
      for (int side = 0; side < 2; ++side) {
        const NodeId v = side == 0 ? e.u : e.v;
        const NodeId u = side == 0 ? e.v : e.u;
        if (!core::VertexBefore(u, v, iter_seed)) continue;
        NodeId& h = hook[v];
        if (h == v || core::VertexBefore(u, h, iter_seed)) h = u;
      }
    }
    std::vector<NodeId> root(k, kInvalidNode);
    auto find_root = [&](NodeId start) {
      NodeId v = start;
      std::vector<NodeId> path;
      while (root[v] == kInvalidNode && hook[v] != v) {
        path.push_back(v);
        v = hook[v];
      }
      const NodeId r = root[v] == kInvalidNode ? v : root[v];
      for (NodeId w : path) root[w] = r;
      root[v] = r;
    };
    for (int64_t v = 0; v < k; ++v) find_root(static_cast<NodeId>(v));

    const int64_t edge_bytes =
        static_cast<int64_t>(current.edges.size()) *
        static_cast<int64_t>(sizeof(WeightedEdge));
    graph::ReferenceContraction<WeightedEdge> contracted =
        graph::HashMapContract(current.edges, root);
    cluster.AccountShuffle("LC-Hook", edge_bytes + k);
    cluster.AccountShuffle("LC-Relabel", edge_bytes);
    cluster.AccountShuffle(
        "LC-Rebuild", static_cast<int64_t>(contracted.records.size()) *
                          static_cast<int64_t>(sizeof(WeightedEdge)));

    const int64_t next_k =
        static_cast<int64_t>(contracted.representative.size());
    std::vector<NodeId> new_rep(next_k);
    for (int64_t c = 0; c < next_k; ++c) {
      new_rep[c] = rep[contracted.representative[c]];
    }
    for (int64_t v = 0; v < n; ++v) {
      if (label[v] == kInvalidNode) continue;
      const NodeId cluster_vertex = root[label[v]];
      const NodeId compact = contracted.compact_of_vertex[cluster_vertex];
      label[v] = compact;
      if (compact == kInvalidNode) result.component[v] = rep[cluster_vertex];
    }
    rep = std::move(new_rep);
    current.edges = std::move(contracted.records);
    current.num_nodes = next_k;
    if (current.edges.empty()) break;
  }

  const int64_t m = static_cast<int64_t>(current.edges.size());
  cluster.AccountInMemoryFinish(
      "InMemoryCC", m * static_cast<int64_t>(sizeof(WeightedEdge)), m + n);
  EdgeList rest;
  rest.num_nodes = current.num_nodes;
  for (const WeightedEdge& e : current.edges) {
    rest.edges.push_back(graph::Edge{e.u, e.v});
  }
  std::vector<NodeId> rest_labels =
      graph::SequentialComponents(graph::BuildGraph(rest));
  for (int64_t v = 0; v < n; ++v) {
    if (label[v] != kInvalidNode) {
      result.component[v] = rep[rest_labels[label[v]]];
    }
  }
  std::unordered_set<NodeId> distinct(result.component.begin(),
                                      result.component.end());
  result.num_components = static_cast<int64_t>(distinct.size());
  return result;
}

// Every counter, every timer but the host's wall:* and wall_total, and
// the simulated seconds of every round.
void ExpectSameCharges(sim::Cluster& got, sim::Cluster& want) {
  const MetricsSnapshot got_metrics = got.metrics().Snapshot();
  const MetricsSnapshot want_metrics = want.metrics().Snapshot();
  EXPECT_EQ(got_metrics.counters, want_metrics.counters);
  const auto simulated = [](const MetricsSnapshot& snapshot) {
    std::map<std::string, double> timers;
    for (const auto& [name, seconds] : snapshot.timers_sec) {
      if (!name.starts_with("wall")) timers[name] = seconds;
    }
    return timers;
  };
  EXPECT_EQ(simulated(got_metrics), simulated(want_metrics));
  EXPECT_EQ(got.round_log(), want.round_log());
}

struct ReferenceCase {
  std::string name;
  WeightedEdgeList list;
};

std::vector<ReferenceCase> ReferenceCases() {
  const EdgeList social = graph::GenerateRmat(11, 12000, 5);
  WeightedEdgeList shuffled = graph::MakeRandomWeighted(social, 9);
  Rng rng(13);
  for (size_t i = shuffled.edges.size(); i > 1; --i) {
    std::swap(shuffled.edges[i - 1].id, shuffled.edges[rng.NextBelow(i)].id);
  }
  EdgeList single_edge;
  single_edge.num_nodes = 2;
  single_edge.edges = {{0, 1}};
  EdgeList edgeless;
  edgeless.num_nodes = 5;
  return {
      {"degree-weighted social R-MAT",
       graph::MakeDegreeWeighted(social, graph::BuildGraph(social))},
      {"unit weights", graph::MakeUnitWeighted(social)},
      {"random weights", graph::MakeRandomWeighted(social, 3)},
      {"shuffled edge ids", shuffled},
      {"fragmented Erdos-Renyi",
       graph::MakeRandomWeighted(graph::GenerateErdosRenyi(3000, 2000, 7),
                                 7)},
      {"double cycle",
       graph::MakeRandomWeighted(graph::GenerateDoubleCycle(1000), 11)},
      {"edgeless", graph::MakeUnitWeighted(edgeless)},
      {"single edge", graph::MakeUnitWeighted(single_edge)},
  };
}

EdgeList Unweighted(const WeightedEdgeList& list) {
  EdgeList out;
  out.num_nodes = list.num_nodes;
  for (const WeightedEdge& e : list.edges) {
    out.edges.push_back(graph::Edge{e.u, e.v});
  }
  return out;
}

// The narrow working records change no output and no charge: the same
// MSF and components, phase and iteration counts, counters, simulated
// timers and per-round simulated seconds as the reference baselines.
TEST(BaselinesTest, NarrowRecordsMatchReferenceBaselines) {
  const std::vector<ReferenceCase> cases = ReferenceCases();
  // The social stand-in carries self-loops and parallel edges.
  const std::vector<WeightedEdge>& social = cases[0].list.edges;
  EXPECT_TRUE(std::any_of(social.begin(), social.end(),
                          [](const WeightedEdge& e) { return e.u == e.v; }));
  std::unordered_set<uint64_t> pairs;
  bool parallel = false;
  for (const WeightedEdge& e : social) {
    parallel |= !pairs.insert(core::EdgeKey(e.u, e.v)).second;
  }
  EXPECT_TRUE(parallel);

  for (const ReferenceCase& c : cases) {
    const EdgeList unweighted = Unweighted(c.list);
    const int64_t arcs = 2 * static_cast<int64_t>(c.list.edges.size());
    for (const int64_t threshold : {int64_t{64}, arcs / 50}) {
      SCOPED_TRACE(c.name + ", threshold " + std::to_string(threshold));
      sim::ClusterConfig config = SmallConfig();
      config.in_memory_threshold_arcs = threshold;

      sim::Cluster want_msf_cluster(config);
      const BoruvkaResult want_msf =
          ReferenceBoruvkaMsf(want_msf_cluster, c.list, 7);
      sim::Cluster got_msf_cluster(config);
      const BoruvkaResult got_msf = MpcBoruvkaMsf(got_msf_cluster, c.list, 7);
      EXPECT_EQ(got_msf.edges, want_msf.edges);
      EXPECT_EQ(got_msf.phases, want_msf.phases);
      ExpectSameCharges(got_msf_cluster, want_msf_cluster);

      sim::Cluster want_cc_cluster(config);
      const LocalContractionResult want_cc =
          ReferenceLocalContractionCC(want_cc_cluster, unweighted, 7);
      sim::Cluster got_cc_cluster(config);
      const LocalContractionResult got_cc =
          MpcLocalContractionCC(got_cc_cluster, unweighted, 7);
      EXPECT_EQ(got_cc.component, want_cc.component);
      EXPECT_EQ(got_cc.num_components, want_cc.num_components);
      EXPECT_EQ(got_cc.iterations, want_cc.iterations);
      ExpectSameCharges(got_cc_cluster, want_cc_cluster);
    }
  }
}

TEST(BaselinesTest, ChargedCostsMatchParent) {
  // Pins the charged costs, not only the outputs: any cluster numbering
  // gives the same MSF, but later phases color and hook by those ids.
  const EdgeList raw = graph::GenerateRmat(12, 20000, 7);
  sim::ClusterConfig config;
  config.num_machines = 4;
  config.threads_per_machine = 4;
  config.in_memory_threshold_arcs = 64;
  // rounds, shuffles, shuffle_bytes.
  const auto counters = [](sim::Cluster& cluster) {
    const Metrics& m = cluster.metrics();
    return std::vector<int64_t>{m.Get("rounds"), m.Get("shuffles"),
                                m.Get("shuffle_bytes")};
  };

  sim::Cluster boruvka_cluster(config);
  const BoruvkaResult boruvka = MpcBoruvkaMsf(
      boruvka_cluster, graph::MakeDegreeWeighted(raw, graph::BuildGraph(raw)),
      7);
  EXPECT_EQ(boruvka.phases, 33);
  EXPECT_EQ(counters(boruvka_cluster),
            (std::vector<int64_t>{100, 100, 22519447}));
  EXPECT_DOUBLE_EQ(boruvka_cluster.SimSeconds(), 7.0);

  sim::Cluster lc_cluster(config);
  const LocalContractionResult lc = MpcLocalContractionCC(lc_cluster, raw, 7);
  EXPECT_EQ(lc.iterations, 6);
  EXPECT_EQ(lc.num_components, 1470);
  EXPECT_EQ(counters(lc_cluster), (std::vector<int64_t>{19, 19, 3767384}));
  EXPECT_DOUBLE_EQ(lc_cluster.SimSeconds(), 1.33008192);
}

TEST(BoruvkaTest, DisconnectedInputGivesForest) {
  EdgeList raw = graph::GenerateDoubleCycle(100);
  WeightedEdgeList list = graph::MakeRandomWeighted(raw, 5);
  sim::Cluster cluster(SmallConfig());
  BoruvkaResult r = MpcBoruvkaMsf(cluster, list, 5);
  EXPECT_TRUE(seq::IsSpanningForest(list, r.edges));
  EXPECT_EQ(r.edges.size(), 198u);  // two trees of 99 edges each
}

}  // namespace
}  // namespace ampc::baselines
