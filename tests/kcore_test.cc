// Tests for the Section 5.7 k-core extension: the sequential peeling
// oracle, the AMPC h-index engine, the MPC dataflow baseline, and the
// shuffle-count contrast between the two.
#include "core/kcore.h"

#include <algorithm>
#include <functional>

#include <gtest/gtest.h>

#include "baselines/mpc_kcore.h"
#include "common/random.h"
#include "graph/generators.h"
#include "seq/kcore.h"

namespace ampc {
namespace {

using graph::Graph;
using graph::NodeId;

sim::ClusterConfig SmallConfig() {
  sim::ClusterConfig config;
  config.num_machines = 4;
  config.threads_per_machine = 2;
  return config;
}

// ---------------------------------------------------------------------------
// Sequential oracle.
// ---------------------------------------------------------------------------

TEST(SeqKCoreTest, CompleteGraphCorenessIsNMinusOne) {
  Graph g = graph::BuildGraph(graph::GenerateComplete(7));
  std::vector<int32_t> coreness = seq::CoreDecomposition(g);
  for (const int32_t c : coreness) EXPECT_EQ(c, 6);
  EXPECT_EQ(seq::Degeneracy(coreness), 6);
}

TEST(SeqKCoreTest, TreesHaveCorenessOne) {
  Graph g = graph::BuildGraph(graph::GenerateRandomTree(64, 3));
  std::vector<int32_t> coreness = seq::CoreDecomposition(g);
  for (const int32_t c : coreness) EXPECT_EQ(c, 1);
}

TEST(SeqKCoreTest, CycleHasCorenessTwo) {
  Graph g = graph::BuildGraph(graph::GenerateCycle(20));
  for (const int32_t c : seq::CoreDecomposition(g)) EXPECT_EQ(c, 2);
}

TEST(SeqKCoreTest, CliqueWithPendantsSeparatesLevels) {
  // K5 with a pendant vertex on each clique member: pendants peel at 1,
  // the clique stays at 4.
  graph::EdgeList list = graph::GenerateComplete(5);
  list.num_nodes = 10;
  for (NodeId v = 0; v < 5; ++v) {
    list.edges.push_back(graph::Edge{v, static_cast<NodeId>(5 + v)});
  }
  Graph g = graph::BuildGraph(list);
  std::vector<int32_t> coreness = seq::CoreDecomposition(g);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(coreness[v], 4);
  for (NodeId v = 5; v < 10; ++v) EXPECT_EQ(coreness[v], 1);
  EXPECT_EQ(seq::KCoreVertices(coreness, 2),
            (std::vector<NodeId>{0, 1, 2, 3, 4}));
}

TEST(SeqKCoreTest, KCoreSubgraphHasMinDegreeK) {
  // Defining property: within the k-core, every vertex keeps >= k
  // neighbors that are also in the k-core.
  Graph g = graph::BuildGraph(graph::GenerateRmat(9, 3000, 77));
  std::vector<int32_t> coreness = seq::CoreDecomposition(g);
  const int32_t degeneracy = seq::Degeneracy(coreness);
  ASSERT_GT(degeneracy, 1);
  for (int32_t k = 1; k <= degeneracy; ++k) {
    std::vector<uint8_t> in_core(g.num_nodes(), 0);
    for (NodeId v : seq::KCoreVertices(coreness, k)) in_core[v] = 1;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (!in_core[v]) continue;
      int64_t internal = 0;
      for (NodeId u : g.neighbors(v)) internal += in_core[u];
      EXPECT_GE(internal, k) << "vertex " << v << " at k=" << k;
    }
  }
  // Maximality: the (degeneracy+1)-core is empty.
  EXPECT_TRUE(seq::KCoreVertices(coreness, degeneracy + 1).empty());
}

TEST(SeqKCoreTest, EmptyGraph) {
  graph::EdgeList list;
  list.num_nodes = 0;
  Graph g = graph::BuildGraph(list);
  EXPECT_TRUE(seq::CoreDecomposition(g).empty());
  EXPECT_EQ(seq::Degeneracy({}), 0);
}

// ---------------------------------------------------------------------------
// h-index primitive.
// ---------------------------------------------------------------------------

TEST(HIndexTest, KnownValues) {
  std::vector<int32_t> a = {3, 0, 6, 1, 5};
  EXPECT_EQ(core::HIndex(a), 3);
  std::vector<int32_t> b = {10, 8, 5, 4, 3};
  EXPECT_EQ(core::HIndex(b), 4);
  std::vector<int32_t> empty;
  EXPECT_EQ(core::HIndex(empty), 0);
  std::vector<int32_t> zeros = {0, 0, 0};
  EXPECT_EQ(core::HIndex(zeros), 0);
  std::vector<int32_t> ones = {1, 1, 1};
  EXPECT_EQ(core::HIndex(ones), 1);

  // Random vectors against the definition, evaluated on a descending
  // sort: the largest i + 1 with sorted[i] >= i + 1.
  const auto reference = [](std::vector<int32_t> values) {
    std::sort(values.begin(), values.end(), std::greater<int32_t>());
    int32_t h = 0;
    while (h < static_cast<int32_t>(values.size()) && values[h] >= h + 1) ++h;
    return h;
  };
  // Lengths 0-64 and values 0-100: duplicates, zeros, and values above
  // the length all occur.
  Rng rng(20);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<int32_t> values(rng.NextBelow(65));
    for (int32_t& v : values) v = static_cast<int32_t>(rng.NextBelow(101));
    const int32_t expected = reference(values);
    EXPECT_EQ(core::HIndex(values), expected) << "trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// AMPC engine vs oracle vs MPC baseline.
// ---------------------------------------------------------------------------

TEST(AmpcKCoreTest, MatchesOracleOnRandomGraphs) {
  for (uint64_t seed = 0; seed < 5; ++seed) {
    Graph g = graph::BuildGraph(graph::GenerateErdosRenyi(200, 700, seed));
    sim::Cluster cluster(SmallConfig());
    core::KCoreResult result = core::AmpcKCore(cluster, g);
    EXPECT_EQ(result.coreness, seq::CoreDecomposition(g)) << "seed " << seed;
    EXPECT_GE(result.iterations, 1);
  }
}

TEST(AmpcKCoreTest, MatchesOracleOnSkewedGraph) {
  Graph g = graph::BuildGraph(graph::GenerateRmat(10, 8000, 5));
  sim::Cluster cluster(SmallConfig());
  core::KCoreResult result = core::AmpcKCore(cluster, g);
  EXPECT_EQ(result.coreness, seq::CoreDecomposition(g));
}

TEST(AmpcKCoreTest, PathConvergesSlowlyButCorrectly) {
  // The h-index fixpoint's worst case: values on a path shrink by one
  // hop per iteration from the endpoints inward.
  Graph g = graph::BuildGraph(graph::GeneratePath(40));
  sim::Cluster cluster(SmallConfig());
  core::KCoreResult result = core::AmpcKCore(cluster, g);
  for (const int32_t c : result.coreness) EXPECT_EQ(c, 1);
  EXPECT_GE(result.iterations, 40 / 2 - 2);
}

// Pins the charged costs of a hybrid and a dense AmpcKCore run: the pull
// rounds' per-worker exchange dedup and the per-round write phases'
// per-shard bookkeeping. The values were recorded with the earlier
// hash-table dedup and per-record write counters: how the simulator
// tracks what it charges may change; what it charges may not.
TEST(AmpcKCoreTest, ChargedCostsMatchParent) {
  const Graph g =
      graph::BuildGraph(graph::GenerateErdosRenyi(4096, 32768, 11));
  // kv_reads, kv_read_bytes, frontier_exchange_bytes,
  // frontier_broadcast_bytes, kv_writes, kv_write_bytes,
  // kv_hot_machine_read_bytes, kv_hot_machine_write_bytes, rounds, and
  // the push client's kv_lookup_trips, kv_batches, kv_peak_inflight_keys,
  // cache_hits and cache_misses. The query cache is on in every leg.
  const auto run = [&](FrontierMode mode, int64_t max_batch_keys,
                       double* sim_seconds) {
    sim::ClusterConfig config;
    config.num_machines = 4;
    config.threads_per_machine = 4;
    config.frontier.mode = mode;
    config.max_batch_keys = max_batch_keys;
    sim::Cluster cluster(config);
    EXPECT_EQ(core::AmpcKCore(cluster, g).coreness,
              seq::CoreDecomposition(g));
    *sim_seconds = cluster.SimSeconds();
    const Metrics& m = cluster.metrics();
    return std::vector<int64_t>{
        m.Get("kv_reads"),
        m.Get("kv_read_bytes"),
        m.Get("frontier_exchange_bytes"),
        m.Get("frontier_broadcast_bytes"),
        m.Get("kv_writes"),
        m.Get("kv_write_bytes"),
        m.Get("kv_hot_machine_read_bytes"),
        m.Get("kv_hot_machine_write_bytes"),
        m.Get("rounds"),
        m.Get("kv_lookup_trips"),
        m.Get("kv_batches"),
        m.Get("kv_peak_inflight_keys"),
        m.Get("cache_hits"),
        m.Get("cache_misses")};
  };
  double sim_seconds = 0;
  EXPECT_EQ(run(FrontierMode::kHybrid, 4096, &sim_seconds),
            (std::vector<int64_t>{509910, 3922092, 3909324, 4096, 45056,
                                  818560, 1022460, 212652, 22, 80, 71, 77,
                                  69, 1064}));
  EXPECT_DOUBLE_EQ(sim_seconds, 1.12249426);
  EXPECT_EQ(run(FrontierMode::kDense, 4096, &sim_seconds),
            (std::vector<int64_t>{509910, 3922092, 3922092, 5120, 45056,
                                  818560, 1022460, 212652, 22, 0, 0, 0, 0,
                                  0}));
  EXPECT_DOUBLE_EQ(sim_seconds, 1.122499603);
  // Every round pushed through the cached, pipelined lookup client.
  EXPECT_EQ(run(FrontierMode::kSparse, 4096, &sim_seconds),
            (std::vector<int64_t>{509910, 1551960, 0, 0, 45056, 818560,
                                  402084, 212652, 22, 15753, 25045, 90,
                                  380580, 129330}));
  EXPECT_DOUBLE_EQ(sim_seconds, 1.124374968);
  // Three-key windows: a pull round's packed windows split most vertex
  // lists, and the charges must not move.
  EXPECT_EQ(run(FrontierMode::kDense, 3, &sim_seconds),
            (std::vector<int64_t>{509910, 3922092, 3922092, 5120, 45056,
                                  818560, 1022460, 212652, 22, 0, 0, 0, 0,
                                  0}));
  EXPECT_DOUBLE_EQ(sim_seconds, 1.122499603);
}

TEST(AmpcKCoreTest, UsesExactlyOneShuffle) {
  Graph g = graph::BuildGraph(graph::GenerateErdosRenyi(300, 1200, 9));
  sim::Cluster cluster(SmallConfig());
  core::KCoreResult result = core::AmpcKCore(cluster, g);
  EXPECT_EQ(cluster.metrics().Get("shuffles"), 1);
  EXPECT_GT(result.iterations, 1);
}

// MpcKCore recomputes every vertex every round; AmpcKCore recomputes
// only the active frontier, pushed or pulled per the frontier mode.
// Skipping an unchanged neighborhood is exact, so every mode must land
// on the baseline's coreness in the baseline's iteration count.
TEST(MpcKCoreTest, MatchesAmpcAndPaysOneShufflePerIteration) {
  Graph g = graph::BuildGraph(graph::GenerateErdosRenyi(300, 1200, 9));
  sim::Cluster mpc_cluster(SmallConfig());
  baselines::MpcKCoreResult mpc = baselines::MpcKCore(mpc_cluster, g);
  EXPECT_EQ(mpc.coreness, seq::CoreDecomposition(g));
  EXPECT_EQ(mpc_cluster.metrics().Get("shuffles"), mpc.iterations);

  for (const FrontierMode mode :
       {FrontierMode::kSparse, FrontierMode::kDense, FrontierMode::kHybrid}) {
    sim::ClusterConfig config = SmallConfig();
    config.frontier.mode = mode;
    sim::Cluster ampc_cluster(config);
    core::KCoreResult ampc = core::AmpcKCore(ampc_cluster, g);
    EXPECT_EQ(mpc.coreness, ampc.coreness) << FrontierModeName(mode);
    EXPECT_EQ(mpc.iterations, ampc.iterations) << FrontierModeName(mode);
  }
}

TEST(MpcKCoreTest, IsolatedVerticesStayZero) {
  graph::EdgeList list;
  list.num_nodes = 6;
  list.edges = {{0, 1}, {1, 2}, {2, 0}};
  Graph g = graph::BuildGraph(list);
  sim::Cluster cluster(SmallConfig());
  baselines::MpcKCoreResult result = baselines::MpcKCore(cluster, g);
  EXPECT_EQ(result.coreness,
            (std::vector<int32_t>{2, 2, 2, 0, 0, 0}));
}

}  // namespace
}  // namespace ampc
