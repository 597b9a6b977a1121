// Acceptance test for the sharded DHT: every core algorithm's output is
// a pure function of the input and seed — bit-identical across
// num_machines (1, 3, 8), thread counts, lookup batching mode (batched
// vs scalar round-trip charging), query-result caching on/off, adaptive
// sub-batch bounds and pipeline depth (lockstep vs bounded-depth
// in-flight windows) — while the *cost model* is free to differ (that is
// the point of per-machine accounting).
// A separate test pins outputs across placement policies.
#include <gtest/gtest.h>

#include <vector>

#include "core/connectivity.h"
#include "core/kcore.h"
#include "core/matching.h"
#include "core/mis.h"
#include "core/msf.h"
#include "core/one_vs_two_cycle.h"
#include "core/pagerank.h"
#include "graph/generators.h"
#include "sim/cluster.h"

namespace ampc {
namespace {

struct ClusterShape {
  int machines;
  int threads;
  bool batch_lookups = true;
  bool query_cache = true;
  int64_t max_batch_keys = 4096;  // the ClusterConfig default
  int pipeline_depth = 4;         // the ClusterConfig default
};

// Machine/thread grid crossed with the lookup-pipeline toggles: batching
// on/off x caching on/off x pipeline depth {1, 4}, plus a deliberately
// tiny sub-batch bound that splits DriveLookupPipelined's frontier
// windows (and kcore's neighbor-list windows) on every workload (and,
// at depth 4, several windows genuinely in flight per step).
const ClusterShape kShapes[] = {
    // batch on, cache on (the optimized client; depth 4 = the default)
    {1, 1, true, true},
    {3, 2, true, true},
    {8, 4, true, true},
    {3, 1, true, true},
    {8, 1, true, true},
    // batch off, cache on
    {1, 1, false, true},
    {3, 2, false, true},
    {8, 4, false, true},
    {8, 1, false, true},
    // batch on, cache off (the PR 3 pipeline)
    {1, 1, true, false},
    {8, 4, true, false},
    // batch off, cache off (the unoptimized scalar client)
    {3, 2, false, false},
    {8, 4, false, false},
    // sub-batching forced: windows of 16 in-flight keys
    {8, 4, true, true, /*max_batch_keys=*/16},
    {3, 2, true, false, /*max_batch_keys=*/16},
    // pipelining forced off (lockstep) across the toggle grid
    {8, 4, true, true, 4096, /*pipeline_depth=*/1},
    {3, 2, true, false, 4096, /*pipeline_depth=*/1},
    {8, 1, false, true, 4096, /*pipeline_depth=*/1},
    // lockstep x forced windows, and a deep pipeline over tiny windows
    {8, 4, true, true, /*max_batch_keys=*/16, /*pipeline_depth=*/1},
    {3, 2, true, true, /*max_batch_keys=*/16, /*pipeline_depth=*/8},
    // cache off x forced windows x lockstep at 8 machines
    {8, 4, true, false, /*max_batch_keys=*/16, /*pipeline_depth=*/1},
};

sim::Cluster MakeCluster(const ClusterShape& shape) {
  sim::ClusterConfig config;
  config.num_machines = shape.machines;
  config.threads_per_machine = shape.threads;
  config.batch_lookups = shape.batch_lookups;
  config.query_cache.enabled = shape.query_cache;
  config.max_batch_keys = shape.max_batch_keys;
  config.pipeline_depth = shape.pipeline_depth;
  return sim::Cluster(config);
}

sim::Cluster MakeCluster(int machines, kv::PlacementPolicy policy) {
  sim::ClusterConfig config;
  config.num_machines = machines;
  config.threads_per_machine = 2;
  config.placement_policy = policy;
  return sim::Cluster(config);
}

const kv::PlacementPolicy kPolicies[] = {kv::PlacementPolicy::kHash,
                                         kv::PlacementPolicy::kRange,
                                         kv::PlacementPolicy::kAffinity};

TEST(ShardingDeterminismTest, MisIdenticalAcrossMachineCounts) {
  graph::Graph g = graph::BuildGraph(graph::GenerateRmat(9, 3000, 17));
  sim::Cluster reference = MakeCluster(kShapes[0]);
  const core::MisResult expected = core::AmpcMis(reference, g, 17);
  for (const ClusterShape& shape : kShapes) {
    sim::Cluster cluster = MakeCluster(shape);
    EXPECT_EQ(core::AmpcMis(cluster, g, 17).in_mis, expected.in_mis)
        << shape.machines << " machines, " << shape.threads << " threads";
  }
}

TEST(ShardingDeterminismTest, KCoreIdenticalAcrossMachineCounts) {
  graph::Graph g =
      graph::BuildGraph(graph::GenerateErdosRenyi(400, 2400, 23));
  sim::Cluster reference = MakeCluster(kShapes[0]);
  const core::KCoreResult expected = core::AmpcKCore(reference, g);
  for (const ClusterShape& shape : kShapes) {
    sim::Cluster cluster = MakeCluster(shape);
    const core::KCoreResult got = core::AmpcKCore(cluster, g);
    EXPECT_EQ(got.coreness, expected.coreness);
    EXPECT_EQ(got.iterations, expected.iterations);
  }
}

TEST(ShardingDeterminismTest, MsfIdenticalAcrossMachineCounts) {
  graph::WeightedEdgeList list = graph::MakeRandomWeighted(
      graph::GenerateErdosRenyi(500, 2500, 31), /*seed=*/31);
  core::MsfOptions options;
  options.seed = 31;
  sim::Cluster reference = MakeCluster(kShapes[0]);
  const core::MsfResult expected =
      core::AmpcMsf(reference, list, options);
  for (const ClusterShape& shape : kShapes) {
    sim::Cluster cluster = MakeCluster(shape);
    EXPECT_EQ(core::AmpcMsf(cluster, list, options).edges, expected.edges)
        << shape.machines << " machines";
  }
}

TEST(ShardingDeterminismTest, MatchingIdenticalAcrossMachineCounts) {
  graph::Graph g =
      graph::BuildGraph(graph::GenerateErdosRenyi(300, 1500, 41));
  core::MatchingOptions options;
  options.seed = 41;
  sim::Cluster reference = MakeCluster(kShapes[0]);
  const core::MatchingResult expected =
      core::AmpcMatching(reference, g, options);
  for (const ClusterShape& shape : kShapes) {
    sim::Cluster cluster = MakeCluster(shape);
    EXPECT_EQ(core::AmpcMatching(cluster, g, options).partner,
              expected.partner);
  }
}

TEST(ShardingDeterminismTest, PageRankIdenticalAcrossMachineCounts) {
  graph::Graph g =
      graph::BuildGraph(graph::GenerateErdosRenyi(200, 1000, 53));
  core::PageRankMcOptions options;
  options.seed = 53;
  options.walks_per_node = 4;
  sim::Cluster reference = MakeCluster(kShapes[0]);
  const core::PageRankMcResult expected =
      core::AmpcMonteCarloPageRank(reference, g, options);
  for (const ClusterShape& shape : kShapes) {
    sim::Cluster cluster = MakeCluster(shape);
    const core::PageRankMcResult got =
        core::AmpcMonteCarloPageRank(cluster, g, options);
    EXPECT_EQ(got.rank, expected.rank);
    EXPECT_EQ(got.total_steps, expected.total_steps);
  }
}

TEST(ShardingDeterminismTest, ConnectivityIdenticalAcrossMachineCounts) {
  graph::EdgeList list = graph::GenerateErdosRenyi(400, 900, 61);
  sim::Cluster reference = MakeCluster(kShapes[0]);
  const core::ConnectivityResult expected =
      core::AmpcConnectivity(reference, list, {});
  for (const ClusterShape& shape : kShapes) {
    sim::Cluster cluster = MakeCluster(shape);
    const core::ConnectivityResult got =
        core::AmpcConnectivity(cluster, list, {});
    EXPECT_EQ(got.component, expected.component);
    EXPECT_EQ(got.num_components, expected.num_components);
  }
}

TEST(ShardingDeterminismTest, OneVsTwoCycleIdenticalAcrossMachineCounts) {
  graph::Graph g = graph::BuildGraph(graph::GenerateCycle(600));
  core::CycleOptions options;
  options.seed = 71;
  sim::Cluster reference = MakeCluster(kShapes[0]);
  const core::CycleResult expected =
      core::AmpcOneVsTwoCycle(reference, g, options);
  for (const ClusterShape& shape : kShapes) {
    sim::Cluster cluster = MakeCluster(shape);
    const core::CycleResult got =
        core::AmpcOneVsTwoCycle(cluster, g, options);
    EXPECT_EQ(got.num_cycles, expected.num_cycles);
    EXPECT_EQ(got.attempts, expected.attempts);
  }
}

// Placement only moves records and work between machines; it must never
// change what an algorithm computes.
TEST(ShardingDeterminismTest, MisIdenticalAcrossPlacementPolicies) {
  graph::Graph g = graph::BuildGraph(graph::GenerateRmat(9, 3000, 17));
  sim::Cluster reference = MakeCluster(1, kv::PlacementPolicy::kHash);
  const core::MisResult expected = core::AmpcMis(reference, g, 17);
  for (const kv::PlacementPolicy policy : kPolicies) {
    for (const int machines : {3, 8}) {
      sim::Cluster cluster = MakeCluster(machines, policy);
      EXPECT_EQ(core::AmpcMis(cluster, g, 17).in_mis, expected.in_mis)
          << kv::PlacementPolicyName(policy) << " x " << machines;
    }
  }
}

TEST(ShardingDeterminismTest, MsfIdenticalAcrossPlacementPolicies) {
  graph::WeightedEdgeList list = graph::MakeRandomWeighted(
      graph::GenerateErdosRenyi(500, 2500, 31), /*seed=*/31);
  core::MsfOptions options;
  options.seed = 31;
  sim::Cluster reference = MakeCluster(1, kv::PlacementPolicy::kHash);
  const core::MsfResult expected = core::AmpcMsf(reference, list, options);
  for (const kv::PlacementPolicy policy : kPolicies) {
    for (const int machines : {3, 8}) {
      sim::Cluster cluster = MakeCluster(machines, policy);
      EXPECT_EQ(core::AmpcMsf(cluster, list, options).edges, expected.edges)
          << kv::PlacementPolicyName(policy) << " x " << machines;
    }
  }
}

TEST(ShardingDeterminismTest, KCoreIdenticalAcrossPlacementPolicies) {
  graph::Graph g =
      graph::BuildGraph(graph::GenerateErdosRenyi(400, 2400, 23));
  sim::Cluster reference = MakeCluster(1, kv::PlacementPolicy::kHash);
  const core::KCoreResult expected = core::AmpcKCore(reference, g);
  for (const kv::PlacementPolicy policy : kPolicies) {
    sim::Cluster cluster = MakeCluster(8, policy);
    const core::KCoreResult got = core::AmpcKCore(cluster, g);
    EXPECT_EQ(got.coreness, expected.coreness)
        << kv::PlacementPolicyName(policy);
    EXPECT_EQ(got.iterations, expected.iterations);
  }
}

// --- Injected churn -------------------------------------------------
// Machine failures are a *cost* event, never a correctness event: the
// recovery machinery (replica re-streaming, checkpoint restore, round
// replay, cache drops) must leave every output bit-identical to a
// fault-free run, across kill seeds, machine counts, and pipeline
// depths.

sim::Cluster MakeChurnCluster(int machines, int depth, uint64_t kill_seed,
                              int replication, double checkpoint_period,
                              double rate = 1.0) {
  sim::ClusterConfig config;
  config.num_machines = machines;
  config.threads_per_machine = 2;
  config.pipeline_depth = depth;
  // Simulated jobs here run ~0.2-1 second; one kill per machine-second
  // guarantees churn actually happens without drowning the job.
  config.faults.fault_rate_per_machine_sec = rate;
  config.faults.fault_seed = kill_seed;
  config.faults.replication = replication;
  config.faults.checkpoint_period_sec = checkpoint_period;
  return sim::Cluster(config);
}

TEST(ShardingDeterminismTest, MisIdenticalUnderReplicatedChurn) {
  graph::Graph g = graph::BuildGraph(graph::GenerateRmat(9, 3000, 17));
  sim::Cluster reference = MakeCluster(kShapes[0]);  // fault-free
  const core::MisResult expected = core::AmpcMis(reference, g, 17);
  int64_t kills = 0;
  for (const uint64_t kill_seed : {1u, 7u, 99u}) {
    for (const int machines : {3, 8}) {
      for (const int depth : {1, 4}) {
        sim::Cluster cluster =
            MakeChurnCluster(machines, depth, kill_seed,
                             /*replication=*/2, /*checkpoint_period=*/0.0);
        EXPECT_EQ(core::AmpcMis(cluster, g, 17).in_mis, expected.in_mis)
            << "kill seed " << kill_seed << ", " << machines
            << " machines, depth " << depth;
        kills += cluster.metrics().Get("machines_lost");
      }
    }
  }
  // The axis is vacuous unless machines actually died along the way.
  EXPECT_GT(kills, 0);
}

TEST(ShardingDeterminismTest, KCoreIdenticalUnderCheckpointedChurn) {
  graph::Graph g =
      graph::BuildGraph(graph::GenerateErdosRenyi(400, 2400, 23));
  sim::Cluster reference = MakeCluster(kShapes[0]);
  const core::KCoreResult expected = core::AmpcKCore(reference, g);
  int64_t kills = 0;
  for (const uint64_t kill_seed : {5u, 13u}) {
    for (const int machines : {3, 8}) {
      sim::Cluster cluster =
          MakeChurnCluster(machines, /*depth=*/4, kill_seed,
                           /*replication=*/1, /*checkpoint_period=*/0.3);
      const core::KCoreResult got = core::AmpcKCore(cluster, g);
      EXPECT_EQ(got.coreness, expected.coreness)
          << "kill seed " << kill_seed << ", " << machines << " machines";
      EXPECT_EQ(got.iterations, expected.iterations);
      kills += cluster.metrics().Get("machines_lost");
    }
  }
  EXPECT_GT(kills, 0);
}

TEST(ShardingDeterminismTest, MatchingIdenticalUnderUnprotectedChurn) {
  // Even with neither replicas nor checkpoints (whole-job-restart
  // charging, the most expensive recovery), outputs never move.
  graph::Graph g =
      graph::BuildGraph(graph::GenerateErdosRenyi(300, 1500, 41));
  core::MatchingOptions options;
  options.seed = 41;
  sim::Cluster reference = MakeCluster(kShapes[0]);
  const core::MatchingResult expected =
      core::AmpcMatching(reference, g, options);
  for (const uint64_t kill_seed : {3u, 21u}) {
    sim::Cluster cluster =
        MakeChurnCluster(8, /*depth=*/4, kill_seed,
                         /*replication=*/1, /*checkpoint_period=*/0.0);
    EXPECT_EQ(core::AmpcMatching(cluster, g, options).partner,
              expected.partner)
        << "kill seed " << kill_seed;
  }
}

TEST(ShardingDeterminismTest, ChurnCostModelIsDeterministic) {
  // The injected schedule is a pure function of (rate, seed, machines):
  // the same run twice loses the same machines and charges the same
  // simulated cost, bit for bit, despite real threads underneath.
  graph::Graph g = graph::BuildGraph(graph::GenerateRmat(9, 3000, 17));
  // Rate high enough that this one short job certainly loses machines.
  sim::Cluster a = MakeChurnCluster(8, 4, /*kill_seed=*/7,
                                    /*replication=*/2,
                                    /*checkpoint_period=*/0.0, /*rate=*/5.0);
  sim::Cluster b = MakeChurnCluster(8, 4, /*kill_seed=*/7,
                                    /*replication=*/2,
                                    /*checkpoint_period=*/0.0, /*rate=*/5.0);
  EXPECT_EQ(core::AmpcMis(a, g, 17).in_mis, core::AmpcMis(b, g, 17).in_mis);
  EXPECT_EQ(a.metrics().Get("machines_lost"),
            b.metrics().Get("machines_lost"));
  EXPECT_GT(a.metrics().Get("machines_lost"), 0);
  EXPECT_DOUBLE_EQ(a.SimSeconds(), b.SimSeconds());
  EXPECT_DOUBLE_EQ(a.metrics().GetTime("sim:recovery"),
                   b.metrics().GetTime("sim:recovery"));
}

// --- Correlated domains, proactive drain, hedging -------------------
// The degradation layers stack the same way churn does: rack-level
// domain kills, failure warnings that drain and migrate shards
// mid-job, straggling destinations, and hedged lookups are all cost
// events. Outputs stay bit-identical across machine and thread counts
// under every combination, and the charged cost is itself a pure
// function of the config.

sim::Cluster MakeDegradeCluster(int machines, int threads,
                                uint64_t kill_seed, double warning_lead,
                                bool hedge) {
  sim::ClusterConfig config;
  config.num_machines = machines;
  config.threads_per_machine = threads;
  config.faults.fault_seed = kill_seed;
  config.faults.replication = 2;
  // Per-machine and rack-level kill streams both run: jobs here last
  // ~0.2-1 simulated second, so these rates land a handful of each.
  config.faults.fault_rate_per_machine_sec = 1.0;
  config.faults.machines_per_domain = 2;
  config.faults.domain_fault_rate_sec = 2.0;
  config.faults.warning_lead_sec = warning_lead;
  config.faults.slow_machine_rate = 0.25;
  config.faults.hedge_lookups = hedge;
  return sim::Cluster(config);
}

TEST(ShardingDeterminismTest, MisIdenticalUnderDomainDrainHedgeChurn) {
  graph::Graph g = graph::BuildGraph(graph::GenerateRmat(9, 3000, 17));
  sim::Cluster reference = MakeCluster(kShapes[0]);  // fault-free
  const core::MisResult expected = core::AmpcMis(reference, g, 17);
  int64_t domain_kills = 0, drains = 0;
  for (const double warning_lead : {0.0, 0.05}) {
    for (const bool hedge : {false, true}) {
      for (const int machines : {4, 8}) {
        for (const int threads : {1, 4}) {
          sim::Cluster cluster = MakeDegradeCluster(
              machines, threads, /*kill_seed=*/7, warning_lead, hedge);
          EXPECT_EQ(core::AmpcMis(cluster, g, 17).in_mis, expected.in_mis)
              << machines << " machines, " << threads
              << " threads, lead " << warning_lead << ", hedge " << hedge;
          domain_kills += cluster.metrics().Get("domains_lost");
          drains += cluster.metrics().Get("machines_drained");
        }
      }
    }
  }
  // The axis is vacuous unless racks actually died and warned machines
  // actually drained along the way.
  EXPECT_GT(domain_kills, 0);
  EXPECT_GT(drains, 0);
}

TEST(ShardingDeterminismTest, DegradeCostModelIsDeterministic) {
  // The full degradation stack — domain kills, drains with live shard
  // migration, stragglers, hedging — charges the same simulated cost
  // bit for bit on identical configs, despite real threads underneath.
  graph::Graph g = graph::BuildGraph(graph::GenerateRmat(9, 3000, 17));
  sim::Cluster a = MakeDegradeCluster(8, 4, /*kill_seed=*/7,
                                      /*warning_lead=*/0.05, /*hedge=*/true);
  sim::Cluster b = MakeDegradeCluster(8, 4, /*kill_seed=*/7,
                                      /*warning_lead=*/0.05, /*hedge=*/true);
  EXPECT_EQ(core::AmpcMis(a, g, 17).in_mis, core::AmpcMis(b, g, 17).in_mis);
  for (const char* counter :
       {"machines_lost", "domains_lost", "machines_drained",
        "shards_migrated", "kv_migration_bytes", "kv_slow_trips",
        "kv_hedged_trips", "kv_hedge_wins"}) {
    EXPECT_EQ(a.metrics().Get(counter), b.metrics().Get(counter))
        << counter;
  }
  EXPECT_GT(a.metrics().Get("machines_drained"), 0);
  EXPECT_GT(a.metrics().Get("kv_hedge_wins"), 0);
  EXPECT_DOUBLE_EQ(a.SimSeconds(), b.SimSeconds());
  EXPECT_DOUBLE_EQ(a.metrics().GetTime("sim:drain"),
                   b.metrics().GetTime("sim:drain"));
  EXPECT_DOUBLE_EQ(a.metrics().GetTime("sim:recovery"),
                   b.metrics().GetTime("sim:recovery"));
}

// --- Frontier engine ------------------------------------------------
// The frontier representation (push pipeline vs bitmap-broadcast pull)
// is a cost decision, never a value decision: every mode must produce
// the sparse mode's outputs bit for bit, across machine and thread
// counts. Alpha is forced low / beta high in one axis entry so hybrid
// actually flips representations mid-run on these small graphs.

struct FrontierShape {
  FrontierMode mode;
  double alpha;
  double beta;
  int machines;
  int threads;
};

const FrontierShape kFrontierShapes[] = {
    {FrontierMode::kSparse, 0, 0, 3, 2},
    {FrontierMode::kDense, 0, 0, 1, 1},
    {FrontierMode::kDense, 0, 0, 3, 2},
    {FrontierMode::kDense, 0, 0, 8, 4},
    {FrontierMode::kHybrid, 0, 0, 3, 2},
    {FrontierMode::kHybrid, 0, 0, 8, 4},
    {FrontierMode::kHybrid, 0, 0, 8, 1},
    // Aggressive thresholds: dense from nearly any frontier, back to
    // sparse only when almost empty — maximizes mid-run flips.
    {FrontierMode::kHybrid, 1e6, 2, 8, 4},
    {FrontierMode::kHybrid, 1e6, 2, 3, 2},
};

sim::Cluster MakeFrontierCluster(const FrontierShape& shape) {
  sim::ClusterConfig config;
  config.num_machines = shape.machines;
  config.threads_per_machine = shape.threads;
  config.frontier.mode = shape.mode;
  if (shape.alpha > 0) config.frontier.alpha = shape.alpha;
  if (shape.beta > 0) config.frontier.beta = shape.beta;
  return sim::Cluster(config);
}

TEST(ShardingDeterminismTest, KCoreIdenticalAcrossFrontierModes) {
  graph::Graph g =
      graph::BuildGraph(graph::GenerateErdosRenyi(400, 2400, 23));
  sim::Cluster reference = MakeCluster(kShapes[0]);  // default sparse mode
  const core::KCoreResult expected = core::AmpcKCore(reference, g);
  for (const FrontierShape& shape : kFrontierShapes) {
    sim::Cluster cluster = MakeFrontierCluster(shape);
    const core::KCoreResult got = core::AmpcKCore(cluster, g);
    EXPECT_EQ(got.coreness, expected.coreness)
        << FrontierModeName(shape.mode) << " x " << shape.machines
        << " machines, " << shape.threads << " threads";
    EXPECT_EQ(got.iterations, expected.iterations);
  }
}

TEST(ShardingDeterminismTest, PageRankIdenticalAcrossFrontierModes) {
  graph::Graph g =
      graph::BuildGraph(graph::GenerateErdosRenyi(200, 1000, 53));
  core::PageRankMcOptions options;
  options.seed = 53;
  options.walks_per_node = 4;
  sim::Cluster reference = MakeCluster(kShapes[0]);
  const core::PageRankMcResult expected =
      core::AmpcMonteCarloPageRank(reference, g, options);
  for (const FrontierShape& shape : kFrontierShapes) {
    sim::Cluster cluster = MakeFrontierCluster(shape);
    const core::PageRankMcResult got =
        core::AmpcMonteCarloPageRank(cluster, g, options);
    EXPECT_EQ(got.rank, expected.rank)
        << FrontierModeName(shape.mode) << " x " << shape.machines;
    EXPECT_EQ(got.total_steps, expected.total_steps);
  }
}

TEST(ShardingDeterminismTest, ConnectivityIdenticalAcrossFrontierModes) {
  graph::EdgeList list = graph::GenerateErdosRenyi(400, 900, 61);
  sim::Cluster reference = MakeCluster(kShapes[0]);
  const core::ConnectivityResult expected =
      core::AmpcConnectivity(reference, list, {});
  for (const FrontierShape& shape : kFrontierShapes) {
    sim::Cluster cluster = MakeFrontierCluster(shape);
    const core::ConnectivityResult got =
        core::AmpcConnectivity(cluster, list, {});
    EXPECT_EQ(got.component, expected.component)
        << FrontierModeName(shape.mode) << " x " << shape.machines;
    EXPECT_EQ(got.num_components, expected.num_components);
  }
}

TEST(ShardingDeterminismTest, PersonalizedPageRankIdenticalAcrossFrontierModes) {
  // The one-vertex source frontier must stay sparse under hybrid and
  // still match when forced dense.
  graph::Graph g =
      graph::BuildGraph(graph::GenerateErdosRenyi(300, 1800, 67));
  core::PageRankMcOptions options;
  options.seed = 67;
  options.walks_per_node = 4;
  sim::Cluster reference = MakeCluster(kShapes[0]);
  const core::PageRankMcResult expected =
      core::AmpcPersonalizedPageRank(reference, g, /*source=*/5, options);
  for (const FrontierShape& shape : kFrontierShapes) {
    sim::Cluster cluster = MakeFrontierCluster(shape);
    const core::PageRankMcResult got =
        core::AmpcPersonalizedPageRank(cluster, g, /*source=*/5, options);
    EXPECT_EQ(got.rank, expected.rank)
        << FrontierModeName(shape.mode) << " x " << shape.machines;
    EXPECT_EQ(got.total_steps, expected.total_steps);
  }
}

TEST(ShardingDeterminismTest, PageRankIdenticalAcrossPlacementPolicies) {
  graph::Graph g =
      graph::BuildGraph(graph::GenerateErdosRenyi(200, 1000, 53));
  core::PageRankMcOptions options;
  options.seed = 53;
  options.walks_per_node = 4;
  sim::Cluster reference = MakeCluster(1, kv::PlacementPolicy::kHash);
  const core::PageRankMcResult expected =
      core::AmpcMonteCarloPageRank(reference, g, options);
  for (const kv::PlacementPolicy policy : kPolicies) {
    sim::Cluster cluster = MakeCluster(8, policy);
    const core::PageRankMcResult got =
        core::AmpcMonteCarloPageRank(cluster, g, options);
    EXPECT_EQ(got.rank, expected.rank) << kv::PlacementPolicyName(policy);
    EXPECT_EQ(got.total_steps, expected.total_steps);
  }
}

}  // namespace
}  // namespace ampc
