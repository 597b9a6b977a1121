// The host-pool axis of the central contract: a job's outputs and every
// charge that is not host time are pure functions of (input, seed,
// ClusterConfig), never of the pool its Cluster runs on. Every AMPC core
// and MPC baseline below runs on pools of 1, 2 and 3 threads and on
// ThreadPool::Global() (hardware_concurrency() threads, the pool every
// Cluster gets by default), under the default config, multithreading
// off, cache off and a fault config. Each must return the same output,
// counters, non-wall timers (sim:*, sim_total, recovery replay) and round
// footprints on every pool; wall:* timers are host time and are skipped.
//
// The inputs are large enough that ParallelSort (cutoff 8,192 items) and
// GroupByKeyEngine (cutoff 16,384 records) split their work inside a
// job, so the 1-thread pool, passed explicitly, is what runs their
// serial paths there.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "baselines/boruvka.h"
#include "baselines/local_contraction.h"
#include "baselines/mpc_kcore.h"
#include "baselines/mpc_pagerank.h"
#include "baselines/rootset_matching.h"
#include "baselines/rootset_mis.h"
#include "common/thread_pool.h"
#include "core/connectivity.h"
#include "core/kcore.h"
#include "core/kkt.h"
#include "core/matching.h"
#include "core/mis.h"
#include "core/msf.h"
#include "core/one_vs_two_cycle.h"
#include "core/pagerank.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "seq/pagerank.h"
#include "sim/cluster.h"

namespace ampc {
namespace {

// A job's output flattened to integers; doubles by their bit pattern.
using Output = std::vector<int64_t>;

template <typename T>
void Append(Output& out, const std::vector<T>& values) {
  for (const T& v : values) {
    if constexpr (std::is_floating_point_v<T>) {
      out.push_back(std::bit_cast<int64_t>(static_cast<double>(v)));
    } else {
      out.push_back(static_cast<int64_t>(v));
    }
  }
}

struct Inputs {
  graph::EdgeList list;
  graph::Graph g;
  graph::WeightedEdgeList weighted;
  graph::Graph cycles;
};

// Built once: 10,000 vertices and 30,000 edges, so an MSF has about
// 10,000 edges to sort and a shuffle of one record per arc has 60,000.
const Inputs& TestInputs() {
  static const Inputs* const inputs = [] {
    auto* in = new Inputs;
    in->list = graph::GenerateErdosRenyi(10000, 30000, 7);
    in->g = graph::BuildGraph(in->list);
    in->weighted = graph::MakeDegreeWeighted(in->list, in->g);
    in->cycles = graph::BuildGraph(graph::GenerateDoubleCycle(5000));
    return in;
  }();
  return *inputs;
}

struct Job {
  std::string name;
  std::optional<FrontierMode> mode;  // the config's frontier mode if unset
  std::function<Output(sim::Cluster&, const Inputs&)> run;
};

std::vector<Job> Jobs() {
  using Cluster = sim::Cluster;
  auto kcore = [](Cluster& c, const Inputs& in) {
    const core::KCoreResult r = core::AmpcKCore(c, in.g);
    Output out{r.iterations};
    Append(out, r.coreness);
    return out;
  };
  auto pagerank = [](Cluster& c, const Inputs& in) {
    core::PageRankMcOptions options;
    options.walks_per_node = 2;
    const core::PageRankMcResult r =
        core::AmpcMonteCarloPageRank(c, in.g, options);
    Output out{r.total_steps};
    Append(out, r.rank);
    return out;
  };
  return {
      {"AmpcMis", std::nullopt,
       [](Cluster& c, const Inputs& in) {
         Output out;
         Append(out, core::AmpcMis(c, in.g, 3).in_mis);
         return out;
       }},
      {"AmpcMatching", std::nullopt,
       [](Cluster& c, const Inputs& in) {
         const core::MatchingResult r = core::AmpcMatching(c, in.g);
         Output out{r.phases};
         Append(out, r.partner);
         return out;
       }},
      {"AmpcMsf", std::nullopt,
       [](Cluster& c, const Inputs& in) {
         const core::MsfResult r = core::AmpcMsf(c, in.weighted);
         Output out{r.rounds, r.max_jump_chain};
         Append(out, r.edges);
         return out;
       }},
      {"AmpcConnectivity", std::nullopt,
       [](Cluster& c, const Inputs& in) {
         const core::ConnectivityResult r =
             core::AmpcConnectivity(c, in.list);
         Output out{r.num_components};
         Append(out, r.component);
         Append(out, r.forest_edges);
         return out;
       }},
      {"AmpcKCore/sparse", FrontierMode::kSparse, kcore},
      {"AmpcKCore/dense", FrontierMode::kDense, kcore},
      {"AmpcKCore/hybrid", FrontierMode::kHybrid, kcore},
      {"AmpcMonteCarloPageRank/sparse", FrontierMode::kSparse, pagerank},
      {"AmpcMonteCarloPageRank/dense", FrontierMode::kDense, pagerank},
      {"AmpcMsfKkt", std::nullopt,
       [](Cluster& c, const Inputs& in) {
         const core::KktResult r = core::AmpcMsfKkt(c, in.weighted);
         Output out{r.sampled_edges, r.light_edges};
         Append(out, r.msf_edges);
         return out;
       }},
      {"AmpcOneVsTwoCycle", std::nullopt,
       [](Cluster& c, const Inputs& in) {
         const core::CycleResult r = core::AmpcOneVsTwoCycle(c, in.cycles);
         return Output{r.num_cycles, r.visited, r.samples, r.attempts};
       }},
      {"MpcRootsetMis", std::nullopt,
       [](Cluster& c, const Inputs& in) {
         const baselines::RootsetMisResult r =
             baselines::MpcRootsetMis(c, in.g, 5);
         Output out{r.phases};
         Append(out, r.in_mis);
         return out;
       }},
      {"MpcRootsetMatching", std::nullopt,
       [](Cluster& c, const Inputs& in) {
         const baselines::RootsetMatchingResult r =
             baselines::MpcRootsetMatching(c, in.g, 5);
         Output out{r.phases};
         Append(out, r.partner);
         return out;
       }},
      {"MpcBoruvkaMsf", std::nullopt,
       [](Cluster& c, const Inputs& in) {
         const baselines::BoruvkaResult r =
             baselines::MpcBoruvkaMsf(c, in.weighted, 5);
         Output out{r.phases};
         Append(out, r.edges);
         return out;
       }},
      {"MpcLocalContractionCC", std::nullopt,
       [](Cluster& c, const Inputs& in) {
         const baselines::LocalContractionResult r =
             baselines::MpcLocalContractionCC(c, in.list, 5);
         Output out{r.num_components, r.iterations};
         Append(out, r.component);
         return out;
       }},
      {"MpcKCore", std::nullopt,
       [](Cluster& c, const Inputs& in) {
         const baselines::MpcKCoreResult r = baselines::MpcKCore(c, in.g);
         Output out{r.iterations};
         Append(out, r.coreness);
         return out;
       }},
      {"MpcPageRank", std::nullopt,
       [](Cluster& c, const Inputs& in) {
         seq::PageRankOptions options;
         options.max_iterations = 4;
         const baselines::MpcPageRankResult r =
             baselines::MpcPageRank(c, in.g, options);
         Output out{r.iterations};
         Append(out, r.rank);
         return out;
       }},
  };
}

// Everything a job returns or charges, except host time.
struct Record {
  Output output;
  std::map<std::string, int64_t> counters;
  std::map<std::string, double> timers;  // every timer but wall:*
  std::vector<std::tuple<std::string, double, std::vector<int64_t>,
                         std::vector<int64_t>>>
      rounds;
};

Record RunJob(const Job& job, sim::ClusterConfig config, ThreadPool& pool) {
  if (job.mode) config.frontier.mode = *job.mode;
  sim::Cluster cluster(config, pool);
  Record record;
  record.output = job.run(cluster, TestInputs());
  const MetricsSnapshot snapshot = cluster.metrics().Snapshot();
  record.counters = snapshot.counters;
  for (const auto& [name, seconds] : snapshot.timers_sec) {
    if (!name.starts_with("wall")) record.timers[name] = seconds;
  }
  for (const sim::RoundFootprint& round : cluster.round_footprints()) {
    record.rounds.emplace_back(round.phase, round.sim_seconds,
                               round.kv_read_bytes, round.kv_write_bytes);
  }
  return record;
}

// Runs every job on pools of 1, 2 and 3 threads and on ThreadPool::Global()
// and requires each record to equal the 1-thread pool's.
void ExpectSameOnEveryPool(const sim::ClusterConfig& config) {
  std::vector<std::unique_ptr<ThreadPool>> owned;
  std::vector<ThreadPool*> pools;
  for (const int threads : {1, 2, 3}) {
    owned.push_back(std::make_unique<ThreadPool>(threads));
    pools.push_back(owned.back().get());
  }
  pools.push_back(&ThreadPool::Global());
  for (const Job& job : Jobs()) {
    const Record reference = RunJob(job, config, *pools[0]);
    EXPECT_FALSE(reference.rounds.empty()) << job.name;
    for (size_t p = 1; p < pools.size(); ++p) {
      SCOPED_TRACE(job.name + " on a pool of " +
                   std::to_string(pools[p]->num_threads()) + " threads");
      const Record got = RunJob(job, config, *pools[p]);
      EXPECT_TRUE(got.output == reference.output);
      EXPECT_EQ(got.counters, reference.counters);
      EXPECT_EQ(got.timers, reference.timers);
      EXPECT_TRUE(got.rounds == reference.rounds);
    }
  }
}

TEST(HostPoolTest, DefaultConfig) { ExpectSameOnEveryPool({}); }

TEST(HostPoolTest, MultithreadingOff) {
  sim::ClusterConfig config;
  config.multithreading = false;
  ExpectSameOnEveryPool(config);
}

TEST(HostPoolTest, CacheOff) {
  sim::ClusterConfig config;
  config.query_cache.enabled = false;
  ExpectSameOnEveryPool(config);
}

// Kills (single and by rack), replicas, checkpoints, warned drains,
// stragglers and hedged lookups, all on the simulated clock.
TEST(HostPoolTest, Faults) {
  sim::ClusterConfig config;
  config.faults.fault_rate_per_machine_sec = 2.0;
  config.faults.replication = 2;
  config.faults.checkpoint_period_sec = 0.2;
  config.faults.warning_lead_sec = 0.05;
  config.faults.machines_per_domain = 2;
  config.faults.domain_fault_rate_sec = 0.5;
  config.faults.slow_machine_rate = 0.1;
  config.faults.hedge_lookups = true;
  ExpectSameOnEveryPool(config);
}

}  // namespace
}  // namespace ampc
