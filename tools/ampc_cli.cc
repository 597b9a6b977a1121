// ampc_cli — run any algorithm in this library on a graph from a file or
// a generator, with either the AMPC engine or its MPC baseline, and print
// the round/communication/time accounting.
//
// Examples:
//   ampc_cli mis --gen rmat --nodes 16384 --edges 200000
//   ampc_cli msf --input graph.txt --engine mpc
//   ampc_cli cc --gen double_cycle --nodes 100000 --machines 16
//   ampc_cli pagerank --gen er --nodes 4096 --edges 40000 --walks 32
//   ampc_cli 1v2cycle --nodes 1000000 --cycles 2
//
// Run `ampc_cli --help` for the full flag list.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "baselines/boruvka.h"
#include "baselines/local_contraction.h"
#include "baselines/mpc_kcore.h"
#include "baselines/mpc_pagerank.h"
#include "baselines/rootset_matching.h"
#include "baselines/rootset_mis.h"
#include "common/logging.h"
#include "core/connectivity.h"
#include "core/kcore.h"
#include "core/matching.h"
#include "core/mis.h"
#include "core/msf.h"
#include "core/one_vs_two_cycle.h"
#include "core/pagerank.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/stats.h"
#include "kv/network_model.h"
#include "seq/kcore.h"
#include "seq/pagerank.h"
#include "sim/cluster.h"

namespace {

using namespace ampc;

struct Args {
  std::string algorithm;
  std::string input;
  std::string gen = "rmat";
  std::string engine = "ampc";
  std::string network = "rdma";
  int64_t nodes = 1 << 14;
  int64_t edges = 1 << 17;
  int cycles = 2;  // for 1v2cycle
  uint64_t seed = 42;
  int machines = 8;
  int threads = 8;
  int walks = 16;  // pagerank walks per node
  bool caching = true;
  bool multithreading = true;
  // Elastic-cluster knobs (sim::ClusterConfig::FaultConfig).
  double fault_rate = 0.0;
  uint64_t fault_seed = 42;
  int replication = 1;
  double checkpoint_period = 0.0;
  int machines_per_domain = 0;
  double domain_fault_rate = 0.0;
  double warning_lead = 0.0;
  double slow_machine_rate = 0.0;
  bool hedge = false;
  // Frontier engine (sim::ClusterConfig::FrontierConfig).
  std::string frontier_mode = "sparse";
  double frontier_alpha = FrontierPolicy::kDefaultAlpha;
  double frontier_beta = FrontierPolicy::kDefaultBeta;
};

void PrintUsage() {
  std::printf(
      "usage: ampc_cli <algorithm> [flags]\n"
      "\n"
      "algorithms:\n"
      "  mis        maximal independent set        (engines: ampc, mpc)\n"
      "  mm         maximal matching               (engines: ampc, mpc)\n"
      "  msf        minimum spanning forest        (engines: ampc, mpc)\n"
      "  cc         connected components           (engines: ampc, mpc)\n"
      "  kcore      core decomposition             (engines: ampc, mpc)\n"
      "  pagerank   PageRank                       (engines: ampc, mpc)\n"
      "  1v2cycle   1-vs-2-cycle decision          (engines: ampc, mpc)\n"
      "\n"
      "input (pick one):\n"
      "  --input FILE     text edge list: `u v` per line, # comments\n"
      "  --gen NAME       generator: rmat | er | cycle | double_cycle |\n"
      "                   grid | tree | star | complete  (default rmat)\n"
      "  --nodes N        generator size        (default 16384)\n"
      "  --edges M        generator edge count  (default 131072)\n"
      "\n"
      "engine & cluster:\n"
      "  --engine E       ampc | mpc                     (default ampc)\n"
      "  --machines P     logical machines               (default 8)\n"
      "  --threads T      worker threads per machine     (default 8)\n"
      "  --network N      rdma | tcp                     (default rdma)\n"
      "  --no-cache       disable the caching optimization\n"
      "  --no-mt          disable the multithreading optimization\n"
      "  --seed S         randomness seed                (default 42)\n"
      "  --walks W        pagerank: walks per node       (default 16)\n"
      "  --cycles C       1v2cycle: build 1 or 2 cycles  (default 2)\n"
      "\n"
      "failure model (outputs stay bit-identical; only cost changes):\n"
      "  --fault-rate R          Poisson kills per machine-second of\n"
      "                          simulated time        (default 0 = off)\n"
      "  --fault-seed S          kill-schedule seed    (default 42)\n"
      "  --replication R         copies of every DHT record (default 1)\n"
      "  --checkpoint-period T   simulated seconds between shard\n"
      "                          checkpoints           (default 0 = off)\n"
      "  --machines-per-domain D machines sharing one fault domain\n"
      "                          (rack); replicas span domains\n"
      "                                                (default 0 = off)\n"
      "  --domain-fault-rate R   Poisson rack kills per domain-second —\n"
      "                          every machine in the domain dies at\n"
      "                          once                  (default 0 = off)\n"
      "  --warning-lead T        failure warnings arrive T simulated\n"
      "                          seconds before each kill; the cluster\n"
      "                          drains the machine, migrating its\n"
      "                          shards live             (default 0 = off)\n"
      "  --slow-machine-rate R   fraction of (round, machine) pairs that\n"
      "                          run lookups 4x slow   (default 0 = off)\n"
      "  --hedge                 hedged lookups: re-issue timed-out trips\n"
      "                          to a replica, first answer wins (needs\n"
      "                          --replication 2+ and --slow-machine-rate)\n"
      "\n"
      "frontier engine (outputs stay bit-identical; only cost changes):\n"
      "  --frontier-mode M       sparse | dense | hybrid (default sparse)\n"
      "  --frontier-alpha A      hybrid: go dense when frontier out-edges\n"
      "                          exceed total_edges/A  (default 15)\n"
      "  --frontier-beta B       hybrid: back to sparse when frontier\n"
      "                          shrinks below nodes/B (default 18)\n"
      "\n"
      "Instead of an algorithm, `ampc_cli --lint-config [flags]` dumps\n"
      "the effective ClusterConfig: every knob with its value and its\n"
      "off-state marker (checked against the struct by ampc_lint).\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->algorithm = argv[1];
  if (args->algorithm == "--help" || args->algorithm == "-h") return false;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--input") {
      args->input = next();
    } else if (flag == "--gen") {
      args->gen = next();
    } else if (flag == "--engine") {
      args->engine = next();
    } else if (flag == "--network") {
      args->network = next();
    } else if (flag == "--nodes") {
      args->nodes = std::atoll(next());
    } else if (flag == "--edges") {
      args->edges = std::atoll(next());
    } else if (flag == "--cycles") {
      args->cycles = std::atoi(next());
    } else if (flag == "--seed") {
      args->seed = std::strtoull(next(), nullptr, 10);
    } else if (flag == "--machines") {
      args->machines = std::atoi(next());
    } else if (flag == "--threads") {
      args->threads = std::atoi(next());
    } else if (flag == "--walks") {
      args->walks = std::atoi(next());
    } else if (flag == "--no-cache") {
      args->caching = false;
    } else if (flag == "--no-mt") {
      args->multithreading = false;
    } else if (flag == "--fault-rate") {
      args->fault_rate = std::atof(next());
    } else if (flag == "--fault-seed") {
      args->fault_seed = std::strtoull(next(), nullptr, 10);
    } else if (flag == "--replication") {
      args->replication = std::atoi(next());
    } else if (flag == "--checkpoint-period") {
      args->checkpoint_period = std::atof(next());
    } else if (flag == "--machines-per-domain") {
      args->machines_per_domain = std::atoi(next());
    } else if (flag == "--domain-fault-rate") {
      args->domain_fault_rate = std::atof(next());
    } else if (flag == "--warning-lead") {
      args->warning_lead = std::atof(next());
    } else if (flag == "--slow-machine-rate") {
      args->slow_machine_rate = std::atof(next());
    } else if (flag == "--hedge") {
      args->hedge = true;
    } else if (flag == "--frontier-mode") {
      args->frontier_mode = next();
    } else if (flag == "--frontier-alpha") {
      args->frontier_alpha = std::atof(next());
    } else if (flag == "--frontier-beta") {
      args->frontier_beta = std::atof(next());
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

graph::EdgeList LoadInput(const Args& args) {
  if (!args.input.empty()) {
    auto list = graph::ReadEdgeListText(args.input);
    if (!list.ok()) {
      std::fprintf(stderr, "failed to read %s: %s\n", args.input.c_str(),
                   list.status().ToString().c_str());
      std::exit(2);
    }
    return *std::move(list);
  }
  const int64_t n = args.nodes;
  if (args.gen == "rmat") {
    int log2_nodes = 1;
    while ((int64_t{1} << log2_nodes) < n) ++log2_nodes;
    return graph::GenerateRmat(log2_nodes, args.edges, args.seed);
  }
  if (args.gen == "er") {
    return graph::GenerateErdosRenyi(n, args.edges, args.seed);
  }
  if (args.gen == "cycle") return graph::GenerateCycle(n);
  if (args.gen == "double_cycle") return graph::GenerateDoubleCycle(n / 2);
  if (args.gen == "grid") {
    int64_t rows = 1;
    while (rows * rows < n) ++rows;
    return graph::GenerateGrid(rows, rows);
  }
  if (args.gen == "tree") return graph::GenerateRandomTree(n, args.seed);
  if (args.gen == "star") return graph::GenerateStar(n);
  if (args.gen == "complete") return graph::GenerateComplete(n);
  std::fprintf(stderr, "unknown generator %s\n", args.gen.c_str());
  std::exit(2);
}

void PrintMetrics(sim::Cluster& cluster) {
  const Metrics& m = cluster.metrics();
  std::printf("--- cluster accounting ---\n");
  std::printf("rounds:          %lld\n",
              static_cast<long long>(m.Get("rounds")));
  std::printf("shuffles:        %lld\n",
              static_cast<long long>(m.Get("shuffles")));
  std::printf("shuffle bytes:   %lld\n",
              static_cast<long long>(m.Get("shuffle_bytes")));
  std::printf("kv reads:        %lld\n",
              static_cast<long long>(m.Get("kv_reads")));
  std::printf("kv read bytes:   %lld\n",
              static_cast<long long>(m.Get("kv_read_bytes")));
  std::printf("kv write bytes:  %lld\n",
              static_cast<long long>(m.Get("kv_write_bytes")));
  std::printf("cache hit rate:  %.3f\n",
              m.Get("cache_hits") + m.Get("cache_misses") == 0
                  ? 0.0
                  : static_cast<double>(m.Get("cache_hits")) /
                        static_cast<double>(m.Get("cache_hits") +
                                            m.Get("cache_misses")));
  if (m.Get("machines_lost") != 0 || m.Get("checkpoints") != 0 ||
      m.Get("kv_replication_bytes") != 0) {
    std::printf("machines lost:   %lld\n",
                static_cast<long long>(m.Get("machines_lost")));
    std::printf("replication bytes: %lld\n",
                static_cast<long long>(m.Get("kv_replication_bytes")));
    std::printf("checkpoints:     %lld (%lld bytes)\n",
                static_cast<long long>(m.Get("checkpoints")),
                static_cast<long long>(m.Get("checkpoint_bytes")));
    std::printf("recovery time:   %.3fs (replay %.3fs)\n",
                m.GetTime("sim:recovery"),
                m.GetTime("recovery_replay_seconds"));
  }
  if (m.Get("domains_lost") != 0 || m.Get("machines_drained") != 0) {
    std::printf("domains lost:    %lld\n",
                static_cast<long long>(m.Get("domains_lost")));
    std::printf("drained:         %lld machines, %lld shards migrated "
                "(%lld bytes, %.3fs)\n",
                static_cast<long long>(m.Get("machines_drained")),
                static_cast<long long>(m.Get("shards_migrated")),
                static_cast<long long>(m.Get("kv_migration_bytes")),
                m.GetTime("sim:drain"));
    if (m.Get("replica_wipeouts") != 0) {
      std::printf("replica wipeouts: %lld\n",
                  static_cast<long long>(m.Get("replica_wipeouts")));
    }
  }
  if (m.Get("kv_slow_trips") != 0) {
    const int64_t hedged = m.Get("kv_hedged_trips");
    std::printf("stragglers:      %lld slow trips, %lld hedged "
                "(win rate %.3f)\n",
                static_cast<long long>(m.Get("kv_slow_trips")),
                static_cast<long long>(hedged),
                hedged == 0 ? 0.0
                            : static_cast<double>(m.Get("kv_hedge_wins")) /
                                  static_cast<double>(hedged));
  }
  if (m.Get("frontier_dense_rounds") != 0 ||
      m.Get("frontier_sparse_rounds") != 0) {
    std::printf("frontier rounds: %lld dense / %lld sparse\n",
                static_cast<long long>(m.Get("frontier_dense_rounds")),
                static_cast<long long>(m.Get("frontier_sparse_rounds")));
    std::printf("frontier bytes:  %lld broadcast, %lld exchanged\n",
                static_cast<long long>(m.Get("frontier_broadcast_bytes")),
                static_cast<long long>(m.Get("frontier_exchange_bytes")));
    std::printf("lookup trips:    %lld\n",
                static_cast<long long>(m.Get("kv_lookup_trips")));
  }
  std::printf("simulated time:  %.3fs\n", cluster.SimSeconds());
  std::printf("wall time:       %.3fs\n", cluster.WallSeconds());
}

// Builds the effective ClusterConfig from the parsed flags — shared by
// Run and the --lint-config dump so the dump always shows exactly what a
// run with the same flags would use. False on an unknown frontier mode.
bool BuildClusterConfig(const Args& args, sim::ClusterConfig* config) {
  config->num_machines = args.machines;
  config->threads_per_machine = args.threads;
  config->query_cache.enabled = args.caching;
  config->multithreading = args.multithreading;
  config->network = args.network == "tcp" ? kv::NetworkModel::TcpIp()
                                          : kv::NetworkModel::Rdma();
  config->seed = args.seed;
  config->faults.fault_rate_per_machine_sec = args.fault_rate;
  config->faults.fault_seed = args.fault_seed;
  config->faults.replication = args.replication;
  config->faults.checkpoint_period_sec = args.checkpoint_period;
  config->faults.machines_per_domain = args.machines_per_domain;
  config->faults.domain_fault_rate_sec = args.domain_fault_rate;
  config->faults.warning_lead_sec = args.warning_lead;
  config->faults.slow_machine_rate = args.slow_machine_rate;
  config->faults.hedge_lookups = args.hedge;
  if (!ParseFrontierMode(args.frontier_mode, &config->frontier.mode)) {
    std::fprintf(stderr, "unknown frontier mode %s\n",
                 args.frontier_mode.c_str());
    return false;
  }
  config->frontier.alpha = args.frontier_alpha;
  config->frontier.beta = args.frontier_beta;
  return true;
}

// `--lint-config`: prints every ClusterConfig knob (dotted name), its
// effective value under the given flags, and the knob's off-state — the
// value that reproduces the prior cost model bit-identically (or a
// note that the knob is cost-only / a scale parameter). ampc_lint's
// config-dump rule cross-checks this inventory against the struct, so
// adding a knob without extending this dump fails the lint gate.
int DumpLintConfig(const Args& args) {
  sim::ClusterConfig c;
  if (!BuildClusterConfig(args, &c)) return 2;
  std::printf("--- effective ClusterConfig (knob = value  # off-state) ---\n");
  auto row = [](const char* knob, const std::string& value,
                const char* off_state) {
    std::printf("%-33s = %-12s # %s\n", knob, value.c_str(), off_state);
  };
  auto num = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return std::string(buf);
  };
  auto integer = [](int64_t v) { return std::to_string(v); };
  auto boolean = [](bool v) { return std::string(v ? "true" : "false"); };
  row("num_machines", integer(c.num_machines),
      "scale knob: outputs bit-identical across values");
  row("threads_per_machine", integer(c.threads_per_machine),
      "scale knob: outputs bit-identical across values");
  row("multithreading", boolean(c.multithreading),
      "false = trips charged unoverlapped, cost-only");
  row("query_cache.enabled", boolean(c.query_cache.enabled),
      "false = uncached historical client, cost-only");
  row("batch_lookups", boolean(c.batch_lookups),
      "false = scalar trip charging, bit-identical outputs");
  row("max_batch_keys", integer(c.max_batch_keys),
      "<= 0 disables sub-batch splitting, cost-only");
  row("pipeline_depth", integer(c.pipeline_depth),
      "1 = lockstep, the pre-pipelining cost model");
  row("placement_policy", kv::PlacementPolicyName(c.placement_policy),
      "hash = historical default; all policies value-identical");
  row("network", c.network.name,
      "cost-only: scales latencies/bytes, never values");
  row("round_spawn_sec", num(c.round_spawn_sec), "cost-only calibration");
  row("shuffle_bytes_per_sec", num(c.shuffle_bytes_per_sec),
      "cost-only calibration");
  row("shuffle_min_sec", num(c.shuffle_min_sec), "cost-only calibration");
  row("map_item_cpu_sec", num(c.map_item_cpu_sec), "cost-only calibration");
  row("faults.fault_rate_per_machine_sec",
      num(c.faults.fault_rate_per_machine_sec),
      "0 disables injection, fault-free model");
  row("faults.fault_seed", integer(int64_t(c.faults.fault_seed)),
      "inert while every fault rate is 0");
  row("faults.replication", integer(c.faults.replication),
      "1 = unreplicated historical model");
  row("faults.checkpoint_period_sec", num(c.faults.checkpoint_period_sec),
      "0 disables checkpointing");
  row("faults.machines_per_domain", integer(c.faults.machines_per_domain),
      "<= 1 keeps every machine its own domain");
  row("faults.domain_fault_rate_sec", num(c.faults.domain_fault_rate_sec),
      "0 disables correlated kills");
  row("faults.domain_aware_placement",
      boolean(c.faults.domain_aware_placement),
      "inert while machines_per_domain <= 1");
  row("faults.warning_lead_sec", num(c.faults.warning_lead_sec),
      "0 = unannounced kills, reactive historical model");
  row("faults.slow_machine_rate", num(c.faults.slow_machine_rate),
      "0 disables the straggler model");
  row("faults.hedge_lookups", boolean(c.faults.hedge_lookups),
      "false = wait out stragglers, historical model");
  row("frontier.mode", FrontierModeName(c.frontier.mode),
      "sparse = always push");
  row("frontier.alpha", num(c.frontier.alpha),
      "inert unless hybrid; cost-only there");
  row("frontier.beta", num(c.frontier.beta),
      "inert unless hybrid; cost-only there");
  row("seed", integer(int64_t(c.seed)),
      "outputs a pure function of (input, seed, config)");
  row("in_memory_threshold_arcs", integer(c.in_memory_threshold_arcs),
      "baseline switchover scale, bit-identical outputs");
  return 0;
}

int Run(const Args& args) {
  const bool ampc_engine = args.engine == "ampc";
  sim::ClusterConfig config;
  if (!BuildClusterConfig(args, &config)) return 2;

  if (args.algorithm == "1v2cycle") {
    // Builds its own cycle structure; skips the generic input path.
    graph::EdgeList cycle_list = args.cycles == 1
                                     ? graph::GenerateCycle(args.nodes)
                                     : graph::GenerateDoubleCycle(
                                           args.nodes / 2);
    config.in_memory_threshold_arcs =
        std::max<int64_t>(64, 2 * args.nodes / 50);
    sim::Cluster cluster(config);
    int cycles_found = 0;
    if (ampc_engine) {
      graph::Graph cycle_graph = graph::BuildGraph(cycle_list);
      core::CycleOptions options;
      options.seed = args.seed;
      cycles_found =
          core::AmpcOneVsTwoCycle(cluster, cycle_graph, options).num_cycles;
    } else {
      cycles_found =
          baselines::MpcOneVsTwoCycle(cluster, cycle_list, args.seed);
    }
    std::printf("cycles detected: %d (built %d)\n", cycles_found,
                args.cycles);
    PrintMetrics(cluster);
    return cycles_found == args.cycles ? 0 : 1;
  }

  graph::EdgeList list = LoadInput(args);
  graph::Graph g = graph::BuildGraph(list);
  std::printf("graph: %lld nodes, %lld arcs, max degree %lld\n",
              static_cast<long long>(g.num_nodes()),
              static_cast<long long>(g.num_arcs()),
              static_cast<long long>(g.max_degree()));
  config.in_memory_threshold_arcs = std::max<int64_t>(64, g.num_arcs() / 50);
  sim::Cluster cluster(config);

  if (args.algorithm == "mis") {
    int64_t size = 0;
    if (ampc_engine) {
      core::MisResult result = core::AmpcMis(cluster, g, args.seed);
      for (uint8_t b : result.in_mis) size += b;
    } else {
      baselines::RootsetMisResult result =
          baselines::MpcRootsetMis(cluster, g, args.seed);
      for (uint8_t b : result.in_mis) size += b;
    }
    std::printf("mis size: %lld\n", static_cast<long long>(size));
  } else if (args.algorithm == "mm") {
    int64_t matched = 0;
    if (ampc_engine) {
      core::MatchingOptions options;
      options.seed = args.seed;
      core::MatchingResult result = core::AmpcMatching(cluster, g, options);
      for (graph::NodeId p : result.partner) {
        matched += p != graph::kInvalidNode;
      }
    } else {
      baselines::RootsetMatchingResult result =
          baselines::MpcRootsetMatching(cluster, g, args.seed);
      for (graph::NodeId p : result.partner) {
        matched += p != graph::kInvalidNode;
      }
    }
    std::printf("matching size: %lld\n", static_cast<long long>(matched / 2));
  } else if (args.algorithm == "msf") {
    graph::WeightedEdgeList weighted = graph::MakeDegreeWeighted(list, g);
    size_t forest = 0;
    double weight = 0;
    std::vector<graph::EdgeId> edges;
    if (ampc_engine) {
      core::MsfOptions options;
      options.seed = args.seed;
      edges = core::AmpcMsf(cluster, weighted, options).edges;
    } else {
      edges = baselines::MpcBoruvkaMsf(cluster, weighted, args.seed).edges;
    }
    forest = edges.size();
    for (graph::EdgeId id : edges) weight += weighted.edges[id].w;
    std::printf("msf: %zu edges, total weight %.1f\n", forest, weight);
  } else if (args.algorithm == "cc") {
    int64_t components = 0;
    if (ampc_engine) {
      core::MsfOptions options;
      options.seed = args.seed;
      components = core::AmpcConnectivity(cluster, list, options)
                       .num_components;
    } else {
      components =
          baselines::MpcLocalContractionCC(cluster, list, args.seed)
              .num_components;
    }
    std::printf("connected components: %lld\n",
                static_cast<long long>(components));
  } else if (args.algorithm == "kcore") {
    std::vector<int32_t> coreness;
    if (ampc_engine) {
      coreness = core::AmpcKCore(cluster, g).coreness;
    } else {
      coreness = baselines::MpcKCore(cluster, g).coreness;
    }
    std::printf("degeneracy: %d\n", seq::Degeneracy(coreness));
  } else if (args.algorithm == "pagerank") {
    std::vector<double> rank;
    if (ampc_engine) {
      core::PageRankMcOptions options;
      options.seed = args.seed;
      options.walks_per_node = args.walks;
      rank = core::AmpcMonteCarloPageRank(cluster, g, options).rank;
    } else {
      seq::PageRankOptions options;
      options.tolerance = 1e-6;
      rank = baselines::MpcPageRank(cluster, g, options).rank;
    }
    graph::NodeId best = 0;
    for (graph::NodeId v = 1; v < g.num_nodes(); ++v) {
      if (rank[v] > rank[best]) best = v;
    }
    std::printf("top vertex: %u (rank %.6f)\n", best, rank[best]);
  } else {
    std::fprintf(stderr, "unknown algorithm %s\n", args.algorithm.c_str());
    return 2;
  }
  PrintMetrics(cluster);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    PrintUsage();
    return 2;
  }
  if (args.algorithm == "--lint-config") return DumpLintConfig(args);
  return Run(args);
}
