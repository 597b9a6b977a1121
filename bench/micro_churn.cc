// micro_churn — injected machine failures under three recovery
// disciplines: whole-job restart, shard replication, and periodic
// checkpoints.
//
// The paper frames AMPC as the middle ground between persistent-storage
// systems and all-in-memory systems that "do not tolerate preemptions
// well" (Sections 5.1/5.7). This bench makes that risk happen: a
// seeded FaultInjector (ClusterConfig::faults) kills machines mid-job at
// Poisson rates, and the cluster recovers by whichever discipline the
// config allows — re-streaming the dead machine's shards from surviving
// replicas (replication > 1), restoring its last checkpoint and
// replaying the rounds since (checkpoint_period > 0), or replaying the
// whole job (neither: the in-memory baseline). One job — the adaptive
// cores MIS, maximal matching, k-core, connected components and
// Monte-Carlo PageRank run back to back on one stand-in graph — is swept
// over kill-rate x treatment, and every cell's outputs are compared
// bit-for-bit against the fault-free run.
//
// The run FAILS (exit 1) unless
//   (a) replicated and checkpointed recovery each *strictly* beat
//       whole-job restart at every non-zero kill rate (and machines
//       actually died in every such cell — the sweep is vacuous
//       otherwise), and
//   (b) every algorithm's output under injected churn is bit-identical
//       to its fault-free run: recovery is a cost event, never a
//       correctness event.
// Everything is a pure function of the seeds, so the gates are
// deterministic: CI regression-tests the recovery cost model here.
//
//   AMPC_BENCH_SCALE   scales the graph (default 1.0 => 4096 nodes)
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/connectivity.h"
#include "graph/generators.h"
#include "core/kcore.h"
#include "core/matching.h"
#include "core/mis.h"
#include "core/pagerank.h"
#include "graph/graph.h"
#include "sim/cluster.h"

namespace {

constexpr int kMachines = 8;
constexpr uint64_t kAlgoSeed = 17;
constexpr uint64_t kKillSeed = 42;

// The three recovery disciplines, as fault-config shapes.
struct Treatment {
  const char* name;
  int replication;
  double checkpoint_period;  // resolved against the fault-free job time
};

struct JobOutputs {
  std::vector<uint8_t> mis;
  std::vector<ampc::graph::NodeId> matching;
  std::vector<int32_t> kcore;
  std::vector<ampc::graph::NodeId> components;
  std::vector<double> pagerank;

  bool operator==(const JobOutputs&) const = default;
};

struct CellResult {
  JobOutputs outputs;
  double sim_sec = 0;
  double recovery_sec = 0;
  double replay_sec = 0;
  int64_t machines_lost = 0;
  int64_t domains_lost = 0;
  int64_t replication_bytes = 0;
  int64_t checkpoints = 0;
  int64_t checkpoint_bytes = 0;
};

// One job: the five adaptive cores back to back on one cluster, so the
// kill schedule sees every driver path (scalar lookups, batched and
// pipelined frontiers, write phases, shuffles) in one simulated
// timeline.
CellResult RunJob(const ampc::graph::EdgeList& edges,
                  const ampc::graph::Graph& g, double fault_rate,
                  const Treatment& treatment) {
  ampc::sim::ClusterConfig config;
  config.num_machines = kMachines;
  config.threads_per_machine = 4;
  config.faults.fault_rate_per_machine_sec = fault_rate;
  config.faults.fault_seed = kKillSeed;
  config.faults.replication = treatment.replication;
  config.faults.checkpoint_period_sec = treatment.checkpoint_period;
  ampc::sim::Cluster cluster(config);

  CellResult cell;
  cell.outputs.mis = ampc::core::AmpcMis(cluster, g, kAlgoSeed).in_mis;
  ampc::core::MatchingOptions matching_options;
  matching_options.seed = kAlgoSeed;
  cell.outputs.matching =
      ampc::core::AmpcMatching(cluster, g, matching_options).partner;
  cell.outputs.kcore = ampc::core::AmpcKCore(cluster, g).coreness;
  cell.outputs.components =
      ampc::core::AmpcConnectivity(cluster, edges).component;
  ampc::core::PageRankMcOptions pr_options;
  pr_options.seed = kAlgoSeed;
  pr_options.walks_per_node = 4;
  cell.outputs.pagerank =
      ampc::core::AmpcMonteCarloPageRank(cluster, g, pr_options).rank;

  cell.sim_sec = cluster.SimSeconds();
  cell.recovery_sec = cluster.metrics().GetTime("sim:recovery");
  cell.replay_sec = cluster.metrics().GetTime("recovery_replay_seconds");
  cell.machines_lost = cluster.metrics().Get("machines_lost");
  cell.domains_lost = cluster.metrics().Get("domains_lost");
  cell.replication_bytes = cluster.metrics().Get("kv_replication_bytes");
  cell.checkpoints = cluster.metrics().Get("checkpoints");
  cell.checkpoint_bytes = cluster.metrics().Get("checkpoint_bytes");
  return cell;
}

}  // namespace

int main() {
  const double scale = ampc::bench::BenchScale();
  const int64_t nodes =
      std::max<int64_t>(256, static_cast<int64_t>(4096 * scale));
  const int64_t num_edges =
      std::max<int64_t>(1024, static_cast<int64_t>(24576 * scale));
  int log2_nodes = 1;
  while ((int64_t{1} << log2_nodes) < nodes) ++log2_nodes;
  const ampc::graph::EdgeList edges =
      ampc::graph::GenerateRmat(log2_nodes, num_edges, kAlgoSeed);
  const ampc::graph::Graph g = ampc::graph::BuildGraph(edges);

  std::printf(
      "micro_churn: %lld nodes, %lld arcs, %d machines, kill seed %llu\n",
      static_cast<long long>(g.num_nodes()),
      static_cast<long long>(g.num_arcs()),
      kMachines, static_cast<unsigned long long>(kKillSeed));

  // Fault-free reference (restart shape, rate 0): the bit-identity
  // baseline and the yardstick for the checkpoint period.
  const Treatment kRestart = {"restart", 1, 0.0};
  const CellResult reference = RunJob(edges, g, 0.0, kRestart);
  const double cp_period = reference.sim_sec / 8.0;
  const Treatment kReplicated = {"replicated", 2, 0.0};
  const Treatment kCheckpointed = {"checkpointed", 1, cp_period};
  const Treatment* kTreatments[] = {&kRestart, &kReplicated,
                                    &kCheckpointed};
  // Kill rates per machine-second of simulated time. The job runs a few
  // simulated seconds across 8 machines, so these give a handful of
  // kills through a few dozen — enough churn that every treatment's
  // recovery path actually runs. Higher rates make the *unprotected*
  // job's renewal blow-up (exp in rate x job seconds, sim/faults.h)
  // overflow the nanosecond-resolution metric timers, so the sweep
  // stops at 1.0.
  const double kRates[] = {0.0, 0.25, 0.5, 1.0};

  struct GridRow {
    double rate;
    const Treatment* treatment;
    CellResult cell;
  };
  std::vector<GridRow> grid;
  for (const double rate : kRates) {
    for (const Treatment* treatment : kTreatments) {
      grid.push_back(GridRow{rate, treatment,
                             RunJob(edges, g, rate, *treatment)});
    }
  }
  auto find = [&](double rate, const Treatment& t) -> const CellResult& {
    for (const GridRow& row : grid) {
      if (row.rate == rate && row.treatment == &t) return row.cell;
    }
    std::abort();
  };

  ampc::bench::PrintHeader(
      "micro_churn: five-core job under injected machine failures",
      {"kill rate", "treatment", "sim sec", "lost", "recovery s",
       "replay s", "ckpts"});
  for (const GridRow& row : grid) {
    ampc::bench::PrintRow(
        {ampc::bench::FmtDouble(row.rate, 1), row.treatment->name,
         ampc::bench::FmtDouble(row.cell.sim_sec, 4),
         ampc::bench::FmtInt(row.cell.machines_lost),
         ampc::bench::FmtDouble(row.cell.recovery_sec, 4),
         ampc::bench::FmtDouble(row.cell.replay_sec, 4),
         ampc::bench::FmtInt(row.cell.checkpoints)});
  }
  ampc::bench::PrintPaperNote(
      "a lost machine costs a bounded replay, never a full restart "
      "(Section 5.7): replicas re-stream the dead shard over the NIC, "
      "checkpoints restore it from durable storage plus the rounds "
      "since; with neither, the whole job re-runs — the in-memory "
      "baseline both disciplines must beat");

  // Gate (b): outputs never move. Every cell, every algorithm,
  // bit-identical to the fault-free reference.
  for (const GridRow& row : grid) {
    if (!(row.cell.outputs == reference.outputs)) {
      std::fprintf(stderr,
                   "FATAL: outputs diverged under churn (rate %.1f, "
                   "treatment %s) — recovery must never be a "
                   "correctness event\n",
                   row.rate, row.treatment->name);
      return 1;
    }
  }

  // Gate (a): at every non-zero kill rate, both protected disciplines
  // strictly beat whole-job restart, and the comparison is not vacuous.
  for (const double rate : kRates) {
    if (rate == 0.0) continue;
    const CellResult& restart = find(rate, kRestart);
    for (const Treatment* t : {&kReplicated, &kCheckpointed}) {
      const CellResult& protected_cell = find(rate, *t);
      if (protected_cell.machines_lost == 0 ||
          restart.machines_lost == 0) {
        std::fprintf(stderr,
                     "FATAL: no machines died at rate %.1f (%s %lld, "
                     "restart %lld) — the sweep is vacuous; raise the "
                     "rate\n",
                     rate, t->name,
                     static_cast<long long>(protected_cell.machines_lost),
                     static_cast<long long>(restart.machines_lost));
        return 1;
      }
      if (protected_cell.sim_sec >= restart.sim_sec) {
        std::fprintf(stderr,
                     "FATAL: %s recovery did not strictly beat "
                     "whole-job restart at rate %.1f (%.4f vs %.4f "
                     "simulated seconds)\n",
                     t->name, rate, protected_cell.sim_sec,
                     restart.sim_sec);
        return 1;
      }
    }
  }

  FILE* out = std::fopen("BENCH_churn.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_churn.json\n");
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"micro_churn\",\n"
               "  \"nodes\": %lld,\n"
               "  \"edges\": %lld,\n"
               "  \"machines\": %d,\n"
               "  \"kill_seed\": %llu,\n"
               "  \"checkpoint_period_sec\": %.9f,\n"
               "  \"fault_free_sim_sec\": %.9f,\n"
               "  \"grid\": [\n",
               static_cast<long long>(g.num_nodes()),
               static_cast<long long>(g.num_arcs()), kMachines,
               static_cast<unsigned long long>(kKillSeed), cp_period,
               reference.sim_sec);
  for (size_t i = 0; i < grid.size(); ++i) {
    const GridRow& row = grid[i];
    std::fprintf(
        out,
        "    {\"kill_rate\": %.2f, \"treatment\": \"%s\", "
        "\"replication\": %d, \"sim_sec\": %.9f, "
        "\"machines_lost\": %lld, \"domains_lost\": %lld, "
        "\"recovery_sec\": %.9f, "
        "\"replay_sec\": %.9f, \"replication_bytes\": %lld, "
        "\"checkpoints\": %lld, \"checkpoint_bytes\": %lld, "
        "\"outputs_identical\": true}%s\n",
        row.rate, row.treatment->name, row.treatment->replication,
        row.cell.sim_sec, static_cast<long long>(row.cell.machines_lost),
        static_cast<long long>(row.cell.domains_lost),
        row.cell.recovery_sec, row.cell.replay_sec,
        static_cast<long long>(row.cell.replication_bytes),
        static_cast<long long>(row.cell.checkpoints),
        static_cast<long long>(row.cell.checkpoint_bytes),
        i + 1 < grid.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote BENCH_churn.json\n");
  return 0;
}
