// micro_lookup — batched vs scalar DHT lookups on a latency-bound
// pointer-jump workload.
//
// The paper's DHT hides its ~2.5us round trip by batching and pipelining
// adaptive queries (Section 5.3). This bench drives the simulator's
// batched read path (DriveLookupPipelined through
// RunBatchMapPhase) over the canonical latency-bound workload — pointer
// jumping along long parent chains — and compares the simulated phase
// time against the same workload charged scalar (one round trip per
// key, batch_lookups = off). Placement policies are swept alongside to
// show how key->machine affinity changes the destination fan-out per
// batch.
//
// The run FAILS (exit 1) if batching is not strictly cheaper than
// scalar charging on the hash-placement workload — the pipeline's whole
// point — so CI regression-tests the batched cost model here.
//
//   AMPC_BENCH_SCALE   scales the key count (default 1.0 => 200k keys)
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <span>
#include <vector>

#include "bench_common.h"
#include "graph/graph.h"
#include "kv/placement.h"
#include "sim/cluster.h"

namespace {

using ampc::graph::kInvalidNode;
using ampc::graph::NodeId;

constexpr int kMachines = 8;
constexpr int64_t kChainLength = 64;

struct RunResult {
  double sim_sec = 0;
  int64_t trips = 0;
  int64_t lookups = 0;
};

// Pointer jumping over parent chains of kChainLength hops: every item
// chases its chain to the root. Latency-bound: records are 4 bytes, the
// chains are long, and with batching every adaptive step ships as one
// batched step of DriveLookupPipelined per worker.
RunResult RunPointerJump(int64_t n, const ampc::bench::GridCell& cell) {
  ampc::sim::ClusterConfig config;
  config.num_machines = kMachines;
  cell.ApplyTo(config);
  // Track only the data-dependent (latency/bandwidth) component.
  config.round_spawn_sec = 0.0;
  ampc::sim::Cluster cluster(config);

  auto parent_store = cluster.MakeStore<NodeId>(n);
  cluster.RunKvWritePhase("build", parent_store, n, [&](int64_t k) {
    // Chains of kChainLength consecutive keys; chain heads are roots.
    return k % kChainLength == 0 ? kInvalidNode
                                 : static_cast<NodeId>(k - 1);
  });

  cluster.RunBatchMapPhase(
      "jump", n,
      [&](std::span<const int64_t> items, ampc::sim::MachineContext& ctx) {
        struct Chain {
          NodeId cur;
          bool done = false;
        };
        std::vector<Chain> chains;
        chains.reserve(items.size());
        for (const int64_t item : items) {
          chains.push_back(Chain{static_cast<NodeId>(item)});
        }
        // The grid pins pipeline_depth = 1: strict lockstep.
        ampc::sim::DriveLookupPipelined(
            ctx, parent_store, chains,
            [](const Chain& c) { return c.done; },
            [](const Chain& c) { return static_cast<uint64_t>(c.cur); },
            [](Chain& c, const NodeId* p) {
              if (p == nullptr || *p == kInvalidNode) {
                c.done = true;  // at root
              } else {
                c.cur = *p;
              }
            });
      });

  RunResult result;
  result.sim_sec = cluster.metrics().GetTime("sim:jump");
  result.trips = cluster.metrics().Get("kv_lookup_trips");
  result.lookups = cluster.metrics().Get("kv_reads");
  return result;
}

}  // namespace

int main() {
  const int64_t n = std::max<int64_t>(
      kChainLength, static_cast<int64_t>(200'000 * ampc::bench::BenchScale()));

  std::printf("micro_lookup: %lld keys, %d machines, chains of %lld hops\n",
              static_cast<long long>(n), kMachines,
              static_cast<long long>(kChainLength));

  struct PolicyRow {
    const char* name;
    ampc::kv::PlacementPolicy policy;
    RunResult batched;
    RunResult scalar;
  };
  std::vector<PolicyRow> rows = {
      {"hash", ampc::kv::PlacementPolicy::kHash, {}, {}},
      {"range", ampc::kv::PlacementPolicy::kRange, {}, {}},
      {"affinity", ampc::kv::PlacementPolicy::kAffinity, {}, {}},
  };
  // This bench isolates the *batching* stage of the lookup pipeline:
  // query-result caching is off (bench/micro_cache measures that stage)
  // and pipelining is off — depth 1, the lockstep baseline
  // (bench/micro_pipeline sweeps the depth axis) — so batched-vs-scalar
  // numbers track PR 3's batching-only pipeline bit-identically.
  ampc::bench::GridAxes axes;
  axes.placement = {rows[0].policy, rows[1].policy, rows[2].policy};
  axes.batch = {true, false};
  axes.cache = {false};
  axes.depth = {1};
  const std::vector<ampc::bench::GridCell> cells =
      ampc::bench::ConfigGrid(axes);
  for (size_t i = 0; i < rows.size(); ++i) {
    rows[i].batched = RunPointerJump(n, cells[2 * i]);
    rows[i].scalar = RunPointerJump(n, cells[2 * i + 1]);
  }

  ampc::bench::PrintHeader(
      "micro_lookup: pointer-jump simulated phase seconds",
      {"placement", "batched sim", "scalar sim", "speedup", "trips/lookup"});
  for (const PolicyRow& row : rows) {
    ampc::bench::PrintRow(
        {row.name, ampc::bench::FmtDouble(row.batched.sim_sec, 6),
         ampc::bench::FmtDouble(row.scalar.sim_sec, 6),
         ampc::bench::FmtDouble(row.scalar.sim_sec / row.batched.sim_sec) +
             "x",
         ampc::bench::FmtDouble(
             static_cast<double>(row.batched.trips) /
                 static_cast<double>(
                     std::max<int64_t>(1, row.batched.lookups)),
             5)});
  }
  ampc::bench::PrintPaperNote(
      "batching amortizes the DHT round trip across every chain a worker "
      "advances (Section 5.3); one batched lookup per adaptive step pays "
      "one latency per destination machine instead of one per key");

  const PolicyRow& hash_row = rows[0];
  if (hash_row.batched.sim_sec >= hash_row.scalar.sim_sec) {
    std::fprintf(stderr,
                 "FATAL: batched lookups not cheaper than scalar "
                 "(batched %.6f, scalar %.6f)\n",
                 hash_row.batched.sim_sec, hash_row.scalar.sim_sec);
    return 1;
  }

  FILE* out = std::fopen("BENCH_lookup.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_lookup.json\n");
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"micro_lookup\",\n"
               "  \"num_keys\": %lld,\n"
               "  \"machines\": %d,\n"
               "  \"chain_length\": %lld,\n"
               "  \"policies\": [\n",
               static_cast<long long>(n), kMachines,
               static_cast<long long>(kChainLength));
  for (size_t i = 0; i < rows.size(); ++i) {
    const PolicyRow& row = rows[i];
    std::fprintf(
        out,
        "    {\"placement\": \"%s\", \"batched_sim_sec\": %.9f, "
        "\"scalar_sim_sec\": %.9f, \"batch_speedup\": %.4f, "
        "\"trips_per_lookup\": %.6f}%s\n",
        row.name, row.batched.sim_sec, row.scalar.sim_sec,
        row.scalar.sim_sec / row.batched.sim_sec,
        static_cast<double>(row.batched.trips) /
            static_cast<double>(std::max<int64_t>(1, row.batched.lookups)),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote BENCH_lookup.json\n");
  return 0;
}
