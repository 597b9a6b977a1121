// micro_cache — query-result caching on a convergent pointer-jump
// workload.
//
// The paper reports caching as the single largest Figure-4 optimization:
// adaptive query processes keep revisiting hot structure, and a
// per-machine query cache answers those revisits locally instead of
// paying the DHT round trip. This bench drives the simulator's cache
// stage (kv::QueryCache behind MachineContext::Lookup/LookupManyAsync,
// ClusterConfig::query_cache) over the canonical cache-friendly
// workload — pointer jumping up a binary tree whose chains all converge
// on one root — and reports hit rates plus the simulated-time and
// round-trip deltas of the full batching x caching ablation grid, so
// Figure-4-style "batching vs batching+caching" curves fall out of one
// binary.
//
// The run FAILS (exit 1) if caching does not *strictly* reduce
// kv_lookup_trips, or simulated time, versus the batching-only pipeline
// on the convergent-roots phase — the cache stage's whole point — so CI
// regression-tests the cached cost model here. With
// query_cache.enabled = false the pipeline charges exactly PR 3's
// batching-only values (pinned by tests/cluster_test.cc).
//
//   AMPC_BENCH_SCALE   scales the key count (default 1.0 => 100k keys)
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <span>
#include <vector>

#include "bench_common.h"
#include "graph/graph.h"
#include "sim/cluster.h"

namespace {

using ampc::graph::kInvalidNode;
using ampc::graph::NodeId;

constexpr int kMachines = 8;

struct RunResult {
  double sim_sec = 0;
  int64_t trips = 0;
  int64_t lookups = 0;
  int64_t hits = 0;
  int64_t misses = 0;
};

// Pointer jumping up a binary tree: parent(k) = (k - 1) / 2, root 0.
// Every chain converges through the same O(log n) ancestors, so a
// machine's first few jumps warm the cache for everything after them —
// the "roots near convergence" pattern of pointer-jump phases.
RunResult RunConvergentJump(int64_t n, const ampc::bench::GridCell& cell) {
  ampc::sim::ClusterConfig config;
  config.num_machines = kMachines;
  cell.ApplyTo(config);
  // Track only the data-dependent (latency/bandwidth) component.
  config.round_spawn_sec = 0.0;
  ampc::sim::Cluster cluster(config);

  auto parent_store = cluster.MakeStore<NodeId>(n);
  cluster.RunKvWritePhase("build", parent_store, n, [&](int64_t k) {
    return k == 0 ? kInvalidNode : static_cast<NodeId>((k - 1) / 2);
  });

  cluster.RunBatchMapPhase(
      "converge", n,
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
                c.done = true;  // at the root
              } else {
                c.cur = *p;
              }
            });
      });

  RunResult result;
  result.sim_sec = cluster.metrics().GetTime("sim:converge");
  result.trips = cluster.metrics().Get("kv_lookup_trips");
  result.lookups = cluster.metrics().Get("kv_reads");
  result.hits = cluster.metrics().Get("cache_hits");
  result.misses = cluster.metrics().Get("cache_misses");
  return result;
}

}  // namespace

int main() {
  const int64_t n = std::max<int64_t>(
      64, static_cast<int64_t>(100'000 * ampc::bench::BenchScale()));

  std::printf("micro_cache: %lld keys, %d machines, binary-tree chains\n",
              static_cast<long long>(n), kMachines);

  // The full Figure-4-style grid from one binary. Pipelining off
  // (depth 1, the lockstep baseline): this bench isolates the caching
  // stage, so its grid tracks the PR 4 cost model bit-identically;
  // bench/micro_pipeline sweeps the depth axis.
  ampc::bench::GridAxes axes;
  axes.batch = {true, false};
  axes.cache = {true, false};
  axes.depth = {1};
  const std::vector<ampc::bench::GridCell> cells =
      ampc::bench::ConfigGrid(axes);
  const RunResult cache_batch = RunConvergentJump(n, cells[0]);
  const RunResult batch_only = RunConvergentJump(n, cells[1]);
  const RunResult cache_only = RunConvergentJump(n, cells[2]);
  const RunResult neither = RunConvergentJump(n, cells[3]);

  const double hit_rate =
      static_cast<double>(cache_batch.hits) /
      static_cast<double>(std::max<int64_t>(1, cache_batch.hits +
                                                   cache_batch.misses));
  ampc::bench::PrintHeader(
      "micro_cache: convergent pointer-jump simulated phase seconds",
      {"variant", "sim sec", "trips", "hit rate"});
  auto row = [&](const char* name, const RunResult& r, bool cached) {
    ampc::bench::PrintRow(
        {name, ampc::bench::FmtDouble(r.sim_sec, 6),
         ampc::bench::FmtInt(r.trips),
         cached ? ampc::bench::FmtDouble(
                      static_cast<double>(r.hits) /
                          static_cast<double>(std::max<int64_t>(
                              1, r.hits + r.misses)),
                      4)
                : std::string("-")});
  };
  row("cache+batch", cache_batch, true);
  row("batch only", batch_only, false);
  row("cache only", cache_only, true);
  row("neither", neither, false);
  ampc::bench::PrintPaperNote(
      "caching is the paper's largest Figure-4 win: the convergent "
      "ancestors are fetched once per machine and every revisit is served "
      "locally — no round trip, no owner bytes (Sections 5.3-5.4)");

  if (cache_batch.trips >= batch_only.trips) {
    std::fprintf(stderr,
                 "FATAL: caching did not strictly reduce kv_lookup_trips "
                 "on the convergent-roots phase (cached %lld, uncached "
                 "%lld)\n",
                 static_cast<long long>(cache_batch.trips),
                 static_cast<long long>(batch_only.trips));
    return 1;
  }
  if (cache_batch.sim_sec >= batch_only.sim_sec) {
    std::fprintf(stderr,
                 "FATAL: caching did not strictly reduce simulated time "
                 "(cached %.6f, uncached %.6f)\n",
                 cache_batch.sim_sec, batch_only.sim_sec);
    return 1;
  }

  FILE* out = std::fopen("BENCH_cache.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_cache.json\n");
    return 1;
  }
  std::fprintf(
      out,
      "{\n"
      "  \"bench\": \"micro_cache\",\n"
      "  \"num_keys\": %lld,\n"
      "  \"machines\": %d,\n"
      "  \"workload\": \"convergent_pointer_jump\",\n"
      "  \"hit_rate\": %.6f,\n"
      "  \"trip_reduction\": %.4f,\n"
      "  \"sim_speedup_over_batching_only\": %.4f,\n"
      "  \"grid\": [\n"
      "    {\"variant\": \"cache+batch\", \"sim_sec\": %.9f, \"trips\": "
      "%lld, \"lookups\": %lld},\n"
      "    {\"variant\": \"batch_only\", \"sim_sec\": %.9f, \"trips\": "
      "%lld, \"lookups\": %lld},\n"
      "    {\"variant\": \"cache_only\", \"sim_sec\": %.9f, \"trips\": "
      "%lld, \"lookups\": %lld},\n"
      "    {\"variant\": \"neither\", \"sim_sec\": %.9f, \"trips\": "
      "%lld, \"lookups\": %lld}\n"
      "  ]\n"
      "}\n",
      static_cast<long long>(n), kMachines, hit_rate,
      static_cast<double>(batch_only.trips) /
          static_cast<double>(std::max<int64_t>(1, cache_batch.trips)),
      batch_only.sim_sec / cache_batch.sim_sec, cache_batch.sim_sec,
      static_cast<long long>(cache_batch.trips),
      static_cast<long long>(cache_batch.lookups), batch_only.sim_sec,
      static_cast<long long>(batch_only.trips),
      static_cast<long long>(batch_only.lookups), cache_only.sim_sec,
      static_cast<long long>(cache_only.trips),
      static_cast<long long>(cache_only.lookups), neither.sim_sec,
      static_cast<long long>(neither.trips),
      static_cast<long long>(neither.lookups));
  std::fclose(out);
  std::printf("wrote BENCH_cache.json\n");
  return 0;
}
