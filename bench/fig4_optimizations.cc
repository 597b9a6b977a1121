// fig4_optimizations — the Figure 4 optimization grid on all six
// adaptive cores.
//
// The paper's Figure 4 ablates caching and multithreading on four
// algorithms; this library's optimization surface has grown to five
// axes (batching, caching, multithreading, pipeline depth, placement
// policy, plus the frontier engine's push/pull mode), and this bench
// sweeps the full grid on every adaptive core: mis, msf, kcore,
// pagerank, connectivity, and 1-vs-2-cycle, each on a workload shaped
// to its access pattern.
//
// The run FAILS (exit 1) if, on any core:
//   * the default cell — the grid cell whose knobs equal the stock
//     BenchConfig's (batch, hash, sparse, cache, mt, depth 4), i.e. the
//     configuration a job runs when no knob is set — is not within
//     kDefaultTolerance (5%) of the best cell's simulated time; or
//   * any cell returns outputs that are not bit-identical to the first
//     cell's — every axis must stay strictly a cost decision.
// The default cell is read from the grid itself, so the gate costs no
// extra run.
//
// Writes BENCH_fig4.json: the per-core grid (simulated seconds and KV
// read bytes per cell), the best cell, and the default cell.
//
//   AMPC_BENCH_SCALE   scales every workload (default 1.0)
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/connectivity.h"
#include "core/kcore.h"
#include "core/mis.h"
#include "core/msf.h"
#include "core/one_vs_two_cycle.h"
#include "core/pagerank.h"
#include "graph/generators.h"
#include "graph/graph.h"

namespace {

using ampc::bench::ConfigGrid;
using ampc::bench::GridAxes;
using ampc::bench::GridCell;

constexpr uint64_t kSeed = 42;
constexpr double kDefaultTolerance = 1.05;

// One core's workload and output serialization. The runner executes the
// algorithm on the given cluster and returns its output as bytes — the
// bit-identity currency of the value-neutrality gate.
struct CoreSpec {
  const char* name;
  int64_t num_arcs;
  // Whether the core routes frontiers through the engine (msf, kcore,
  // pagerank, connectivity): only then does the grid sweep the
  // sparse/hybrid axis — mis and 1-vs-2-cycle would run identical
  // lookup paths under either label.
  bool frontier_core;
  std::function<std::vector<uint8_t>(ampc::sim::Cluster&)> run;
};

template <typename T>
std::vector<uint8_t> PodBytes(const std::vector<T>& values) {
  std::vector<uint8_t> out(values.size() * sizeof(T));
  if (!out.empty()) std::memcpy(out.data(), values.data(), out.size());
  return out;
}

struct CellResult {
  std::string label;
  double sim_sec = 0;
  int64_t kv_read_bytes = 0;
};

struct RunOutcome {
  double sim_sec = 0;
  int64_t kv_read_bytes = 0;
  std::vector<uint8_t> output;
};

RunOutcome RunOnce(const CoreSpec& core, const ampc::sim::ClusterConfig& config) {
  ampc::sim::Cluster cluster(config);
  RunOutcome outcome;
  outcome.output = core.run(cluster);
  outcome.sim_sec = cluster.SimSeconds();
  outcome.kv_read_bytes = cluster.metrics().Get("kv_read_bytes");
  return outcome;
}

// Whether `cell` sets every grid knob to its value in `stock`: the
// configuration a job runs when no knob is set.
bool IsDefaultCell(const GridCell& cell,
                   const ampc::sim::ClusterConfig& stock) {
  return cell.placement == stock.placement_policy &&
         cell.frontier == stock.frontier.mode &&
         cell.batch == stock.batch_lookups &&
         cell.cache == stock.query_cache.enabled &&
         cell.multithreading == stock.multithreading &&
         cell.depth == stock.pipeline_depth;
}

// The pruned hand-picked grid: with batching off, depth/placement/
// frontier have nothing to act on (scalar charging pays per key
// regardless), so only cache x mt vary; with batching on, the full
// cache x mt x depth x placement (x frontier, for frontier cores) cube.
std::vector<GridCell> CoreGrid(bool frontier_core) {
  GridAxes off;
  off.batch = {false};
  off.cache = {true, false};
  off.multithreading = {true, false};
  off.depth = {1};
  GridAxes on;
  on.batch = {true};
  on.cache = {true, false};
  on.multithreading = {true, false};
  on.depth = {1, 4};
  on.placement = {ampc::kv::PlacementPolicy::kHash,
                  ampc::kv::PlacementPolicy::kRange};
  if (frontier_core) {
    on.frontier = {ampc::FrontierMode::kSparse, ampc::FrontierMode::kHybrid};
  }
  std::vector<GridCell> cells;
  for (GridCell cell : ConfigGrid(off)) {
    cell.label = "nobatch+" + cell.label;
    cells.push_back(std::move(cell));
  }
  for (GridCell cell : ConfigGrid(on)) {
    cell.label = "batch+" + cell.label;
    cells.push_back(std::move(cell));
  }
  return cells;
}

}  // namespace

int main() {
  using namespace ampc;
  using namespace ampc::bench;
  const double scale = BenchScale();
  const auto scaled = [scale](int64_t v) {
    return std::max<int64_t>(1000, static_cast<int64_t>(v * scale));
  };

  // Workloads shaped to each core's access pattern (RMAT skew for the
  // social-graph cores, dense ER for kcore's peeling, the paper's 2xk
  // double cycle for Section 5.6).
  const graph::EdgeList mis_edges =
      graph::GenerateRmat(14, scaled(100'000), /*seed=*/0x5eedf1);
  const graph::Graph mis_graph = graph::BuildGraph(mis_edges);
  const graph::EdgeList msf_base =
      graph::GenerateErdosRenyi(8'000, scaled(40'000), /*seed=*/0x5eedf2);
  const graph::WeightedEdgeList msf_edges =
      graph::MakeRandomWeighted(msf_base, /*seed=*/0x5eedf3);
  const graph::EdgeList kcore_edges =
      graph::GenerateErdosRenyi(8'000, scaled(48'000), /*seed=*/0x5eedf4);
  const graph::Graph kcore_graph = graph::BuildGraph(kcore_edges);
  const graph::EdgeList pr_edges =
      graph::GenerateRmat(13, scaled(60'000), /*seed=*/0x5eedf5);
  const graph::Graph pr_graph = graph::BuildGraph(pr_edges);
  const graph::EdgeList cc_edges =
      graph::GenerateErdosRenyi(10'000, scaled(15'000), /*seed=*/0x5eedf6);
  const graph::EdgeList cycle_edges = graph::GenerateDoubleCycle(
      std::max<int64_t>(64, static_cast<int64_t>(4'000 * scale)));
  const graph::Graph cycle_graph = graph::BuildGraph(cycle_edges);

  const CoreSpec cores[] = {
      {"mis", mis_graph.num_arcs(), false,
       [&](sim::Cluster& c) {
         return PodBytes(core::AmpcMis(c, mis_graph, kSeed).in_mis);
       }},
      {"msf", static_cast<int64_t>(msf_edges.edges.size()) * 2, true,
       [&](sim::Cluster& c) {
         return PodBytes(core::AmpcMsf(c, msf_edges).edges);
       }},
      {"kcore", kcore_graph.num_arcs(), true,
       [&](sim::Cluster& c) {
         return PodBytes(core::AmpcKCore(c, kcore_graph).coreness);
       }},
      {"pagerank", pr_graph.num_arcs(), true,
       [&](sim::Cluster& c) {
         core::PageRankMcOptions options;
         options.seed = kSeed;
         options.walks_per_node = 4;
         return PodBytes(
             core::AmpcMonteCarloPageRank(c, pr_graph, options).rank);
       }},
      {"connectivity", static_cast<int64_t>(cc_edges.edges.size()) * 2, true,
       [&](sim::Cluster& c) {
         return PodBytes(core::AmpcConnectivity(c, cc_edges).component);
       }},
      {"1v2cycle", cycle_graph.num_arcs(), false,
       [&](sim::Cluster& c) {
         const core::CycleResult r = core::AmpcOneVsTwoCycle(c, cycle_graph);
         return PodBytes(std::vector<int32_t>{r.num_cycles});
       }},
  };

  struct CoreReport {
    std::string name;
    std::vector<CellResult> grid;
    std::string best_label;
    double best_sim = 0;
    double worst_sim = 0;
    std::string default_label;
    double default_sim = 0;
  };
  std::vector<CoreReport> reports;

  for (const CoreSpec& core : cores) {
    CoreReport report;
    report.name = core.name;
    std::vector<uint8_t> reference_output;
    bool have_reference = false;
    const sim::ClusterConfig stock = BenchConfig(core.num_arcs);
    for (const GridCell& cell : CoreGrid(core.frontier_core)) {
      sim::ClusterConfig config = stock;
      cell.ApplyTo(config);
      const RunOutcome outcome = RunOnce(core, config);
      if (!have_reference) {
        reference_output = outcome.output;
        have_reference = true;
        report.best_sim = report.worst_sim = outcome.sim_sec;
        report.best_label = cell.label;
      } else {
        if (outcome.output != reference_output) {
          std::fprintf(stderr,
                       "FATAL: %s cell '%s' changed the output — "
                       "optimization toggles must be cost-only\n",
                       core.name, cell.label.c_str());
          return 1;
        }
        if (outcome.sim_sec < report.best_sim) {
          report.best_sim = outcome.sim_sec;
          report.best_label = cell.label;
        }
        report.worst_sim = std::max(report.worst_sim, outcome.sim_sec);
      }
      if (IsDefaultCell(cell, stock)) {
        report.default_label = cell.label;
        report.default_sim = outcome.sim_sec;
      }
      report.grid.push_back(
          CellResult{cell.label, outcome.sim_sec, outcome.kv_read_bytes});
    }
    if (report.default_label.empty()) {
      std::fprintf(stderr, "FATAL: %s grid has no default cell\n", core.name);
      return 1;
    }
    reports.push_back(std::move(report));
  }

  PrintHeader("Figure 4: optimization grid (simulated seconds)",
              {"core", "best cell", "best", "worst", "default",
               "default/best"});
  bool failed = false;
  for (const CoreReport& report : reports) {
    PrintRow({report.name, report.best_label, FmtDouble(report.best_sim, 4),
              FmtDouble(report.worst_sim, 4), FmtDouble(report.default_sim, 4),
              FmtDouble(report.default_sim / report.best_sim, 4)});
    if (report.default_sim > kDefaultTolerance * report.best_sim) {
      std::fprintf(stderr,
                   "FATAL: %s default cell '%s' %.4fs exceeds %.0f%% of the "
                   "best cell '%s' (%.4fs)\n",
                   report.name.c_str(), report.default_label.c_str(),
                   report.default_sim, (kDefaultTolerance - 1.0) * 100.0,
                   report.best_label.c_str(), report.best_sim);
      failed = true;
    }
  }
  PrintPaperNote(
      "Figure 4 ablates caching and multithreading; the grown grid adds "
      "batching, pipeline depth, placement, and frontier mode. The "
      "default cell (batch, hash, sparse, cache, mt, depth 4), which a "
      "job runs when no knob is set, lands within 5% of the best cell on "
      "every core.");
  if (failed) return 1;

  FILE* out = std::fopen("BENCH_fig4.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_fig4.json\n");
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"fig4_optimizations\",\n"
               "  \"default_tolerance\": %.2f,\n"
               "  \"cores\": [\n",
               kDefaultTolerance);
  for (size_t c = 0; c < reports.size(); ++c) {
    const CoreReport& report = reports[c];
    std::fprintf(out,
                 "    {\"core\": \"%s\", \"best_label\": \"%s\", "
                 "\"best_sim_sec\": %.9f, \"worst_sim_sec\": %.9f, "
                 "\"default_label\": \"%s\", \"default_sim_sec\": %.9f, "
                 "\"default_over_best\": %.4f,\n"
                 "     \"grid\": [\n",
                 report.name.c_str(), report.best_label.c_str(),
                 report.best_sim, report.worst_sim,
                 report.default_label.c_str(), report.default_sim,
                 report.default_sim / report.best_sim);
    for (size_t i = 0; i < report.grid.size(); ++i) {
      const CellResult& cell = report.grid[i];
      std::fprintf(out,
                   "      {\"label\": \"%s\", \"sim_sec\": %.9f, "
                   "\"kv_read_bytes\": %lld}%s\n",
                   cell.label.c_str(), cell.sim_sec,
                   static_cast<long long>(cell.kv_read_bytes),
                   i + 1 < report.grid.size() ? "," : "");
    }
    std::fprintf(out, "     ]}%s\n", c + 1 < reports.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote BENCH_fig4.json\n");
  return 0;
}
