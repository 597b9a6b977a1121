// Shared benchmark harness: the stand-in dataset registry and table
// printing helpers.
//
// The paper evaluates on five real graphs (Table 2): com-Orkut (OK),
// Twitter (TW), Friendster (FS), ClueWeb (CW) and Hyperlink2012 (HL),
// spanning 234M to 226B arcs. Those crawls cannot be shipped or fit on
// one host, so every bench runs on *structural stand-ins*: RMAT graphs
// whose relative size ordering and degree skew mirror the originals
// (social graphs: moderate skew; web graphs: heavy skew with large hubs).
// Absolute numbers therefore differ from the paper; the *shape* of each
// table/figure (who wins, by what factor, how it trends with size) is
// what each bench reproduces. Set AMPC_BENCH_SCALE to grow or shrink
// every dataset (default 1.0).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "sim/cluster.h"

namespace ampc::bench {

/// One stand-in dataset.
struct Dataset {
  std::string name;       // OK', TW', FS', CW', HL'
  std::string stands_for; // the paper dataset it substitutes
  graph::EdgeList edges;  // generated undirected edge list
  graph::Graph graph;     // symmetrized simple CSR
};

/// Generates the five stand-ins at the configured scale. `max_datasets`
/// truncates the list (benches that sweep many configurations use the
/// first 3 to stay fast).
std::vector<Dataset> LoadDatasets(int max_datasets = 5);

/// The benchmark cluster configuration used across all benches:
/// 8 machines x 8 worker threads, RDMA network, caching+multithreading
/// on, in-memory fallback threshold proportional to the graph (the paper
/// uses a fixed 5e7 edges against 234M-226B edge inputs; proportional
/// scaling preserves the phase counts).
sim::ClusterConfig BenchConfig(int64_t num_arcs);

/// The optimization-grid axes a bench sweeps. Every axis defaults to a
/// singleton holding the ClusterConfig default, so a bench declares
/// only the axes it varies and ConfigGrid enumerates the cross product
/// — the per-variant config-flipping of micro_lookup, micro_cache,
/// micro_pipeline and fig4, declared once.
struct GridAxes {
  std::vector<kv::PlacementPolicy> placement = {kv::PlacementPolicy::kHash};
  std::vector<FrontierMode> frontier = {FrontierMode::kSparse};
  std::vector<bool> batch = {true};
  std::vector<bool> cache = {true};
  std::vector<bool> multithreading = {true};
  std::vector<int> depth = {4};
};

/// One cell of the cross product: the knob values plus a label naming
/// the axes that actually vary across the grid.
struct GridCell {
  kv::PlacementPolicy placement = kv::PlacementPolicy::kHash;
  FrontierMode frontier = FrontierMode::kSparse;
  bool batch = true;
  bool cache = true;
  bool multithreading = true;
  int depth = 4;
  std::string label;

  /// Writes the cell's knobs into `config` (only the grid axes; the
  /// caller keeps ownership of everything else — machines, network,
  /// spawn cost, thresholds).
  void ApplyTo(sim::ClusterConfig& config) const;
};

/// Enumerates the cross product of `axes`, outermost axis first in the
/// declaration order of GridAxes (placement, frontier, batch, cache,
/// multithreading, depth); each axis iterates in the order
/// its values were given. Cell labels name only the varying axes.
std::vector<GridCell> ConfigGrid(const GridAxes& axes);

/// AMPC_BENCH_SCALE (default 1.0).
double BenchScale();

/// Repetition count from the named environment variable (benches keep
/// their historical per-bench names, e.g. AMPC_SHUFFLE_REPS /
/// AMPC_KV_REPS), falling back to `default_reps` when unset or invalid.
int Reps(const char* env_name, int default_reps = 3);

/// Best-of-N timing: the minimum of `reps` runs of `fn`.
template <typename Fn>
double BestOf(int reps, Fn fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double sec = fn();
    if (sec < best) best = sec;
  }
  return best;
}

/// Simple fixed-width table printing.
void PrintHeader(const std::string& title,
                 const std::vector<std::string>& columns);
void PrintRow(const std::vector<std::string>& cells);
void PrintPaperNote(const std::string& note);

std::string FmtInt(int64_t v);
std::string FmtDouble(double v, int precision = 2);
std::string FmtBytes(int64_t bytes);

}  // namespace ampc::bench
