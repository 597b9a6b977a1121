#include "bench_common.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "graph/generators.h"

namespace ampc::bench {
namespace {

struct Spec {
  const char* name;
  const char* stands_for;
  int log2_nodes;
  int64_t edges;
  double rmat_a;  // higher a = heavier degree skew (web-like)
};

// Size ordering and skew mirror Table 2: two social networks, one large
// social network, two web crawls with extreme hubs.
constexpr Spec kSpecs[] = {
    {"OK'", "com-Orkut (3.07M nodes / 234M arcs)", 15, 500'000, 0.57},
    {"TW'", "Twitter (41.6M / 2.4B)", 16, 1'200'000, 0.60},
    {"FS'", "Friendster (65.6M / 3.6B)", 17, 2'000'000, 0.57},
    {"CW'", "ClueWeb (0.978B / 74.7B)", 18, 4'000'000, 0.65},
    {"HL'", "Hyperlink2012 (3.56B / 225.8B)", 19, 6'000'000, 0.65},
};

}  // namespace

double BenchScale() {
  const char* env = std::getenv("AMPC_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  const double scale = std::atof(env);
  return scale > 0 ? scale : 1.0;
}

int Reps(const char* env_name, int default_reps) {
  const char* env = std::getenv(env_name);
  const int reps = env == nullptr ? default_reps : std::atoi(env);
  return reps > 0 ? reps : default_reps;
}

std::vector<Dataset> LoadDatasets(int max_datasets) {
  const double scale = BenchScale();
  std::vector<Dataset> datasets;
  for (const Spec& spec : kSpecs) {
    if (static_cast<int>(datasets.size()) >= max_datasets) break;
    Dataset d;
    d.name = spec.name;
    d.stands_for = spec.stands_for;
    graph::RmatOptions options;
    options.a = spec.rmat_a;
    options.b = (1.0 - spec.rmat_a) / 3.0;
    options.c = (1.0 - spec.rmat_a) / 3.0;
    d.edges = graph::GenerateRmat(
        spec.log2_nodes, static_cast<int64_t>(spec.edges * scale),
        /*seed=*/0x5eed0 + spec.log2_nodes, options);
    d.graph = graph::BuildGraph(d.edges);
    datasets.push_back(std::move(d));
  }
  return datasets;
}

void GridCell::ApplyTo(sim::ClusterConfig& config) const {
  config.placement_policy = placement;
  config.frontier.mode = frontier;
  config.batch_lookups = batch;
  config.query_cache.enabled = cache;
  config.multithreading = multithreading;
  config.pipeline_depth = depth;
}

std::vector<GridCell> ConfigGrid(const GridAxes& axes) {
  std::vector<GridCell> cells;
  for (const kv::PlacementPolicy placement : axes.placement) {
    for (const FrontierMode frontier : axes.frontier) {
      for (const bool batch : axes.batch) {
        for (const bool cache : axes.cache) {
          for (const bool multithreading : axes.multithreading) {
            for (const int depth : axes.depth) {
              GridCell cell;
              cell.placement = placement;
              cell.frontier = frontier;
              cell.batch = batch;
              cell.cache = cache;
              cell.multithreading = multithreading;
              cell.depth = depth;
              std::vector<std::string> parts;
              if (axes.placement.size() > 1) {
                parts.push_back(kv::PlacementPolicyName(placement));
              }
              if (axes.frontier.size() > 1) {
                parts.push_back(FrontierModeName(frontier));
              }
              if (axes.batch.size() > 1) {
                parts.push_back(batch ? "batch" : "nobatch");
              }
              if (axes.cache.size() > 1) {
                parts.push_back(cache ? "cache" : "nocache");
              }
              if (axes.multithreading.size() > 1) {
                parts.push_back(multithreading ? "mt" : "nomt");
              }
              if (axes.depth.size() > 1) {
                parts.push_back("depth" + std::to_string(depth));
              }
              std::string label;
              for (const std::string& part : parts) {
                if (!label.empty()) label += "+";
                label += part;
              }
              cell.label = label.empty() ? "default" : label;
              cells.push_back(std::move(cell));
            }
          }
        }
      }
    }
  }
  return cells;
}

sim::ClusterConfig BenchConfig(int64_t num_arcs) {
  sim::ClusterConfig config;
  config.num_machines = 8;
  config.threads_per_machine = 8;
  config.query_cache.enabled = true;
  config.multithreading = true;
  config.network = kv::NetworkModel::Rdma();
  config.in_memory_threshold_arcs = std::max<int64_t>(10'000, num_arcs / 100);
  return config;
}

void PrintHeader(const std::string& title,
                 const std::vector<std::string>& columns) {
  std::printf("\n== %s ==\n", title.c_str());
  for (const std::string& c : columns) std::printf("%-16s", c.c_str());
  std::printf("\n");
  for (size_t i = 0; i < columns.size(); ++i) std::printf("%-16s", "----");
  std::printf("\n");
}

// Each cell fills 16 columns; a cell of 16 or more characters is
// followed by one space instead, so it never runs into the next one.
void PrintRow(const std::vector<std::string>& cells) {
  for (const std::string& c : cells) std::printf("%-15s ", c.c_str());
  std::printf("\n");
}

void PrintPaperNote(const std::string& note) {
  std::printf("# paper: %s\n", note.c_str());
}

std::string FmtInt(int64_t v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

std::string FmtDouble(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string FmtBytes(int64_t bytes) {
  char buf[64];
  if (bytes >= (int64_t{1} << 30)) {
    std::snprintf(buf, sizeof(buf), "%.2fGB",
                  static_cast<double>(bytes) / (1 << 30));
  } else if (bytes >= (1 << 20)) {
    std::snprintf(buf, sizeof(buf), "%.2fMB",
                  static_cast<double>(bytes) / (1 << 20));
  } else if (bytes >= (1 << 10)) {
    std::snprintf(buf, sizeof(buf), "%.2fKB",
                  static_cast<double>(bytes) / (1 << 10));
  } else {
    std::snprintf(buf, sizeof(buf), "%" PRId64 "B", bytes);
  }
  return buf;
}

}  // namespace ampc::bench
