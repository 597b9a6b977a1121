// ampc_e2e — the measuring half of the end-to-end benchmark; run.py is
// the other half and turns this program's raw numbers into metrics.
//
// One process runs one workload:
//   1. set-up: generates the input graph (from --seed, except for the
//      fixed social dataset) and builds it, a few times, keeping the
//      last copy;
//   2. a warm-up rep whose outputs the sequential oracles check;
//   3. timed reps until --seconds have passed (at least a minimum count);
//      each later rep's outputs must equal the warm-up's exactly;
//   4. prints one JSON object of per-rep raw measurements on stdout.
// The program is timed only from outside: every span is a call into a
// module's public entry point, and the simulator's own counters and
// wall:/sim: timers are read after each job.
//
//   ampc_e2e --workload NAME [--seed S] [--seconds T] [--trace] [--smoke]
//   ampc_e2e --probe [--smoke]
//
// --trace alternates untraced and traced reps and keeps, for the traced
// ones, every span and one slice per simulated round. --probe times a
// fixed seeded ParallelSort instead, a witness of host speed.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/boruvka.h"
#include "baselines/local_contraction.h"
#include "baselines/rootset_matching.h"
#include "baselines/rootset_mis.h"
#include "common/parallel.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/connectivity.h"
#include "core/kcore.h"
#include "core/matching.h"
#include "core/mis.h"
#include "core/msf.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "seq/greedy.h"
#include "seq/kcore.h"
#include "seq/msf.h"
#include "seq/union_find.h"
#include "sim/cluster.h"

namespace {

using namespace ampc;
using graph::NodeId;

// The algorithms' own randomness and the cluster's placement use one
// fixed seed (ampc_cli's default): a paper run fixes its configuration.
constexpr uint64_t kProgramSeed = 42;

// The social workloads run one fixed stand-in dataset, as the paper runs
// fixed real graphs. On hub-heavy R-MAT graphs the cost of the random
// contractions is itself random: across graph seeds AmpcMsf takes 9 or
// 18 rounds and MpcBoruvkaMsf 70 to 112, which would swamp every cost
// metric. The ER and web workloads take their graph from --seed; their
// round counts do not move with it.
constexpr uint64_t kSocialDatasetSeed = 1;

// Microseconds on the monotonic clock. It is shared by every process on
// the host, so run.py can lay the probe processes' spans beside these.
double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto sec = [](const timeval& tv) { return tv.tv_sec + tv.tv_usec * 1e-6; };
  return sec(usage.ru_utime) + sec(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------- JSON

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

template <typename T, typename Fn>
std::string Array(const std::vector<T>& items, Fn to_json) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i != 0) out += ",";
    out += to_json(items[i]);
  }
  return out + "]";
}

std::string Ints(const std::vector<int64_t>& v) {
  return Array(v, [](int64_t x) { return std::to_string(x); });
}

std::string Doubles(const std::vector<double>& v) {
  return Array(v, [](double x) { return Num(x); });
}

// ---------------------------------------------------------------- spans

struct Span {
  std::string name;
  std::string rep;
  double start_us = 0;
  double end_us = 0;
};

// Times a call from outside and, when `spans` is set, keeps the span.
template <typename Fn>
double Timed(std::vector<Span>* spans, const std::string& name,
             const std::string& rep, Fn fn) {
  const double start = NowUs();
  fn();
  const double end = NowUs();
  if (spans != nullptr) spans->push_back({name, rep, start, end});
  return (end - start) * 1e-6;
}

std::string SpansJson(const std::vector<Span>& spans) {
  return Array(spans, [](const Span& s) {
    return "{\"name\":" + Quote(s.name) + ",\"rep\":" + Quote(s.rep) +
           ",\"start_us\":" + Num(s.start_us) +
           ",\"end_us\":" + Num(s.end_us) + "}";
  });
}

// ---------------------------------------------------------------- inputs

struct Inputs {
  graph::EdgeList list;
  graph::Graph g;
  graph::WeightedEdgeList weighted;  // degree weights; MSF workloads only
};

enum class Generator { kRmatSocial, kRmatWeb, kErdosRenyi };

struct GraphSpec {
  Generator generator;
  int log2_nodes;
  int64_t edges;
};

// The paper's stand-in shapes (bench/bench_common.cc): social graphs are
// R-MAT with a = 0.57, web graphs R-MAT with a = 0.65 and heavy hubs.
graph::EdgeList Generate(const GraphSpec& spec, uint64_t seed) {
  switch (spec.generator) {
    case Generator::kRmatSocial:
      return graph::GenerateRmat(spec.log2_nodes, spec.edges, seed);
    case Generator::kRmatWeb: {
      graph::RmatOptions options;
      options.a = 0.65;
      options.b = options.c = (1.0 - options.a) / 3.0;
      return graph::GenerateRmat(spec.log2_nodes, spec.edges, seed, options);
    }
    case Generator::kErdosRenyi:
      return graph::GenerateErdosRenyi(int64_t{1} << spec.log2_nodes,
                                       spec.edges, seed);
  }
  return {};
}

// ---------------------------------------------------------------- oracles

// One job's output, flattened so reps can be compared exactly.
struct Output {
  std::vector<graph::EdgeId> edges;  // spanning-forest edge ids
  std::vector<NodeId> nodes;         // component labels or matching partners
  std::vector<uint8_t> flags;        // MIS membership
  std::vector<int32_t> coreness;
  int64_t count = 0;                 // number of components

  bool operator==(const Output&) const = default;
};

// Sequential reference answers, each computed once per process and timed
// as a seq.* span.
class Oracles {
 public:
  Oracles(const Inputs& in, std::vector<Span>* spans)
      : in_(in), spans_(spans) {}

  template <typename Fn>
  auto Run(const char* name, Fn fn) {
    decltype(fn()) result{};
    Timed(spans_, name, "oracle", [&] { result = fn(); });
    return result;
  }

  graph::Weight MsfWeight() {
    if (!msf_weight_) {
      msf_weight_ = Run("seq.KruskalMsf", [&] {
        return seq::TotalWeight(in_.weighted, seq::KruskalMsf(in_.weighted));
      });
    }
    return *msf_weight_;
  }

  int64_t Components() {
    if (!components_) {
      components_ = Run("seq.UnionFind", [&] {
        seq::UnionFind uf(in_.list.num_nodes);
        for (const graph::Edge& e : in_.list.edges) uf.Union(e.u, e.v);
        int64_t roots = 0;
        for (int64_t v = 0; v < in_.list.num_nodes; ++v) {
          roots += uf.Find(v) == v;
        }
        return roots;
      });
    }
    return *components_;
  }

  const std::vector<int32_t>& Coreness() {
    if (!coreness_) {
      coreness_ = Run("seq.CoreDecomposition",
                      [&] { return seq::CoreDecomposition(in_.g); });
    }
    return *coreness_;
  }

 private:
  const Inputs& in_;
  std::vector<Span>* spans_;
  std::optional<graph::Weight> msf_weight_;
  std::optional<int64_t> components_;
  std::optional<std::vector<int32_t>> coreness_;
};

// Each check returns "" when the output is right, else the reason.
std::string CheckForest(const Inputs& in, Oracles& oracles, const Output& out) {
  if (!oracles.Run("seq.IsSpanningForest", [&] {
        return seq::IsSpanningForest(in.weighted, out.edges);
      })) {
    return "not a spanning forest";
  }
  const graph::Weight weight = seq::TotalWeight(in.weighted, out.edges);
  if (weight != oracles.MsfWeight()) {
    return "forest weight " + Num(weight) + " != Kruskal " +
           Num(oracles.MsfWeight());
  }
  return "";
}

std::string CheckComponents(const Inputs& in, Oracles& oracles,
                            const Output& out) {
  if (out.count != oracles.Components()) {
    return std::to_string(out.count) + " components != union-find " +
           std::to_string(oracles.Components());
  }
  if (static_cast<int64_t>(out.nodes.size()) != in.list.num_nodes) {
    return "label vector has the wrong length";
  }
  for (const graph::Edge& e : in.list.edges) {
    if (out.nodes[e.u] != out.nodes[e.v]) return "an edge spans two labels";
  }
  std::vector<NodeId> labels = out.nodes;
  std::sort(labels.begin(), labels.end());
  const int64_t distinct =
      std::unique(labels.begin(), labels.end()) - labels.begin();
  return distinct == out.count ? "" : "label count != component count";
}

std::string CheckCoreness(const Inputs&, Oracles& oracles, const Output& out) {
  return out.coreness == oracles.Coreness() ? ""
                                            : "coreness != CoreDecomposition";
}

std::string CheckMis(const Inputs& in, Oracles& oracles, const Output& out) {
  return oracles.Run("seq.IsMaximalIndependentSet",
                     [&] {
                       return out.flags.size() ==
                                  static_cast<size_t>(in.g.num_nodes()) &&
                              seq::IsMaximalIndependentSet(in.g, out.flags);
                     })
             ? ""
             : "not a maximal independent set";
}

std::string CheckMatching(const Inputs& in, Oracles& oracles,
                          const Output& out) {
  const std::vector<NodeId>& partner = out.nodes;
  const int64_t n = in.g.num_nodes();
  if (static_cast<int64_t>(partner.size()) != n) {
    return "partner vector has the wrong length";
  }
  // Pairs must be mutual graph edges before ToSeqMatching may map them.
  for (int64_t v = 0; v < n; ++v) {
    const NodeId p = partner[v];
    if (p == graph::kInvalidNode) continue;
    const auto nbrs = in.g.neighbors(static_cast<NodeId>(v));
    if (p >= n || partner[p] != v ||
        !std::binary_search(nbrs.begin(), nbrs.end(), p)) {
      return "partners are not mutual graph edges";
    }
  }
  return oracles.Run("seq.IsMaximalMatching",
                     [&] {
                       const seq::MatchingResult m =
                           core::ToSeqMatching(in.list, partner);
                       return seq::IsMaximalMatching(in.list, m.edges);
                     })
             ? ""
             : "not a maximal matching";
}

// ---------------------------------------------------------------- workloads

struct Job {
  std::string span;  // "<module>.<entry point>"
  std::function<Output(sim::Cluster&, const Inputs&)> run;
  std::function<std::string(const Inputs&, Oracles&, const Output&)> check;
};

struct Workload {
  std::string name;
  GraphSpec full;
  GraphSpec smoke;
  std::optional<uint64_t> dataset_seed;  // set: ignore --seed for the graph
  bool weighted = false;
  FrontierMode frontier = FrontierMode::kSparse;
  std::vector<Job> jobs;
};

Job MsfJob() {
  return {"core.AmpcMsf",
          [](sim::Cluster& c, const Inputs& in) {
            core::MsfOptions options;
            options.seed = kProgramSeed;
            return Output{
                .edges = core::AmpcMsf(c, in.weighted, options).edges};
          },
          CheckForest};
}

Job ConnectivityJob() {
  return {"core.AmpcConnectivity",
          [](sim::Cluster& c, const Inputs& in) {
            core::MsfOptions options;
            options.seed = kProgramSeed;
            core::ConnectivityResult r =
                core::AmpcConnectivity(c, in.list, options);
            return Output{.nodes = std::move(r.component),
                          .count = r.num_components};
          },
          CheckComponents};
}

std::vector<Workload> Workloads() {
  return {
      {"msf-cc-social",
       {Generator::kRmatSocial, 16, 500'000},
       {Generator::kRmatSocial, 10, 8'000},
       kSocialDatasetSeed,
       true,
       FrontierMode::kSparse,
       {MsfJob(), ConnectivityJob()}},
      {"kcore-dense-er",
       {Generator::kErdosRenyi, 17, 1'000'000},
       {Generator::kErdosRenyi, 10, 8'000},
       std::nullopt,
       false,
       FrontierMode::kHybrid,
       {{"core.AmpcKCore",
         [](sim::Cluster& c, const Inputs& in) {
           return Output{.coreness = core::AmpcKCore(c, in.g).coreness};
         },
         CheckCoreness}}},
      {"mis-mm-web",
       {Generator::kRmatWeb, 18, 2'000'000},
       {Generator::kRmatWeb, 10, 8'000},
       std::nullopt,
       false,
       FrontierMode::kSparse,
       {{"core.AmpcMis",
         [](sim::Cluster& c, const Inputs& in) {
           return Output{.flags = core::AmpcMis(c, in.g, kProgramSeed).in_mis};
         },
         CheckMis},
        {"core.AmpcMatching",
         [](sim::Cluster& c, const Inputs& in) {
           core::MatchingOptions options;
           options.seed = kProgramSeed;
           return Output{.nodes = core::AmpcMatching(c, in.g, options).partner};
         },
         CheckMatching}}},
      {"mpc-social",
       {Generator::kRmatSocial, 16, 500'000},
       {Generator::kRmatSocial, 10, 8'000},
       kSocialDatasetSeed,
       true,
       FrontierMode::kSparse,
       {{"baselines.MpcBoruvkaMsf",
         [](sim::Cluster& c, const Inputs& in) {
           baselines::BoruvkaResult r =
               baselines::MpcBoruvkaMsf(c, in.weighted, kProgramSeed);
           return Output{.edges = std::move(r.edges)};
         },
         CheckForest},
        {"baselines.MpcLocalContractionCC",
         [](sim::Cluster& c, const Inputs& in) {
           baselines::LocalContractionResult r =
               baselines::MpcLocalContractionCC(c, in.list, kProgramSeed);
           return Output{.nodes = std::move(r.component),
                         .count = r.num_components};
         },
         CheckComponents},
        {"baselines.MpcRootsetMis",
         [](sim::Cluster& c, const Inputs& in) {
           return Output{
               .flags = baselines::MpcRootsetMis(c, in.g, kProgramSeed).in_mis};
         },
         CheckMis},
        {"baselines.MpcRootsetMatching",
         [](sim::Cluster& c, const Inputs& in) {
           baselines::RootsetMatchingResult r =
               baselines::MpcRootsetMatching(c, in.g, kProgramSeed);
           return Output{.nodes = std::move(r.partner)};
         },
         CheckMatching}}},
  };
}

// ---------------------------------------------------------------- reps

struct JobRun {
  std::string span;
  double wall_s = 0;     // Cluster construction + entry call + teardown
  double cluster_s = 0;  // Cluster construction alone
  double entry_s = 0;    // the entry-point call alone
  double sim_s = 0;
  double phases_wall_s = 0;  // Cluster::WallSeconds()
  MetricsSnapshot metrics;
  std::vector<double> round_sim;
  std::vector<sim::RoundFootprint> footprints;  // traced reps only
  Output output;
};

struct Rep {
  std::string id;
  bool traced = false;
  double wall_s = 0;
  double cpu_s = 0;
  std::vector<JobRun> jobs;
};

Rep RunRep(const Workload& w, const Inputs& in,
           const sim::ClusterConfig& config, const std::string& id,
           bool traced, std::vector<Span>* spans) {
  Rep rep;
  rep.id = id;
  rep.traced = traced;
  std::vector<Span>* kept = traced ? spans : nullptr;
  const double cpu_start = CpuSeconds();
  for (const Job& job : w.jobs) {
    JobRun run;
    run.span = job.span;
    run.wall_s = Timed(kept, "bench.job", id, [&] {
      std::optional<sim::Cluster> cluster;
      run.cluster_s =
          Timed(kept, "sim.Cluster", id, [&] { cluster.emplace(config); });
      run.entry_s = Timed(kept, job.span, id,
                          [&] { run.output = job.run(*cluster, in); });
      run.sim_s = cluster->SimSeconds();
      run.phases_wall_s = cluster->WallSeconds();
      run.metrics = cluster->metrics().Snapshot();
      run.round_sim = cluster->round_log();
      if (traced) run.footprints = cluster->round_footprints();
    });
    rep.wall_s += run.wall_s;
    rep.jobs.push_back(std::move(run));
  }
  rep.cpu_s = CpuSeconds() - cpu_start;
  return rep;
}

std::string RepJson(const Rep& rep) {
  auto job_json = [](const JobRun& j) {
    std::string counters = "{";
    for (const auto& [name, value] : j.metrics.counters) {
      if (counters.size() > 1) counters += ",";
      counters += Quote(name) + ":" + std::to_string(value);
    }
    std::string timers = "{";
    for (const auto& [name, value] : j.metrics.timers_sec) {
      if (timers.size() > 1) timers += ",";
      timers += Quote(name) + ":" + Num(value);
    }
    std::string json = "{\"span\":" + Quote(j.span) +
                       ",\"wall_s\":" + Num(j.wall_s) +
                       ",\"cluster_s\":" + Num(j.cluster_s) +
                       ",\"entry_s\":" + Num(j.entry_s) +
                       ",\"sim_s\":" + Num(j.sim_s) +
                       ",\"phases_wall_s\":" + Num(j.phases_wall_s) +
                       ",\"counters\":" + counters + "}" +
                       ",\"timers\":" + timers + "}" +
                       ",\"round_sim\":" + Doubles(j.round_sim);
    auto round_json = [](const sim::RoundFootprint& f) {
      return "{\"phase\":" + Quote(f.phase) +
             ",\"read\":" + Ints(f.kv_read_bytes) +
             ",\"write\":" + Ints(f.kv_write_bytes) + "}";
    };
    if (!j.footprints.empty()) {
      json += ",\"rounds\":" + Array(j.footprints, round_json);
    }
    return json + "}";
  };
  return "{\"id\":" + Quote(rep.id) +
         ",\"traced\":" + (rep.traced ? "true" : "false") +
         ",\"wall_s\":" + Num(rep.wall_s) + ",\"cpu_s\":" + Num(rep.cpu_s) +
         ",\"jobs\":" + Array(rep.jobs, job_json) + "}";
}

// ---------------------------------------------------------------- main

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  bool probe = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--workload" && has_value) {
      args->workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      args->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      args->seconds = std::atof(argv[++i]);
    } else if (flag == "--trace") {
      args->trace = true;
    } else if (flag == "--smoke") {
      args->smoke = true;
    } else if (flag == "--probe") {
      args->probe = true;
    } else {
      return false;
    }
  }
  return args->probe || !args->workload.empty();
}

// A fixed, seeded ParallelSort of 2^24 keys on the same pool size a
// Cluster gets: it does the same work on every run, so its time moves
// only with the host.
int RunProbe(const Args& args) {
  const int64_t n = int64_t{1} << (args.smoke ? 16 : 24);
  std::vector<uint64_t> keys(n);
  for (int64_t i = 0; i < n; ++i) keys[i] = Hash64(i, 0x5eed);
  const int hw =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  ThreadPool pool(std::min(64, hw));
  std::vector<Span> spans;
  const double seconds = Timed(&spans, "common.sort_probe", "probe",
                               [&] { ParallelSort(pool, keys); });
  const bool sorted = std::is_sorted(keys.begin(), keys.end());
  std::printf("{\"sort_probe_s\":%s,\"sorted\":%s,\"spans\":%s}\n",
              Num(seconds).c_str(), sorted ? "true" : "false",
              SpansJson(spans).c_str());
  return sorted ? 0 : 1;
}

int RunWorkload(const Args& args) {
  std::optional<Workload> found;
  for (Workload& w : Workloads()) {
    if (w.name == args.workload) found = std::move(w);
  }
  if (!found) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *found;
  const GraphSpec& spec = args.smoke ? w.smoke : w.full;
  std::vector<Span> spans;

  // Set-up, timed several times so its median is steady.
  Inputs in;
  std::vector<double> generate_s, build_s, setup_s;
  const int setup_rounds = args.smoke ? 1 : 5;
  for (int r = 0; r < setup_rounds; ++r) {
    const std::string id = "setup-" + std::to_string(r);
    const double start = NowUs();
    generate_s.push_back(Timed(&spans, "graph.generate", id, [&] {
      in.list = Generate(spec, w.dataset_seed.value_or(args.seed));
    }));
    build_s.push_back(Timed(&spans, "graph.build", id, [&] {
      in.g = graph::BuildGraph(in.list);
      if (w.weighted) in.weighted = graph::MakeDegreeWeighted(in.list, in.g);
    }));
    setup_s.push_back((NowUs() - start) * 1e-6);
  }

  // The configuration ampc_cli uses for the same input.
  sim::ClusterConfig config;
  config.seed = kProgramSeed;
  config.frontier.mode = w.frontier;
  config.in_memory_threshold_arcs =
      std::max<int64_t>(64, in.g.num_arcs() / 50);

  // The warm-up rep fills the allocator and page cache; its outputs are
  // the ones the oracles check, and every timed rep must reproduce them.
  const Rep warm = RunRep(w, in, config, "warm-up", args.trace, &spans);
  std::vector<Rep> reps;
  // Traced mode alternates untraced and traced reps, so needs twice as many.
  const int min_reps = (args.smoke ? 1 : 3) * (args.trace ? 2 : 1);
  const double timed_start = NowUs();
  double last_wall = 0;
  while (static_cast<int>(reps.size()) < min_reps ||
         (NowUs() - timed_start) * 1e-6 + last_wall <= args.seconds) {
    const int index = static_cast<int>(reps.size());
    const bool traced = args.trace && index % 2 == 1;
    reps.push_back(RunRep(w, in, config, "rep-" + std::to_string(index),
                          traced, &spans));
    last_wall = reps.back().wall_s;
  }
  const double peak_rss_mb = PeakRssMb();

  // Correctness: oracles on the warm-up, exact equality on every rep.
  Oracles oracles(in, &spans);
  int64_t attempted = 0, failed = 0;
  std::string failures = "[";
  auto fail = [&](const std::string& where, const std::string& why) {
    ++failed;
    if (failures.size() > 1) failures += ",";
    failures += Quote(where + ": " + why);
  };
  std::vector<bool> warm_ok;
  for (size_t j = 0; j < w.jobs.size(); ++j) {
    ++attempted;
    const std::string why = w.jobs[j].check(in, oracles, warm.jobs[j].output);
    warm_ok.push_back(why.empty());
    if (!why.empty()) fail(warm.id + " " + w.jobs[j].span, why);
  }
  for (const Rep& rep : reps) {
    for (size_t j = 0; j < w.jobs.size(); ++j) {
      ++attempted;
      const JobRun& base = warm.jobs[j];
      const JobRun& run = rep.jobs[j];
      if (!(run.output == base.output)) {
        fail(rep.id + " " + run.span, "output differs from the warm-up rep");
      } else if (run.metrics.counters.at("rounds") !=
                     base.metrics.counters.at("rounds") ||
                 run.metrics.counters.at("shuffles") !=
                     base.metrics.counters.at("shuffles")) {
        fail(rep.id + " " + run.span, "round or shuffle count differs");
      } else if (!warm_ok[j]) {
        fail(rep.id + " " + run.span, "reproduces a wrong output");
      }
    }
  }
  failures += "]";

  std::printf(
      "{\"workload\":%s,\"seed\":%" PRIu64 ",\"smoke\":%s,\"nodes\":%" PRId64
      ",\"arcs\":%" PRId64 ",\"machines\":%d,\"generate_s\":%s,\"build_s\":%s"
      ",\"setup_s\":%s,\"peak_rss_mb\":%s,\"attempted\":%" PRId64
      ",\"failed\":%" PRId64 ",\"failures\":%s,\"warm_up\":%s,\"reps\":%s"
      ",\"spans\":%s}\n",
      Quote(w.name).c_str(), args.seed, args.smoke ? "true" : "false",
      in.g.num_nodes(), in.g.num_arcs(), config.num_machines,
      Doubles(generate_s).c_str(), Doubles(build_s).c_str(),
      Doubles(setup_s).c_str(), Num(peak_rss_mb).c_str(), attempted, failed,
      failures.c_str(), RepJson(warm).c_str(),
      Array(reps, RepJson).c_str(), SpansJson(spans).c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: ampc_e2e --workload NAME [--seed S] [--seconds T] "
                 "[--trace] [--smoke]\n"
                 "       ampc_e2e --probe [--smoke]\n");
    return 2;
  }
  return args.probe ? RunProbe(args) : RunWorkload(args);
}
