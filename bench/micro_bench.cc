// ampc-lint: allow(bench-gate): google-benchmark harness, not a gated
// invariant bench; the CI gates live in the self-contained micro_* mains.
// ctest runs it as a smoke case (--benchmark_min_time=0.001).
// google-benchmark microbenchmarks for the substrate hot paths: hashing,
// KV store operations, RMQ construction/query, R-MAT generation, CSR
// construction, the sequential finishers, and the host pool's and phase
// runner's dispatch cost. These are the per-operation costs the simulated
// cost model abstracts over.
#include <benchmark/benchmark.h>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/kcore.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "kv/store.h"
#include "seq/exact_matching.h"
#include "seq/greedy.h"
#include "seq/kcore.h"
#include "seq/msf.h"
#include "seq/pagerank.h"
#include "sim/cluster.h"
#include "trees/rmq.h"

namespace {

using namespace ampc;

void BM_Hash64(benchmark::State& state) {
  uint64_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(x = Hash64(x, 42));
  }
}
BENCHMARK(BM_Hash64);

void BM_RngNextBelow(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.NextBelow(1000));
  }
}
BENCHMARK(BM_RngNextBelow);

void BM_KvStorePut(benchmark::State& state) {
  const int64_t n = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    kv::Store<uint64_t> store(n);
    state.ResumeTiming();
    for (int64_t k = 0; k < n; ++k) store.Put(k, k);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_KvStorePut)->Arg(1 << 14)->Arg(1 << 17);

void BM_KvStoreLookup(benchmark::State& state) {
  const int64_t n = state.range(0);
  kv::Store<uint64_t> store(n);
  for (int64_t k = 0; k < n; ++k) store.Put(k, k);
  uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Lookup(key));
    key = (key * 2654435761u + 1) % n;
  }
}
BENCHMARK(BM_KvStoreLookup)->Arg(1 << 17);

void BM_SparseTableBuild(benchmark::State& state) {
  const int64_t k = state.range(0);
  Rng rng(7);
  std::vector<int64_t> values(k);
  for (auto& v : values) v = static_cast<int64_t>(rng.Next());
  for (auto _ : state) {
    trees::MinSparseTable<int64_t> rmq(values);
    benchmark::DoNotOptimize(rmq.size());
  }
}
BENCHMARK(BM_SparseTableBuild)->Arg(1 << 12)->Arg(1 << 16);

void BM_SparseTableQuery(benchmark::State& state) {
  Rng rng(7);
  std::vector<int64_t> values(1 << 16);
  for (auto& v : values) v = static_cast<int64_t>(rng.Next());
  trees::MinSparseTable<int64_t> rmq(values);
  uint64_t x = 1;
  for (auto _ : state) {
    int64_t lo = static_cast<int64_t>(x % values.size());
    x = x * 6364136223846793005ULL + 1;
    int64_t hi = lo + static_cast<int64_t>(x % (values.size() - lo));
    x = x * 6364136223846793005ULL + 1;
    benchmark::DoNotOptimize(rmq.Query(lo, hi));
  }
}
BENCHMARK(BM_SparseTableQuery);

void BM_BuildGraphCsr(benchmark::State& state) {
  graph::EdgeList list =
      graph::GenerateRmat(14, state.range(0), 3);
  for (auto _ : state) {
    graph::Graph g = graph::BuildGraph(list);
    benchmark::DoNotOptimize(g.num_arcs());
  }
  state.SetItemsProcessed(state.iterations() * list.edges.size());
}
BENCHMARK(BM_BuildGraphCsr)->Arg(100'000);

void BM_BuildWeightedGraphCsr(benchmark::State& state) {
  graph::EdgeList raw = graph::GenerateRmat(14, state.range(0), 3);
  graph::WeightedEdgeList list =
      graph::MakeDegreeWeighted(raw, graph::BuildGraph(raw));
  for (auto _ : state) {
    graph::WeightedGraph g = graph::BuildWeightedGraph(list);
    benchmark::DoNotOptimize(g.num_arcs());
  }
  state.SetItemsProcessed(state.iterations() * list.edges.size());
}
BENCHMARK(BM_BuildWeightedGraphCsr)->Arg(100'000);

// bench/e2e's web shape at 2^16 nodes.
void BM_GenerateRmat(benchmark::State& state) {
  graph::RmatOptions web;
  web.a = 0.65;
  web.b = web.c = (1.0 - web.a) / 3.0;
  for (auto _ : state) {
    graph::EdgeList list = graph::GenerateRmat(16, state.range(0), 3, web);
    benchmark::DoNotOptimize(list.edges.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GenerateRmat)->Arg(500'000);

void BM_KruskalFinisher(benchmark::State& state) {
  graph::EdgeList raw = graph::GenerateRmat(13, state.range(0), 5);
  graph::WeightedEdgeList list = graph::MakeRandomWeighted(raw, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(seq::KruskalMsf(list));
  }
  state.SetItemsProcessed(state.iterations() * list.edges.size());
}
BENCHMARK(BM_KruskalFinisher)->Arg(100'000);

void BM_GreedyMisFinisher(benchmark::State& state) {
  graph::EdgeList list = graph::GenerateRmat(13, 100'000, 5);
  graph::Graph g = graph::BuildGraph(list);
  std::vector<uint64_t> ranks(g.num_nodes());
  for (size_t i = 0; i < ranks.size(); ++i) ranks[i] = Hash64(i, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(seq::GreedyMis(g, ranks));
  }
}
BENCHMARK(BM_GreedyMisFinisher);

void BM_GreedyWeightMatchingFinisher(benchmark::State& state) {
  graph::EdgeList raw = graph::GenerateRmat(13, 100'000, 5);
  graph::WeightedEdgeList list = graph::MakeRandomWeighted(raw, 17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(seq::GreedyWeightMatching(list));
  }
  state.SetItemsProcessed(state.iterations() * list.edges.size());
}
BENCHMARK(BM_GreedyWeightMatchingFinisher);

void BM_CorePeelingOracle(benchmark::State& state) {
  graph::Graph g =
      graph::BuildGraph(graph::GenerateRmat(14, state.range(0), 7));
  for (auto _ : state) {
    benchmark::DoNotOptimize(seq::CoreDecomposition(g));
  }
  state.SetItemsProcessed(state.iterations() * g.num_arcs());
}
BENCHMARK(BM_CorePeelingOracle)->Arg(200'000);

void BM_HIndex(benchmark::State& state) {
  Rng rng(5);
  std::vector<int32_t> base(state.range(0));
  for (auto& v : base) v = static_cast<int32_t>(rng.NextBelow(1000));
  for (auto _ : state) {
    std::vector<int32_t> values = base;
    benchmark::DoNotOptimize(core::HIndex(values));
  }
  state.SetItemsProcessed(state.iterations() * base.size());
}
BENCHMARK(BM_HIndex)->Arg(64)->Arg(4096);

void BM_PageRankPowerIteration(benchmark::State& state) {
  graph::Graph g = graph::BuildGraph(graph::GenerateRmat(12, 80'000, 9));
  seq::PageRankOptions options;
  options.max_iterations = 10;
  options.tolerance = 0.0;  // fixed 10 iterations for a stable measure
  for (auto _ : state) {
    benchmark::DoNotOptimize(seq::PageRankExact(g, options));
  }
  state.SetItemsProcessed(state.iterations() * g.num_arcs() * 10);
}
BENCHMARK(BM_PageRankPowerIteration);

void BM_ExactMatchingDp(benchmark::State& state) {
  graph::EdgeList list =
      graph::GenerateErdosRenyi(state.range(0), 3 * state.range(0), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(seq::ExactMaximumMatchingSize(list));
  }
}
BENCHMARK(BM_ExactMatchingDp)->Arg(16)->Arg(20);

// The host pool's dispatch cost per call: a loop of 16 chunks of about
// 1 us each (range(0) hash steps), too short for the work to hide how
// long helpers take to join.
void BM_ParallelForShortLoop(benchmark::State& state) {
  ThreadPool& pool = ThreadPool::Global();
  const int64_t steps = state.range(0);
  std::vector<uint64_t> out(16);
  for (auto _ : state) {
    ParallelFor(pool, 0, 16, 1, [&](int64_t c) {
      uint64_t h = static_cast<uint64_t>(c);
      for (int64_t i = 0; i < steps; ++i) h = Mix64(h);
      out[c] = h;
    });
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_ParallelForShortLoop)->Arg(400)->UseRealTime();

// The phase runner's fixed cost: an 8-machine batch map phase over
// range(0) items whose slices do nothing, so the time is bucketing,
// dispatch and the settle.
void BM_RunMapPhaseNoop(benchmark::State& state) {
  sim::ClusterConfig config;
  config.num_machines = 8;
  sim::Cluster cluster(config);
  const int64_t n = state.range(0);
  for (auto _ : state) {
    cluster.RunBatchMapPhase(
        "Noop", n,
        [](std::span<const int64_t> items, sim::MachineContext&) {
          benchmark::DoNotOptimize(items.data());
        });
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RunMapPhaseNoop)->Arg(1 << 17)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
