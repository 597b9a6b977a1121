#include "core/pagerank.h"

#include <atomic>
#include <memory>

#include "common/logging.h"
#include "common/random.h"
#include "common/timer.h"
#include "kv/sharded_store.h"

namespace ampc::core {
namespace {

using graph::NodeId;

using AdjStore = kv::ShardedStore<std::vector<NodeId>>;

// Stages the adjacency in the DHT: one shuffle + one cheap KV-write.
std::unique_ptr<AdjStore> StageAdjacency(sim::Cluster& cluster,
                                         const graph::Graph& g) {
  const int64_t n = g.num_nodes();
  WallTimer timer;
  int64_t bytes = 0;
  for (NodeId v = 0; v < n; ++v) bytes += g.AdjacencyBytes(v);
  cluster.AccountShuffle("WriteGraph", bytes, timer.Seconds());
  auto store = std::make_unique<AdjStore>(
      cluster.MakeStore<std::vector<NodeId>>(n));
  cluster.RunKvWritePhase("KV-Write", *store, n, [&](int64_t v) {
    const auto span = g.neighbors(static_cast<NodeId>(v));
    return std::vector<NodeId>(span.begin(), span.end());
  });
  return store;
}

// The walk's next hop from `v`, or kInvalidNode to stop. Dangling
// vertices teleport to a uniform vertex with probability `damping`
// (matching the exact oracle's dangling redistribution) and stop
// otherwise.
NodeId NextHop(const std::vector<NodeId>* adj, int64_t n, double damping,
               Rng& rng) {
  if (!rng.NextBernoulli(damping)) return graph::kInvalidNode;
  if (adj == nullptr || adj->empty()) {
    return static_cast<NodeId>(rng.NextBelow(static_cast<uint64_t>(n)));
  }
  return (*adj)[rng.NextBelow(adj->size())];
}

// One in-flight random walk of the batched frontier. Each worker
// advances all of its walks together (sim::DriveLookupPipelined): every
// adaptive step moves each active walk one hop and fetches the whole
// frontier's adjacencies as bounded sub-batch windows, keeping up to
// ClusterConfig::pipeline_depth windows in flight so their round trips
// overlap (one serialized trip per destination per depth windows)
// instead of one synchronous lookup per walk per hop. Walk frontiers
// collide on hub vertices, so the query cache serves repeated adjacency
// fetches locally — within a batch (duplicate frontier keys are fetched
// once) and across steps. Per-walk RNG streams are hash-seeded, so
// outputs match the scalar walk exactly.
struct WalkState {
  Rng rng;
  NodeId v;
  const std::vector<NodeId>* adj;
  bool done = false;
};

bool WalkDone(const WalkState& w) { return w.done; }
uint64_t WalkKey(const WalkState& w) { return w.v; }

}  // namespace

PageRankMcResult AmpcMonteCarloPageRank(sim::Cluster& cluster,
                                        const graph::Graph& g,
                                        const PageRankMcOptions& options) {
  const int64_t n = g.num_nodes();
  PageRankMcResult result;
  if (n == 0) return result;
  AMPC_CHECK_GT(options.walks_per_node, 0);

  std::unique_ptr<AdjStore> store = StageAdjacency(cluster, g);

  auto visits = std::make_unique<std::atomic<int64_t>[]>(n);
  for (int64_t v = 0; v < n; ++v) {
    visits[v].store(0, std::memory_order_relaxed);
  }
  std::atomic<int64_t> steps{0};

  // Walks start at every vertex, so the frontier covers the whole
  // graph — dense under the hybrid policy whenever the graph has edges.
  const bool pull =
      cluster.UsePullPhase(n, g.num_arcs(), n, g.num_arcs());
  const auto walk_slice =
      [&](std::span<const int64_t> items, sim::MachineContext& ctx) {
        int64_t local_steps = 0;
        // One hop: count the visit, draw the next vertex, finish or move.
        auto advance = [&](WalkState& w) {
          visits[w.v].fetch_add(1, std::memory_order_relaxed);
          const NodeId next = NextHop(w.adj, n, options.damping, w.rng);
          if (next == graph::kInvalidNode) {
            w.done = true;
            return;
          }
          w.v = next;
          ++local_steps;
        };
        std::vector<WalkState> walks;
        walks.reserve(items.size() *
                      static_cast<size_t>(options.walks_per_node));
        for (const int64_t item : items) {
          const NodeId start = static_cast<NodeId>(item);
          const std::vector<NodeId>* adj = ctx.LookupLocal(*store, start);
          for (int j = 0; j < options.walks_per_node; ++j) {
            // Per-(vertex, walk) hash stream: identical output regardless
            // of which machine/worker runs the item.
            walks.push_back(WalkState{
                Rng(Hash64(static_cast<uint64_t>(item) *
                                   options.walks_per_node +
                               j,
                           options.seed ^ 0x7061676572616e6bULL)),
                start, adj});
            advance(walks.back());
          }
        }
        const auto resume = [&](WalkState& w,
                                const std::vector<NodeId>* adj) {
          w.adj = adj;
          advance(w);
        };
        sim::DriveLookupPipelined(ctx, *store, walks, WalkDone, WalkKey,
                                  resume);
        steps.fetch_add(local_steps, std::memory_order_relaxed);
      };
  if (pull) {
    cluster.RunPullPhase("RandomWalks", n, walk_slice);
  } else {
    cluster.RunBatchMapPhase("RandomWalks", n, walk_slice);
  }

  result.total_steps = steps.load();
  result.rank.resize(n);
  double total = 0.0;
  for (int64_t v = 0; v < n; ++v) {
    result.rank[v] = static_cast<double>(visits[v].load());
    total += result.rank[v];
  }
  for (double& r : result.rank) r /= total;
  return result;
}

PageRankMcResult AmpcPersonalizedPageRank(sim::Cluster& cluster,
                                          const graph::Graph& g,
                                          NodeId source,
                                          const PageRankMcOptions& options) {
  const int64_t n = g.num_nodes();
  PageRankMcResult result;
  if (n == 0) return result;
  AMPC_CHECK_LT(source, n);
  AMPC_CHECK_GT(options.walks_per_node, 0);

  std::unique_ptr<AdjStore> store = StageAdjacency(cluster, g);

  auto visits = std::make_unique<std::atomic<int64_t>[]>(n);
  for (int64_t v = 0; v < n; ++v) {
    visits[v].store(0, std::memory_order_relaxed);
  }
  std::atomic<int64_t> steps{0};

  // Every walk starts at the single source vertex: a one-vertex
  // frontier, which the hybrid policy keeps sparse (pull would sweep
  // whole shards to answer one hot key the cache already serves).
  const bool pull = cluster.UsePullPhase(
      1, static_cast<int64_t>(g.degree(source)), n, g.num_arcs());
  const auto walk_slice =
      [&](std::span<const int64_t> items, sim::MachineContext& ctx) {
        int64_t local_steps = 0;
        auto advance = [&](WalkState& w) {
          visits[w.v].fetch_add(1, std::memory_order_relaxed);
          if (!w.rng.NextBernoulli(options.damping)) {
            w.done = true;
            return;
          }
          // Dangling vertices return to the source (the personalized
          // teleport target), matching PersonalizedPageRankExact.
          const NodeId next = (w.adj == nullptr || w.adj->empty())
                                  ? source
                                  : (*w.adj)[w.rng.NextBelow(w.adj->size())];
          w.v = next;
          ++local_steps;
        };
        // Every walk starts at the source and begins with a (remote)
        // fetch of its adjacency, exactly as the scalar client did —
        // the driver ships the whole frontier's fetches as one batch
        // per adaptive step, the first step included.
        std::vector<WalkState> walks;
        walks.reserve(items.size() *
                      static_cast<size_t>(options.walks_per_node));
        for (const int64_t item : items) {
          for (int j = 0; j < options.walks_per_node; ++j) {
            walks.push_back(WalkState{
                Rng(Hash64(static_cast<uint64_t>(item) *
                                   options.walks_per_node +
                               j,
                           options.seed ^ 0x707072616e6bULL)),
                source, nullptr});
          }
        }
        const auto resume = [&](WalkState& w,
                                const std::vector<NodeId>* adj) {
          w.adj = adj;
          advance(w);
        };
        sim::DriveLookupPipelined(ctx, *store, walks, WalkDone, WalkKey,
                                  resume);
        steps.fetch_add(local_steps, std::memory_order_relaxed);
      };
  if (pull) {
    cluster.RunPullPhase("PersonalizedWalks", n, walk_slice);
  } else {
    cluster.RunBatchMapPhase("PersonalizedWalks", n, walk_slice);
  }

  result.total_steps = steps.load();
  result.rank.resize(n);
  double total = 0.0;
  for (int64_t v = 0; v < n; ++v) {
    result.rank[v] = static_cast<double>(visits[v].load());
    total += result.rank[v];
  }
  for (double& r : result.rank) r /= total;
  return result;
}

std::vector<std::vector<NodeId>> AmpcSampleWalks(sim::Cluster& cluster,
                                                 const graph::Graph& g,
                                                 const WalkOptions& options) {
  const int64_t n = g.num_nodes();
  AMPC_CHECK_GT(options.walks_per_node, 0);
  AMPC_CHECK_GE(options.length, 0);
  std::vector<std::vector<NodeId>> walks(
      static_cast<size_t>(n) * options.walks_per_node);
  if (n == 0) return walks;

  std::unique_ptr<AdjStore> store = StageAdjacency(cluster, g);

  // Like RandomWalks: walks start everywhere, so the frontier is dense
  // whenever the hybrid policy sees edges.
  const bool pull =
      cluster.UsePullPhase(n, g.num_arcs(), n, g.num_arcs());
  const auto walk_slice =
      [&](std::span<const int64_t> items, sim::MachineContext& ctx) {
        struct SampleState {
          Rng rng;
          const std::vector<NodeId>* adj;
          std::vector<NodeId>* out;
          int remaining;
          NodeId cur = 0;
          bool done = false;
        };
        auto advance = [](SampleState& s) {
          if (s.remaining <= 0 || s.adj == nullptr || s.adj->empty()) {
            s.done = true;  // length reached or stranded
            return;
          }
          s.cur = (*s.adj)[s.rng.NextBelow(s.adj->size())];
          s.out->push_back(s.cur);
          --s.remaining;
        };
        std::vector<SampleState> states;
        states.reserve(items.size() *
                       static_cast<size_t>(options.walks_per_node));
        for (const int64_t item : items) {
          const NodeId start = static_cast<NodeId>(item);
          const std::vector<NodeId>* adj = ctx.LookupLocal(*store, start);
          for (int j = 0; j < options.walks_per_node; ++j) {
            std::vector<NodeId>& walk =
                walks[static_cast<size_t>(item) * options.walks_per_node +
                      j];
            walk.reserve(options.length + 1);
            walk.push_back(start);
            states.push_back(SampleState{
                Rng(Hash64(static_cast<uint64_t>(item) *
                                   options.walks_per_node +
                               j,
                           options.seed ^ 0x6465657077616c6bULL)),
                adj, &walk, options.length});
            advance(states.back());
          }
        }
        const auto done = [](const SampleState& s) { return s.done; };
        const auto key = [](const SampleState& s) {
          return static_cast<uint64_t>(s.cur);
        };
        const auto resume = [&](SampleState& s,
                                const std::vector<NodeId>* adj) {
          s.adj = adj;
          advance(s);
        };
        sim::DriveLookupPipelined(ctx, *store, states, done, key, resume);
      };
  if (pull) {
    cluster.RunPullPhase("SampleWalks", n, walk_slice);
  } else {
    cluster.RunBatchMapPhase("SampleWalks", n, walk_slice);
  }
  return walks;
}

}  // namespace ampc::core
