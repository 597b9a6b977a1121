#include "core/kcore.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <memory>
#include <span>

#include "common/bitmap.h"
#include "common/frontier.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "kv/placement.h"
#include "kv/sharded_store.h"

namespace ampc::core {
namespace {

using graph::NodeId;

using AdjStore = kv::ShardedStore<std::span<const NodeId>>;
using ValueStore = kv::ShardedStore<int32_t>;

/// One worker slice of a push h-index round: the manual ticket pipeline
/// over per-vertex neighbor windows. Each vertex's h-index
/// recomputation is one adaptive step needing every neighbor's
/// published value. The reads are independent across the worker's
/// vertices, so the worker pipelines them: each vertex's neighbor list
/// ships as sub-batch windows (one LookupManyAsync ticket each, at most
/// max_batch_keys keys), with up to pipeline_depth tickets — usually
/// spanning several vertices — in flight at once so their round trips
/// overlap. High-degree neighbors are shared by many vertices of a
/// machine, so their published values are served from the query cache
/// after the first fetch each round (the fresh per-round store resets
/// the cache). `on_result(item, h)` receives each settled vertex's new
/// h-index.
template <typename OnResult>
void HIndexSlice(std::span<const int64_t> items, sim::MachineContext& ctx,
                 const AdjStore& adjacency, const ValueStore& values,
                 OnResult&& on_result) {
  struct Pending {
    kv::LookupTicket<int32_t> ticket;
    int64_t item;
    bool last_window;  // the final window of the item's list
  };
  const size_t depth = static_cast<size_t>(ctx.pipeline_depth());
  const int64_t max_keys = ctx.max_batch_keys();
  std::deque<Pending> inflight;
  // Neighbor values of the item currently settling. Tickets settle
  // FIFO and an item's windows are issued contiguously, so the
  // accumulator only ever holds one item's values.
  std::vector<int32_t> neighbor_values;
  auto settle_oldest = [&] {
    Pending pending = std::move(inflight.front());
    inflight.pop_front();
    const kv::LookupBatchResult<int32_t> batch = ctx.Await(pending.ticket);
    for (const int32_t* value : batch.values) {
      neighbor_values.push_back(value == nullptr ? 0 : *value);
    }
    if (pending.last_window) {
      on_result(pending.item, HIndex(neighbor_values));
      neighbor_values.clear();
    }
  };
  std::vector<uint64_t> keys;
  for (const int64_t item : items) {
    const NodeId v = static_cast<NodeId>(item);
    const std::span<const NodeId>* adj = ctx.LookupLocal(adjacency, v);
    const size_t degree = adj->size();
    const size_t window = max_keys > 0 ? static_cast<size_t>(max_keys)
                                       : std::max<size_t>(1, degree);
    // An isolated vertex still issues one (empty) window so its
    // h-index of zero settles through the same path.
    size_t begin = 0;
    do {
      const size_t end = std::min(degree, begin + window);
      keys.assign(adj->begin() + begin, adj->begin() + end);
      if (inflight.size() == depth) settle_oldest();
      inflight.push_back(Pending{
          ctx.LookupManyAsync(values, std::span<const uint64_t>(keys)),
          item, end >= degree});
      begin = end;
    } while (begin < degree);
  }
  while (!inflight.empty()) settle_oldest();
}

/// One worker slice of an h-index round run as a pull round. Its reads
/// resolve at once as local sweeps against the round's exchange, which
/// charges each distinct key once per worker per step whatever window
/// carries it, and the slice opens no adaptive step, so the whole round
/// is one exchange step per worker. So the slice packs the neighbor
/// lists of consecutive vertices into shared windows of up to
/// max_batch_keys keys (<= 0: one window), one ticket each, and settles
/// each vertex's h-index from its span of the values read.
template <typename OnResult>
void PackedHIndexSlice(std::span<const int64_t> items,
                       sim::MachineContext& ctx, const AdjStore& adjacency,
                       const ValueStore& values, OnResult&& on_result) {
  const int64_t max_keys = ctx.max_batch_keys();
  const size_t window = max_keys > 0 ? static_cast<size_t>(max_keys)
                                     : std::numeric_limits<size_t>::max();
  std::vector<uint64_t> keys;  // the open window
  // Values read for the vertices of `listed`, in order, then those read
  // so far for the vertex whose list the open window split.
  std::vector<int32_t> read;
  // (item, degree) of each vertex whose whole list is read or in the
  // open window, and not yet settled.
  std::vector<std::pair<int64_t, size_t>> listed;
  const auto flush = [&] {
    kv::LookupTicket<int32_t> ticket =
        ctx.LookupManyAsync(values, std::span<const uint64_t>(keys));
    const kv::LookupBatchResult<int32_t> batch = ctx.Await(ticket);
    for (const int32_t* value : batch.values) {
      read.push_back(value == nullptr ? 0 : *value);
    }
    keys.clear();
    size_t begin = 0;
    for (const auto& [item, degree] : listed) {
      on_result(item,
                HIndex(std::span<const int32_t>(read).subspan(begin, degree)));
      begin += degree;
    }
    listed.clear();
    read.erase(read.begin(), read.begin() + begin);
  };
  for (const int64_t item : items) {
    const std::span<const NodeId> adj =
        *ctx.LookupLocal(adjacency, static_cast<NodeId>(item));
    size_t begin = 0;
    do {
      const size_t take = std::min(adj.size() - begin, window - keys.size());
      keys.insert(keys.end(), adj.begin() + begin,
                  adj.begin() + (begin + take));
      begin += take;
      if (begin == adj.size()) listed.emplace_back(item, adj.size());
      if (keys.size() == window) flush();
    } while (begin < adj.size());
  }
  if (!listed.empty()) flush();
}

}  // namespace

int32_t HIndex(std::span<const int32_t> values) {
  // h is the largest value with |{x : x >= h}| >= h, and h <= d =
  // |values|. So histogram the values clamped to [0, d] and scan down
  // from d, counting the values that reach each level. An h-index round
  // calls this once per vertex, so each thread keeps one histogram.
  const int32_t d = static_cast<int32_t>(values.size());
  thread_local std::vector<int32_t> at_level;
  at_level.assign(static_cast<size_t>(d) + 1, 0);
  for (const int32_t x : values) ++at_level[std::clamp(x, 0, d)];
  int32_t reaching = 0;
  for (int32_t h = d; h > 0; --h) {
    reaching += at_level[h];
    if (reaching >= h) return h;
  }
  return 0;
}

KCoreResult AmpcKCore(sim::Cluster& cluster, const graph::Graph& g,
                      const KCoreOptions& options) {
  const int64_t n = g.num_nodes();

  // Stage the adjacency once: one shuffle plus one cheap KV-write round.
  // A record is a view of the vertex's CSR row, which outlives the job,
  // and is charged the bytes of the packed list it stands for.
  WallTimer timer;
  int64_t adjacency_bytes = 0;
  for (NodeId v = 0; v < n; ++v) adjacency_bytes += g.AdjacencyBytes(v);
  cluster.AccountShuffle("WriteGraph", adjacency_bytes, timer.Seconds());
  AdjStore adjacency = cluster.MakeStore<std::span<const NodeId>>(n);
  cluster.RunKvWritePhase("KV-Write", adjacency, n, [&](int64_t v) {
    return g.neighbors(static_cast<NodeId>(v));
  });

  KCoreResult result;
  result.coreness.assign(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    result.coreness[v] = static_cast<int32_t>(g.degree(v));
  }
  if (n == 0) return result;

  // Frontier peeling: only *active* vertices recompute — round 1
  // everyone, afterwards the vertices with a neighbor whose coreness
  // changed last round. A vertex whose neighborhood did not change
  // recomputes to the same h-index, so skipping it is exact: the
  // per-round changed sets, the iteration count, and the final
  // coreness are those of recomputing every vertex every round. Each
  // round the policy picks the representation from the active set's
  // size and out-edge mass: dense rounds pull (bitmap broadcast + local
  // shard sweep, no per-vertex trips), sparse rounds push the active
  // list through the batched lookup client.
  std::vector<int32_t> next(n, 0);
  const sim::ClusterConfig::FrontierConfig& frontier_config =
      cluster.config().frontier;
  FrontierPolicy policy(frontier_config.mode, frontier_config.alpha,
                        frontier_config.beta, n, g.num_arcs());
  SlidingQueue frontier(n);
  for (int64_t v = 0; v < n; ++v) frontier.Push(v);
  frontier.SlideWindow();
  while (!frontier.WindowEmpty()) {
    AMPC_CHECK_LT(result.iterations, options.max_iterations)
        << "h-index iteration did not converge";
    ++result.iterations;

    // Publish the current values into a fresh per-round store D_i
    // (cheap round) — the full coreness vector, since reads must see
    // every neighbor's current value, active or not.
    ValueStore values = cluster.MakeStore<int32_t>(n);
    cluster.RunKvWritePhase("ValueWrite", values, n, [&](int64_t v) {
      return result.coreness[v];
    });

    const std::span<const int64_t> active = frontier.Window();
    int64_t frontier_edges = 0;
    for (const int64_t v : active) {
      frontier_edges += g.degree(static_cast<NodeId>(v));
    }
    AtomicBitmap changed(n);
    auto on_result = [&](int64_t item, int32_t h) {
      if (h != result.coreness[item]) {
        next[item] = h;
        changed.Set(item);
      }
    };
    if (policy.UseDense(static_cast<int64_t>(active.size()),
                        frontier_edges)) {
      cluster.RunPullPhase(
          "HIndex", n, active,
          [&](std::span<const int64_t> items, sim::MachineContext& ctx) {
            PackedHIndexSlice(items, ctx, adjacency, values, on_result);
          });
    } else {
      cluster.NoteSparseFrontierRound();
      cluster.RunBatchMapPhase(
          "HIndex", n, active,
          [&](std::span<const int64_t> items, sim::MachineContext& ctx) {
            HIndexSlice(items, ctx, adjacency, values, on_result);
          });
    }
    for (const int64_t v : active) {
      if (changed.Test(v)) result.coreness[v] = next[v];
    }

    // Next frontier: every vertex with at least one changed neighbor.
    // Per-chunk discoveries are concatenated in chunk order, so the
    // window's contents are schedule-independent.
    const std::vector<IndexChunk> chunks = SplitIndexChunks(
        0, n, 2048, DefaultChunksForPool(cluster.pool()));
    std::vector<std::vector<int64_t>> discovered(chunks.size());
    cluster.pool().RunTasks(std::ssize(chunks), [&](int64_t c) {
      for (int64_t u = chunks[c].begin; u < chunks[c].end; ++u) {
        for (const NodeId neighbor : g.neighbors(static_cast<NodeId>(u))) {
          if (changed.Test(neighbor)) {
            discovered[c].push_back(u);
            break;
          }
        }
      }
    });
    for (const std::vector<int64_t>& part : discovered) {
      for (const int64_t u : part) frontier.Push(u);
    }
    frontier.SlideWindow();
  }
  return result;
}

}  // namespace ampc::core
