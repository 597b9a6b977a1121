#include "core/mis.h"

#include <span>

#include "common/timer.h"
#include "core/priorities.h"
#include "kv/query_cache.h"
#include "kv/sharded_store.h"

namespace ampc::core {
namespace {

using graph::Graph;
using graph::NodeId;

// Three-valued query state (paper Section 5.3: "this table stores a
// three-valued state reporting whether the status of this vertex is
// either Unknown, InMIS or NotInMIS"). The states live in each
// machine's bounded kv::QueryCache, which the machine's worker slices
// use in turn (MachineContext::DerivedCache), rather than a bespoke O(n)
// atomic array; an evicted state is simply recomputed, so outputs never
// depend on cache contents.
enum MisState : uint8_t { kUnknown = 0, kInMis = 1, kNotInMis = 2 };

// Resumable, iterative version of the IsInMIS recursion of Figure 1: v
// is in the MIS iff none of its preceding neighbors is. An explicit
// stack replaces recursion because descending-rank chains can be
// Theta(n) long, and the resolution is a state machine so a worker can
// run many of them in lockstep: Advance runs until the resolution either
// needs a remote adjacency (`pending` set — exactly where the scalar
// client issued its synchronous Lookup) or finishes (`done` set), and
// each adaptive step fetches every active resolution's pending adjacency
// in one batched step of sim::DriveLookupPipelined.
struct MisResolveState {
  struct Frame {
    NodeId v;
    const std::span<const NodeId>* adj;  // preceding neighbors, ascending rank
    size_t idx;
    bool awaiting;  // a child frame is computing adj[idx]'s state
  };

  int64_t item = 0;
  std::vector<Frame> stack;
  uint8_t last = kUnknown;
  NodeId pending = 0;
  bool done = false;
  kv::QueryCache<uint8_t>* cache = nullptr;
  uint64_t epoch = 0;  // MachineContext::CacheEpoch of the adjacency store

  uint8_t CacheGet(NodeId x) const {
    if (cache == nullptr) return kUnknown;
    return cache->Get(x, epoch).value_or(static_cast<uint8_t>(kUnknown));
  }
  void CacheSet(NodeId x, uint8_t state) {
    if (cache != nullptr) cache->Put(x, epoch, state);
  }

  // Runs the resolution until it terminates (done = true, result in
  // `last`) or needs the adjacency of `pending`.
  void Advance(sim::MachineContext& ctx) {
    while (!stack.empty()) {
      Frame& f = stack.back();
      if (f.awaiting) {
        f.awaiting = false;
        if (last == kInMis) {
          CacheSet(f.v, kNotInMis);
          last = kNotInMis;
          stack.pop_back();
          continue;
        }
        ++f.idx;  // child resolved NotInMIS; keep scanning
      }
      bool needs_lookup = false;
      uint8_t decided = kUnknown;
      while (f.adj != nullptr && f.idx < f.adj->size()) {
        const NodeId u = (*f.adj)[f.idx];
        const uint8_t su = CacheGet(u);
        if (su == kInMis) {
          ctx.CountCacheHit();
          decided = kNotInMis;
          break;
        }
        if (su == kNotInMis) {
          ctx.CountCacheHit();
          ++f.idx;
          continue;
        }
        // A derived-state miss: the resolution must descend, fetching
        // u's adjacency through the read-through lookup pipeline (which
        // does its own hit/miss accounting at the query-cache layer).
        if (cache != nullptr) ctx.CountCacheMiss();
        f.awaiting = true;
        pending = u;
        needs_lookup = true;
        break;
      }
      if (needs_lookup) return;
      if (decided == kUnknown) decided = kInMis;  // no preceding MIS nbr
      CacheSet(stack.back().v, decided);
      last = decided;
      stack.pop_back();
    }
    done = true;
  }

  // Feeds the fetched adjacency of `pending` back in and keeps going.
  void Resume(const std::span<const NodeId>* adj, sim::MachineContext& ctx) {
    stack.push_back(Frame{pending, adj, 0, false});
    Advance(ctx);
  }
};

}  // namespace

MisResult AmpcMis(sim::Cluster& cluster, const Graph& g, uint64_t seed) {
  const int64_t n = g.num_nodes();

  // Phase 1 — DirectGraph (the algorithm's single shuffle): keep only
  // neighbors preceding v in the permutation, sorted by ascending rank.
  WallTimer direct_timer;
  const RankedRows directed = PrecedingNeighborRows(cluster.pool(), g, seed);
  int64_t shuffle_bytes = 0;
  for (int64_t v = 0; v < n; ++v) {
    shuffle_bytes += kv::kKeyBytes + kv::KvByteSize(directed.Row(v));
  }
  cluster.AccountShuffle("DirectGraph", shuffle_bytes, direct_timer.Seconds());

  // Phase 2 — write the directed graph to the key-value store. A record
  // is a view of its staged row, which outlives the store.
  kv::ShardedStore<std::span<const NodeId>> store =
      cluster.MakeStore<std::span<const NodeId>>(n);
  cluster.RunKvWritePhase("KV-Write", store, n,
                          [&](int64_t v) { return directed.Row(v); });

  // Phase 3 — IsInMIS over all vertices. Resolved three-valued states
  // are cached per machine in the shared bounded query-cache budget
  // (ClusterConfig::query_cache); the adjacency fetches underneath are
  // additionally served by the store's own read-through caches.
  kv::MachineCaches<uint8_t> caches =
      cluster.MakeMachineCaches<uint8_t>();

  MisResult result;
  result.in_mis.assign(n, 0);
  cluster.RunBatchMapPhase(
      "IsInMIS", n,
      [&](std::span<const int64_t> items, sim::MachineContext& ctx) {
        kv::QueryCache<uint8_t>* cache = ctx.DerivedCache(caches);
        const uint64_t epoch = ctx.CacheEpoch(store);
        std::vector<MisResolveState> states;
        states.reserve(items.size());
        for (const int64_t item : items) {
          const NodeId root = static_cast<NodeId>(item);
          MisResolveState s;
          s.item = item;
          s.cache = cache;
          s.epoch = epoch;
          if (const uint8_t cached = s.CacheGet(root); cached != kUnknown) {
            ctx.CountCacheHit();
            s.last = cached;
            s.done = true;
          } else {
            // The root's own record is machine-local ParDo input; not
            // charged.
            s.stack.push_back(MisResolveState::Frame{
                root, ctx.LookupLocal(store, root), 0, false});
            s.Advance(ctx);
          }
          states.push_back(std::move(s));
        }
        sim::DriveLookupPipelined(
            ctx, store, states,
            [](const MisResolveState& s) { return s.done; },
            [](const MisResolveState& s) {
              return static_cast<uint64_t>(s.pending);
            },
            [&ctx](MisResolveState& s, const std::span<const NodeId>* adj) {
              s.Resume(adj, ctx);
            });
        for (const MisResolveState& s : states) {
          result.in_mis[s.item] = (s.last == kInMis) ? 1 : 0;
        }
      });
  return result;
}

}  // namespace ampc::core
