#include "core/msf.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <queue>
#include <unordered_set>

#include "common/concurrent_bag.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "core/priorities.h"
#include "graph/contraction.h"
#include "graph/ternarize.h"
#include "kv/sharded_store.h"
#include "seq/msf.h"

namespace ampc::core {
namespace {

using graph::EdgeId;
using graph::kInvalidNode;
using graph::NodeId;
using graph::Weight;
using graph::WeightedEdgeList;
using graph::WeightedGraph;

// A weighted adjacency entry as stored in the DHT.
struct WAdj {
  NodeId to;
  EdgeId id;
  Weight w;
};
static_assert(std::is_trivially_copyable_v<WAdj>);

using WAdjStore = kv::ShardedStore<std::vector<WAdj>>;

bool WAdjLess(const WAdj& a, const WAdj& b) {
  if (a.w != b.w) return a.w < b.w;
  return a.id < b.id;
}

// Result of one truncated Prim search.
struct SearchOutput {
  std::vector<EdgeId> msf_edges;
  NodeId stop_parent = kInvalidNode;  // set when rule (3) fired
};

// The unconsumed tail [next, end) of one visited vertex's weight-sorted
// store record; `next` is its lightest arc not yet popped. It points into
// the round's write-once store, which outlives every search of the round.
struct AdjCursor {
  const WAdj* next;
  const WAdj* end;
};

struct AdjCursorGreater {
  bool operator()(const AdjCursor& a, const AdjCursor& b) const {
    return WAdjLess(*b.next, *a.next);
  }
};

// Resumable state of Algorithm 1's per-vertex search: Prim from
// `origin`, stopping on (1) search_limit explored vertices, (2)
// exhausted component, or (3) adding an edge to a vertex preceding
// `origin` in the permutation. The search runs until it either needs a
// remote adjacency (`pending` set) or terminates (`done` set), so a
// worker can run many searches in lockstep and fetch every pending
// adjacency of an adaptive step in one DriveLookupPipelined step. The
// heap lazily merges the visited vertices' adjacencies: it holds at most
// one cursor per visited vertex, keyed by the cursor's head arc, so a
// hub's record is read only as far as the search needs it, never copied.
struct PrimSearchState {
  int64_t item = 0;
  NodeId origin = kInvalidNode;
  std::priority_queue<AdjCursor, std::vector<AdjCursor>, AdjCursorGreater>
      heap;
  std::unordered_set<NodeId> visited;
  SearchOutput out;
  NodeId pending = kInvalidNode;
  bool done = false;
};

// Adds a visited vertex's adjacency to the merge, unless it is empty.
void PushAdjacency(PrimSearchState& s, const std::vector<WAdj>& adj) {
  if (!adj.empty()) {
    s.heap.push(AdjCursor{adj.data(), adj.data() + adj.size()});
  }
}

// Pops arcs in (weight, id) order until the search terminates or needs
// the adjacency of `pending` (exactly where the scalar search issued its
// next Lookup). Each pop takes the least cursor's head, re-queues the
// cursor unless it is exhausted, and skips arcs into the visited set.
void AdvancePrimSearch(PrimSearchState& s, uint64_t seed,
                       int64_t search_limit) {
  while (!s.heap.empty()) {
    AdjCursor c = s.heap.top();
    s.heap.pop();
    const WAdj e = *c.next++;
    if (c.next != c.end) s.heap.push(c);
    if (s.visited.contains(e.to)) continue;
    // The popped edge is the minimum-order edge leaving the visited set,
    // hence an MSF edge by the cut property (weights totally ordered).
    s.out.msf_edges.push_back(e.id);
    if (VertexBefore(e.to, s.origin, seed)) {
      s.out.stop_parent = e.to;  // rule (3)
      s.done = true;
      return;
    }
    s.visited.insert(e.to);
    if (static_cast<int64_t>(s.visited.size()) >= search_limit) {  // (1)
      s.done = true;
      return;
    }
    s.pending = e.to;
    return;
  }
  s.done = true;  // rule (2): component exhausted
}

// Feeds a fetched adjacency back into the search and keeps going.
void ResumePrimSearch(PrimSearchState& s, const std::vector<WAdj>* next,
                      uint64_t seed, int64_t search_limit) {
  if (next != nullptr) PushAdjacency(s, *next);
  s.pending = kInvalidNode;
  AdvancePrimSearch(s, seed, search_limit);
}

// Core contraction loop over an edge list whose ids are preserved
// throughout. Appends the MSF's edge ids to `result`.
void MsfLoop(sim::Cluster& cluster, WeightedEdgeList current,
             const MsfOptions& options, MsfResult& result) {
  for (int round = 0;; ++round) {
    const int64_t n = current.num_nodes;
    const int64_t m = static_cast<int64_t>(current.edges.size());
    if (m == 0) return;
    if (2 * m <= cluster.config().in_memory_threshold_arcs ||
        round >= options.max_rounds) {
      // In-memory finish. At round 0 the graph must first be gathered;
      // in later rounds the Contract shuffles already materialized it.
      const int64_t bytes =
          m * static_cast<int64_t>(sizeof(graph::WeightedEdge));
      const int64_t items = m + static_cast<int64_t>(
                                    m * std::log2(static_cast<double>(m) + 2));
      if (round == 0) {
        cluster.AccountInMemoryFinish("InMemoryMSF", bytes, items);
      } else {
        cluster.AccountInMemoryCompute("InMemoryMSF", items);
      }
      std::vector<EdgeId> finish = seq::KruskalMsf(current);
      result.edges.insert(result.edges.end(), finish.begin(), finish.end());
      return;
    }
    result.rounds = round + 1;
    const uint64_t round_seed = options.seed + 1000003ULL * round;

    int64_t search_limit = options.search_limit;
    if (search_limit <= 0) {
      search_limit = std::max<int64_t>(
          2, static_cast<int64_t>(
                 std::ceil(std::pow(static_cast<double>(n), options.eps / 2))));
    }

    // --- SortGraph (shuffle): weight-sorted adjacency -------------------
    WallTimer sort_timer;
    WeightedGraph wg = graph::BuildWeightedGraph(current);
    int64_t graph_bytes = 0;
    for (int64_t v = 0; v < n; ++v) {
      graph_bytes += wg.AdjacencyBytes(static_cast<NodeId>(v));
    }
    cluster.AccountShuffle("SortGraph", graph_bytes, sort_timer.Seconds());

    // --- KV-Write --------------------------------------------------------
    WAdjStore store = cluster.MakeStore<std::vector<WAdj>>(n);
    cluster.RunKvWritePhase("KV-Write", store, n, [&](int64_t v) {
      const NodeId node = static_cast<NodeId>(v);
      auto nbrs = wg.neighbors(node);
      auto ws = wg.weights(node);
      auto ids = wg.edge_ids(node);
      std::vector<WAdj> row(nbrs.size());
      for (size_t i = 0; i < nbrs.size(); ++i) {
        row[i] = WAdj{nbrs[i], ids[i], ws[i]};
      }
      return row;
    });

    // --- PrimSearch (batched map) ----------------------------------------
    // Every worker runs its searches together: each adaptive step
    // gathers the frontier vertex of every still-active search and
    // fetches all their adjacencies as pipelined sub-batch windows (up
    // to pipeline_depth in flight, their round trips overlapped),
    // instead of one synchronous round trip per expansion. Adjacencies
    // that several searches of a machine expand — hub vertices,
    // overlapping components — are served from the machine's query
    // cache after the first fetch. Per-search semantics are unchanged.
    ConcurrentBag<EdgeId> found_edges;
    std::vector<NodeId> parent(n, kInvalidNode);
    // Every vertex originates a search, so the phase's frontier covers
    // the whole round graph — dense under the hybrid policy whenever
    // the round graph has edges.
    const bool prim_pull = cluster.UsePullPhase(n, 2 * m, n, 2 * m);
    const auto prim_slice =
        [&](std::span<const int64_t> items, sim::MachineContext& ctx) {
          std::vector<PrimSearchState> searches(items.size());
          for (size_t i = 0; i < items.size(); ++i) {
            PrimSearchState& s = searches[i];
            s.item = items[i];
            s.origin = static_cast<NodeId>(items[i]);
            const std::vector<WAdj>* adj = ctx.LookupLocal(store, s.origin);
            if (adj == nullptr || adj->empty()) {
              s.done = true;
              continue;
            }
            s.visited.insert(s.origin);
            PushAdjacency(s, *adj);
            AdvancePrimSearch(s, round_seed, search_limit);
          }
          const auto done = [](const PrimSearchState& s) { return s.done; };
          const auto key = [](const PrimSearchState& s) {
            return static_cast<uint64_t>(s.pending);
          };
          const auto resume = [&](PrimSearchState& s,
                                  const std::vector<WAdj>* next) {
            ResumePrimSearch(s, next, round_seed, search_limit);
          };
          sim::DriveLookupPipelined(ctx, store, searches, done, key, resume);
          for (PrimSearchState& s : searches) {
            parent[s.item] = s.out.stop_parent;
            found_edges.Merge(std::move(s.out.msf_edges));
          }
        };
    if (prim_pull) {
      cluster.RunPullPhase("PrimSearch", n, prim_slice);
    } else {
      cluster.RunBatchMapPhase("PrimSearch", n, prim_slice);
    }
    std::vector<EdgeId> emitted = found_edges.Take();
    ParallelSort(cluster.pool(), emitted);
    emitted.erase(std::unique(emitted.begin(), emitted.end()), emitted.end());
    result.edges.insert(result.edges.end(), emitted.begin(), emitted.end());

    // --- Combine (shuffle): visitor tuples grouped by visited vertex ----
    int64_t stopped = 0;
    for (NodeId p : parent) stopped += (p != kInvalidNode);
    cluster.AccountShuffle(
        "Combine", stopped * (kv::kKeyBytes + sizeof(NodeId)));

    // --- PointerJump: write parent map, chase chains to roots ------------
    kv::ShardedStore<NodeId> parent_store = cluster.MakeStore<NodeId>(n);
    cluster.RunKvWritePhase("PointerJumpBuild", parent_store, n,
                            [&](int64_t v) { return parent[v]; });
    // The parent-map construction is itself a shuffle in the Flume
    // implementation (Section 5.5 counts it among the 5 AMPC MSF
    // shuffles).
    cluster.AccountShuffle("PointerJumpBuild",
                           n * (kv::kKeyBytes + sizeof(NodeId)));
    std::vector<NodeId> root_of(n);
    std::atomic<int64_t> max_chain{0};
    // Batched pointer jumping: all of a worker's chains advance one hop
    // per adaptive step, and the step's parent fetches ship as
    // pipelined sub-batch windows — the round-trip bill scales with the
    // longest chain times the destination count over the pipeline
    // depth, not with the total hop count. Chains converge toward
    // shared roots, so the query cache serves the hops near convergence
    // locally (the Figure-4 caching win). The chain frontier is the
    // `stopped` vertices, each holding one out-pointer into a pointer
    // graph of at most n arcs — the hybrid policy pulls when most of
    // the round graph stopped, pushes when chains are scarce.
    const bool jump_pull = cluster.UsePullPhase(stopped, stopped, n, n);
    const auto jump_slice =
        [&](std::span<const int64_t> items, sim::MachineContext& ctx) {
          struct Chain {
            int64_t item;
            NodeId cur;
            int64_t hops;
            bool done;
          };
          std::vector<Chain> chains;
          chains.reserve(items.size());
          int64_t local_max = 0;
          for (const int64_t item : items) {
            const NodeId next = parent[item];  // own record: local input
            if (next == kInvalidNode) {
              root_of[item] = static_cast<NodeId>(item);
            } else {
              chains.push_back(Chain{item, next, 1, false});
            }
          }
          const auto done = [](const Chain& c) { return c.done; };
          const auto key = [](const Chain& c) {
            return static_cast<uint64_t>(c.cur);
          };
          const auto resume = [&](Chain& c, const NodeId* p) {
            const NodeId next = (p == nullptr) ? kInvalidNode : *p;
            if (next == kInvalidNode) {
              root_of[c.item] = c.cur;
              local_max = std::max(local_max, c.hops);
              c.done = true;
            } else {
              c.cur = next;
              ++c.hops;
            }
          };
          sim::DriveLookupPipelined(ctx, parent_store, chains, done, key,
                                    resume);
          int64_t seen = max_chain.load(std::memory_order_relaxed);
          while (local_max > seen &&
                 !max_chain.compare_exchange_weak(
                     seen, local_max, std::memory_order_relaxed)) {
          }
        };
    if (jump_pull) {
      cluster.RunPullPhase("PointerJump", n, jump_slice);
    } else {
      cluster.RunBatchMapPhase("PointerJump", n, jump_slice);
    }
    result.max_jump_chain =
        std::max(result.max_jump_chain, max_chain.load());

    // --- Contract (two shuffles in the Flume implementation) -------------
    WallTimer contract_timer;
    const int64_t edge_bytes =
        static_cast<int64_t>(current.edges.size()) *
        static_cast<int64_t>(sizeof(graph::WeightedEdge));
    current.num_nodes = graph::Contract(current.edges, root_of).num_nodes();
    const int64_t contracted_bytes =
        static_cast<int64_t>(current.edges.size()) *
        static_cast<int64_t>(sizeof(graph::WeightedEdge));
    const double contract_wall = contract_timer.Seconds();
    cluster.AccountShuffle("Contract", edge_bytes, contract_wall / 2);
    cluster.AccountShuffle(
        "Contract", contracted_bytes + n * static_cast<int64_t>(sizeof(NodeId)),
        contract_wall / 2);

    // Progress guard: Lemma 3.3 promises an Omega(n^{eps/2}) shrink; if a
    // pathological input defeats it, finish in memory rather than loop.
    if (current.num_nodes >= n) {
      const int64_t items = static_cast<int64_t>(current.edges.size());
      cluster.AccountInMemoryCompute("InMemoryMSF", items);
      std::vector<EdgeId> finish = seq::KruskalMsf(current);
      result.edges.insert(result.edges.end(), finish.begin(), finish.end());
      return;
    }
  }
}

}  // namespace

MsfResult AmpcMsf(sim::Cluster& cluster, const WeightedEdgeList& list,
                  const MsfOptions& options) {
  MsfResult result;
  if (options.ternarize) {
    // Algorithm 2's sparse path: bound degrees by 3 first; dummy cycle
    // edges are lighter than every real edge, so they join the MSF and
    // are stripped from the output.
    graph::Ternarized t = graph::TernarizeGraph(list);
    MsfLoop(cluster, t.list, options, result);
    result.edges = graph::StripDummyEdges(t, result.edges);
  } else {
    MsfLoop(cluster, list, options, result);
  }
  ParallelSort(cluster.pool(), result.edges);
  result.edges.erase(std::unique(result.edges.begin(), result.edges.end()),
                     result.edges.end());
  return result;
}

}  // namespace ampc::core
