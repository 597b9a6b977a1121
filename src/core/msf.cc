#include "core/msf.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <memory>
#include <span>
#include <utility>

#include "common/bitmap.h"
#include "common/logging.h"
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

// A record is a view of its vertex's row in the round's flat arc array.
using WAdjStore = kv::ShardedStore<std::span<const WAdj>>;

// The unconsumed tail [next, end) of one visited vertex's weight-sorted
// row, keyed by its head arc's (weight, id) so that heap comparisons
// read the cursor alone. The row lives in the round's flat arc array,
// which outlives every search of the round.
struct AdjCursor {
  Weight w;
  EdgeId id;
  const WAdj* next;
  const WAdj* end;
};

// Min-heap order on (weight, id). Only an edge's two twin arcs tie, and
// once both of their cursors exist both endpoints are visited, so both
// arcs are skipped whichever pops first.
bool CursorAfter(const AdjCursor& a, const AdjCursor& b) {
  if (a.w != b.w) return a.w > b.w;
  return a.id > b.id;
}

// The vertices a search has visited: its origin, plus a linear-probing
// table of the others in which kInvalidNode marks a free slot. The
// table is allocated on the first expansion (most searches never
// expand) and grows to stay at most half full.
struct VisitedSet {
  NodeId origin = kInvalidNode;
  std::vector<NodeId> slots;
  int64_t size = 1;  // the origin included

  // The slot that holds v, or the free slot where v's probe ends.
  size_t Find(NodeId v) const {
    const size_t mask = slots.size() - 1;
    size_t i = ((uint64_t{v} * 0x9e3779b97f4a7c15ULL) >> 32) & mask;
    while (slots[i] != kInvalidNode && slots[i] != v) i = (i + 1) & mask;
    return i;
  }
  bool contains(NodeId v) const {
    return v == origin || (!slots.empty() && slots[Find(v)] == v);
  }
  void insert(NodeId v) {  // v must not be in the set yet
    if (2 * static_cast<size_t>(size) > slots.size()) {
      const std::vector<NodeId> old = std::exchange(
          slots, std::vector<NodeId>(std::max<size_t>(16, 2 * slots.size()),
                                     kInvalidNode));
      for (const NodeId u : old) {
        if (u != kInvalidNode) slots[Find(u)] = u;
      }
    }
    slots[Find(v)] = v;
    ++size;
  }
};

// Resumable state of Algorithm 1's per-vertex search: Prim from
// `visited.origin`, stopping on (1) search_limit explored vertices, (2)
// exhausted component, or (3) adding an edge to a vertex preceding the
// origin in the permutation. The search runs until it either needs a
// remote adjacency (`pending` set) or terminates (`done` set), so a
// worker can run many searches in lockstep and fetch every pending
// adjacency of an adaptive step in one DriveLookupPipelined step. The
// heap lazily merges the visited vertices' rows: it holds at most one
// cursor per visited vertex, so a hub's record is read only as far as
// the search needs it, never copied.
struct PrimSearchState {
  VisitedSet visited;
  std::vector<AdjCursor> heap;
  NodeId stop_parent = kInvalidNode;  // set when rule (3) fired
  NodeId pending = kInvalidNode;
  bool done = false;
};

// Adds a visited vertex's row to the merge, unless it is empty.
void PushAdjacency(PrimSearchState& s, std::span<const WAdj> adj) {
  if (adj.empty()) return;
  s.heap.push_back(
      AdjCursor{adj[0].w, adj[0].id, adj.data(), adj.data() + adj.size()});
  std::push_heap(s.heap.begin(), s.heap.end(), CursorAfter);
}

// Takes the least arc off the merge: advances the top cursor in place
// and sifts it down once, or drops the cursor when its row is used up.
WAdj PopArc(std::vector<AdjCursor>& heap) {
  AdjCursor top = heap.front();
  const WAdj e = *top.next++;
  if (top.next == top.end) {
    std::pop_heap(heap.begin(), heap.end(), CursorAfter);
    heap.pop_back();
    return e;
  }
  top.w = top.next->w;
  top.id = top.next->id;
  const size_t size = heap.size();
  size_t hole = 0;
  for (size_t child = 1; child < size; child = 2 * hole + 1) {
    if (child + 1 < size && CursorAfter(heap[child], heap[child + 1])) ++child;
    if (!CursorAfter(top, heap[child])) break;
    heap[hole] = heap[child];
    hole = child;
  }
  heap[hole] = top;
  return e;
}

// Pops arcs in (weight, id) order until the search terminates or needs
// the adjacency of `pending` (exactly where the scalar search issued its
// next Lookup), skipping arcs into the visited set. Every other popped
// arc is an MSF edge, marked in `found`.
void AdvancePrimSearch(PrimSearchState& s, AtomicBitmap& found,
                       uint64_t seed, int64_t search_limit) {
  while (!s.heap.empty()) {
    const WAdj e = PopArc(s.heap);
    if (s.visited.contains(e.to)) continue;
    // The popped edge is the minimum-order edge leaving the visited set,
    // hence an MSF edge by the cut property (weights totally ordered).
    // Testing first keeps the words that many searches share clean.
    if (!found.Test(e.id)) found.Set(e.id);
    if (VertexBefore(e.to, s.visited.origin, seed)) {
      s.stop_parent = e.to;  // rule (3)
      s.done = true;
      return;
    }
    s.visited.insert(e.to);
    if (s.visited.size >= search_limit) {  // rule (1)
      s.done = true;
      return;
    }
    s.pending = e.to;
    return;
  }
  s.done = true;  // rule (2): component exhausted
}

// Feeds a fetched adjacency back into the search and keeps going.
void ResumePrimSearch(PrimSearchState& s, const std::span<const WAdj>* next,
                      AtomicBitmap& found, uint64_t seed,
                      int64_t search_limit) {
  if (next != nullptr) PushAdjacency(s, *next);
  s.pending = kInvalidNode;
  AdvancePrimSearch(s, found, seed, search_limit);
}

// Marks `ids` in `found`.
void MarkAll(AtomicBitmap& found, const std::vector<EdgeId>& ids) {
  for (const EdgeId id : ids) found.Set(id);
}

// Core contraction loop over an edge list whose ids are preserved
// throughout. Marks the MSF's edge ids in `found`.
void ContractionRounds(sim::Cluster& cluster, WeightedEdgeList current,
                       const MsfOptions& options, AtomicBitmap& found,
                       MsfResult& result) {
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
      MarkAll(found, seq::KruskalMsf(current));
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
    // Each row is copied into one flat arc array at its own CSR position,
    // and its record is a view of that copy. The array is declared before
    // the store, so it outlives the store and its query caches.
    const auto arcs = std::make_unique_for_overwrite<WAdj[]>(wg.num_arcs());
    const NodeId* const first_row = wg.neighbors(0).data();
    WAdjStore store = cluster.MakeStore<std::span<const WAdj>>(n);
    cluster.RunKvWritePhase("KV-Write", store, n, [&](int64_t v) {
      const NodeId node = static_cast<NodeId>(v);
      const auto nbrs = wg.neighbors(node);
      const auto ws = wg.weights(node);
      const auto ids = wg.edge_ids(node);
      WAdj* const row = arcs.get() + (nbrs.data() - first_row);
      for (size_t i = 0; i < nbrs.size(); ++i) {
        row[i] = WAdj{nbrs[i], ids[i], ws[i]};
      }
      return std::span<const WAdj>(row, nbrs.size());
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
            s.visited.origin = static_cast<NodeId>(items[i]);
            const std::span<const WAdj>* adj =
                ctx.LookupLocal(store, s.visited.origin);
            if (adj == nullptr || adj->empty()) {
              s.done = true;
              continue;
            }
            PushAdjacency(s, *adj);
            AdvancePrimSearch(s, found, round_seed, search_limit);
          }
          const auto done = [](const PrimSearchState& s) { return s.done; };
          const auto key = [](const PrimSearchState& s) {
            return static_cast<uint64_t>(s.pending);
          };
          const auto resume = [&](PrimSearchState& s,
                                  const std::span<const WAdj>* next) {
            ResumePrimSearch(s, next, found, round_seed, search_limit);
          };
          sim::DriveLookupPipelined(ctx, store, searches, done, key, resume);
          for (const PrimSearchState& s : searches) {
            parent[s.visited.origin] = s.stop_parent;
          }
        };
    if (prim_pull) {
      cluster.RunPullPhase("PrimSearch", n, prim_slice);
    } else {
      cluster.RunBatchMapPhase("PrimSearch", n, prim_slice);
    }

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
      MarkAll(found, seq::KruskalMsf(current));
      return;
    }
  }
}

// Runs the contraction rounds on `list` and sets `result.edges` to its
// MSF. Every search and finish marks the edges it finds in one bitmap
// over the ids (contraction keeps ids), so an edge found many times is
// kept once, and the set bits read in order are sorted and distinct.
void MsfLoop(sim::Cluster& cluster, const WeightedEdgeList& list,
             const MsfOptions& options, MsfResult& result) {
  EdgeId max_id = 0;
  for (const graph::WeightedEdge& e : list.edges) {
    max_id = std::max(max_id, e.id);
  }
  AtomicBitmap found(list.edges.empty() ? 0 : int64_t{max_id} + 1);
  ContractionRounds(cluster, list, options, found, result);
  for (int64_t w = 0; w < found.num_words(); ++w) {
    for (uint64_t word = found.Word(w); word != 0; word &= word - 1) {
      result.edges.push_back(
          static_cast<EdgeId>(64 * w + std::countr_zero(word)));
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
  return result;
}

}  // namespace ampc::core
