#include "core/matching.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>

#include "common/logging.h"
#include "common/timer.h"
#include "core/priorities.h"
#include "kv/query_cache.h"
#include "kv/sharded_store.h"

namespace ampc::core {
namespace {

using graph::EdgeId;
using graph::EdgeList;
using graph::Graph;
using graph::kInvalidNode;
using graph::NodeId;

// ---------------------------------------------------------------------------
// Edge ordering: (hash rank, lexicographic endpoints) is a total order on
// undirected edges, shared with the sequential oracle.
// ---------------------------------------------------------------------------

struct EdgeOrder {
  uint64_t seed;
  // Optional major key: all of bucket k precedes all of bucket k+1
  // (Corollary 4.1 weighted reduction). nullptr = single bucket.
  const EdgeBucketMap* buckets = nullptr;

  uint64_t Rank(NodeId a, NodeId b) const { return EdgeRank(a, b, seed); }

  uint32_t Bucket(NodeId a, NodeId b) const {
    if (buckets == nullptr) return 0;
    const auto it = buckets->find(EdgeKey(a, b));
    return it == buckets->end() ? 0 : it->second;
  }

  // True iff edge (a1,b1) precedes (a2,b2) in the permutation.
  bool Before(NodeId a1, NodeId b1, NodeId a2, NodeId b2) const {
    if (buckets != nullptr) {
      const uint32_t c1 = Bucket(a1, b1);
      const uint32_t c2 = Bucket(a2, b2);
      if (c1 != c2) return c1 < c2;
    }
    const uint64_t r1 = Rank(a1, b1);
    const uint64_t r2 = Rank(a2, b2);
    if (r1 != r2) return r1 < r2;
    const std::pair<NodeId, NodeId> k1{std::min(a1, b1), std::max(a1, b1)};
    const std::pair<NodeId, NodeId> k2{std::min(a2, b2), std::max(a2, b2)};
    return k1 < k2;
  }
};

// ---------------------------------------------------------------------------
// Per-machine vertex cache (Section 5.4): packs {state, neighbor} into one
// word held in the machine's kv::QueryCache, which its worker slices use
// in turn (MachineContext::DerivedCache). kPrefix(p) means every
// edge (v, y) with rank <= rank(v, p) is known to be out of the matching;
// kVMatched(p) means (v, p) is in it. The cache is bounded (an evicted
// word is recomputed, never wrong) and stamped with the machine's
// MachineContext::CacheEpoch of the staged adjacency store, so the
// derived facts die with the graph they were derived from and with a
// kill of the machine.
// ---------------------------------------------------------------------------

enum VertexCacheState : uint64_t { kVUnsearched = 0, kVPrefix = 1, kVMatched = 2 };

inline uint64_t EncodeCache(uint64_t state, NodeId node) {
  return (state << 32) | node;
}
inline uint64_t CacheState(uint64_t word) { return word >> 32; }
inline NodeId CacheNode(uint64_t word) {
  return static_cast<NodeId>(word & 0xffffffffULL);
}

class VertexCache {
 public:
  VertexCache(kv::QueryCache<uint64_t>* cache, uint64_t epoch,
              const EdgeOrder* order)
      : cache_(cache), epoch_(epoch), order_(order) {}

  bool enabled() const { return cache_ != nullptr; }

  uint64_t Load(NodeId v) const {
    if (cache_ == nullptr) return EncodeCache(kVUnsearched, 0);
    return cache_->Get(v, epoch_).value_or(EncodeCache(kVUnsearched, 0));
  }

  // Records the terminal fact that (v, partner) is matched.
  void SetMatched(NodeId v, NodeId partner) {
    if (cache_ == nullptr) return;
    cache_->Put(v, epoch_, EncodeCache(kVMatched, partner));
  }

  // Extends v's known out-of-matching prefix to cover rank(v, upto):
  // a monotone read-modify-write, one QueryCache::Update.
  void ExtendPrefix(NodeId v, NodeId upto) {
    if (cache_ == nullptr) return;
    cache_->Update(v, epoch_, [&](std::optional<uint64_t> cur) -> uint64_t {
      const uint64_t word = cur.value_or(EncodeCache(kVUnsearched, 0));
      if (CacheState(word) == kVMatched) return word;
      if (CacheState(word) == kVPrefix &&
          !order_->Before(v, CacheNode(word), v, upto)) {
        return word;  // existing prefix already covers upto
      }
      return EncodeCache(kVPrefix, upto);
    });
  }

 private:
  kv::QueryCache<uint64_t>* cache_;
  uint64_t epoch_;
  const EdgeOrder* order_;
};

enum class EdgeStatus { kIn, kOut, kUnknown };

// Cache-only status of edge (x, y).
EdgeStatus StatusFromCache(const VertexCache& cache, const EdgeOrder& order,
                           NodeId x, NodeId y) {
  for (int side = 0; side < 2; ++side) {
    const NodeId w = side == 0 ? x : y;
    const NodeId other = side == 0 ? y : x;
    const uint64_t word = cache.Load(w);
    switch (CacheState(word)) {
      case kVMatched:
        return CacheNode(word) == other ? EdgeStatus::kIn : EdgeStatus::kOut;
      case kVPrefix:
        // Out if rank(x, y) <= rank(w, prefix-neighbor).
        if (!order.Before(w, CacheNode(word), x, y)) return EdgeStatus::kOut;
        break;
      default:
        break;
    }
  }
  return EdgeStatus::kUnknown;
}

// ---------------------------------------------------------------------------
// The iterative edge query process. An edge is in the matching iff no
// adjacent edge of lower rank is (Section 4.2); children are explored in
// ascending rank by merging the two endpoints' rank-sorted adjacencies.
// ---------------------------------------------------------------------------

using AdjStore = kv::ShardedStore<std::span<const NodeId>>;

enum class EdgeResult { kIn, kOut, kTruncated };

struct QueryBudget {
  int64_t remaining = 0;  // <= 0 means unlimited
  bool limited = false;

  bool Spend() {
    if (!limited) return true;
    return --remaining >= 0;
  }
};

class EdgeProcess {
 public:
  EdgeProcess(sim::MachineContext& ctx, const AdjStore& store,
              VertexCache& cache, const EdgeOrder& order)
      : ctx_(ctx), store_(store), cache_(cache), order_(order) {}

  // Resolves edge (a, b). `adj_a` is the caller-held adjacency of a (the
  // vertex process owns it as local input); b's adjacency is fetched.
  EdgeResult Resolve(NodeId a, NodeId b, const std::span<const NodeId>* adj_a,
                     QueryBudget& budget) {
    stack_.clear();
    if (!Push(a, b, adj_a, nullptr, budget)) return EdgeResult::kTruncated;

    EdgeResult last = EdgeResult::kOut;
    while (!stack_.empty()) {
      Frame& f = stack_.back();
      if (f.awaiting) {
        f.awaiting = false;
        if (last == EdgeResult::kIn) {
          // A lower-rank adjacent edge is matched => f is out. The side
          // that produced the child has a matched endpoint cache entry;
          // record the other side's verified prefix.
          RecordScanPrefix(f);
          last = EdgeResult::kOut;
          stack_.pop_back();
          continue;
        }
        ++(f.awaiting_side == 0 ? f.ia : f.ib);  // child was out: advance
      }

      // Re-check the frame's own status: a descendant resolution may have
      // settled one of its endpoints.
      const EdgeStatus own = StatusFromCache(cache_, order_, f.a, f.b);
      if (own != EdgeStatus::kUnknown) {
        last = own == EdgeStatus::kIn ? EdgeResult::kIn : EdgeResult::kOut;
        stack_.pop_back();
        continue;
      }

      // Find the lowest-ranked unresolved adjacent edge below f's rank.
      const int side = NextCandidate(f);
      if (side < 0) {
        // Every lower-rank adjacent edge is out: f joins the matching.
        cache_.SetMatched(f.a, f.b);
        cache_.SetMatched(f.b, f.a);
        last = EdgeResult::kIn;
        stack_.pop_back();
        continue;
      }
      const NodeId w = side == 0 ? f.a : f.b;
      const NodeId x =
          side == 0 ? (*f.adj_a)[f.ia] : (*f.adj_b)[f.ib];
      const EdgeStatus st = StatusFromCache(cache_, order_, w, x);
      if (st == EdgeStatus::kOut) {
        ctx_.CountCacheHit();
        ++(side == 0 ? f.ia : f.ib);
        continue;
      }
      if (st == EdgeStatus::kIn) {
        ctx_.CountCacheHit();
        RecordScanPrefix(f);
        last = EdgeResult::kOut;
        stack_.pop_back();
        continue;
      }
      // Unknown: recurse into (w, x). w's adjacency is already held by f.
      f.awaiting = true;
      f.awaiting_side = static_cast<uint8_t>(side);
      const std::span<const NodeId>* adj_w = side == 0 ? f.adj_a : f.adj_b;
      if (!Push(w, x, adj_w, nullptr, budget)) return EdgeResult::kTruncated;
    }
    return last;
  }

 private:
  struct Frame {
    NodeId a, b;
    const std::span<const NodeId>* adj_a;
    const std::span<const NodeId>* adj_b;
    uint32_t ia = 0, ib = 0;
    bool awaiting = false;
    uint8_t awaiting_side = 0;
  };

  // Pushes a frame for edge (a, b); fetches any adjacency not supplied.
  // The fetches flow through the read-through lookup pipeline, which
  // does its own hit/miss accounting and serves repeated adjacencies
  // from the machine's query cache.
  bool Push(NodeId a, NodeId b, const std::span<const NodeId>* adj_a,
            const std::span<const NodeId>* adj_b, QueryBudget& budget) {
    if (adj_a == nullptr) {
      if (!budget.Spend()) return false;
      adj_a = ctx_.Lookup(store_, a);
    }
    if (adj_b == nullptr) {
      if (!budget.Spend()) return false;
      adj_b = ctx_.Lookup(store_, b);
    }
    stack_.push_back(Frame{a, b, adj_a, adj_b, 0, 0, false, 0});
    return true;
  }

  // Advances both scan cursors past edges already known to be out, then
  // returns the side (0 = a, 1 = b) holding the lowest-ranked candidate
  // strictly below f's own rank, or -1 when both sides are exhausted.
  int NextCandidate(Frame& f) {
    auto side_ok = [&](const std::span<const NodeId>* adj, uint32_t idx,
                       NodeId w) {
      return adj != nullptr && idx < adj->size() &&
             order_.Before(w, (*adj)[idx], f.a, f.b);
    };
    const bool a_ok = side_ok(f.adj_a, f.ia, f.a);
    const bool b_ok = side_ok(f.adj_b, f.ib, f.b);
    if (!a_ok && !b_ok) return -1;
    if (a_ok && b_ok) {
      return order_.Before(f.a, (*f.adj_a)[f.ia], f.b, (*f.adj_b)[f.ib]) ? 0
                                                                         : 1;
    }
    return a_ok ? 0 : 1;
  }

  // Records verified out-of-matching prefixes for both endpoints of f:
  // every edge the scan advanced past was confirmed out.
  void RecordScanPrefix(const Frame& f) {
    if (f.ia > 0) cache_.ExtendPrefix(f.a, (*f.adj_a)[f.ia - 1]);
    if (f.ib > 0) cache_.ExtendPrefix(f.b, (*f.adj_b)[f.ib - 1]);
  }

  sim::MachineContext& ctx_;
  const AdjStore& store_;
  VertexCache& cache_;
  const EdgeOrder& order_;
  std::vector<Frame> stack_;
};

// ---------------------------------------------------------------------------
// The vertex query process (Theorem 2 part 2): iterate v's incident edges
// in ascending rank; the first one resolving In matches v.
// Returns kTruncated when the budget runs out (vertex stays unsettled).
// ---------------------------------------------------------------------------

enum class VertexOutcome { kMatched, kUnmatched, kTruncated };

VertexOutcome ProcessVertex(NodeId v, sim::MachineContext& ctx,
                            const AdjStore& store, VertexCache& cache,
                            const EdgeOrder& order, int64_t max_queries,
                            NodeId* partner_out) {
  const uint64_t word = cache.Load(v);
  if (CacheState(word) == kVMatched) {
    ctx.CountCacheHit();
    *partner_out = CacheNode(word);
    return VertexOutcome::kMatched;
  }

  const std::span<const NodeId>* adj = ctx.LookupLocal(store, v);
  if (adj == nullptr || adj->empty()) {
    *partner_out = kInvalidNode;
    return VertexOutcome::kUnmatched;
  }

  QueryBudget budget;
  budget.limited = max_queries > 0;
  budget.remaining = max_queries;

  EdgeProcess process(ctx, store, cache, order);
  for (size_t i = 0; i < adj->size(); ++i) {
    const NodeId x = (*adj)[i];
    const EdgeStatus st = StatusFromCache(cache, order, v, x);
    if (st == EdgeStatus::kOut) {
      ctx.CountCacheHit();
      continue;
    }
    EdgeResult r;
    if (st == EdgeStatus::kIn) {
      ctx.CountCacheHit();
      r = EdgeResult::kIn;
    } else {
      r = process.Resolve(v, x, adj, budget);
    }
    if (r == EdgeResult::kTruncated) return VertexOutcome::kTruncated;
    if (r == EdgeResult::kIn) {
      // (v, x) in matching iff it is v's matched edge; but In here can
      // also mean x matched elsewhere... Resolve(v, x) == kIn means edge
      // (v, x) itself is in the matching.
      *partner_out = x;
      return VertexOutcome::kMatched;
    }
    cache.ExtendPrefix(v, x);
  }
  *partner_out = kInvalidNode;
  return VertexOutcome::kUnmatched;
}

// ---------------------------------------------------------------------------
// Graph staging: build the rank-sorted adjacency restricted to alive
// vertices and (optionally) to edges below a rank threshold, charge the
// shuffle, and write it to a fresh store whose records view the rows.
// ---------------------------------------------------------------------------

struct StagedGraph {
  RankedRows rows;  // declared first: outlives the store's views of it
  std::unique_ptr<AdjStore> store;
};

StagedGraph StageGraph(sim::Cluster& cluster, const Graph& g,
                       const EdgeOrder& order, const std::string& phase,
                       const std::vector<uint8_t>* alive,
                       double rank_threshold) {
  const int64_t n = g.num_nodes();
  WallTimer timer;
  StagedGraph staged;
  staged.rows = EdgeRankedRows(cluster.pool(), g, order.seed, order.buckets,
                               alive, rank_threshold);
  // A dead vertex ships no row.
  int64_t bytes = 0;
  for (int64_t v = 0; v < n; ++v) {
    if (alive != nullptr && !(*alive)[v]) continue;
    bytes += kv::kKeyBytes + kv::KvByteSize(staged.rows.Row(v));
  }
  cluster.AccountShuffle(phase, bytes, timer.Seconds());

  staged.store = std::make_unique<AdjStore>(
      cluster.MakeStore<std::span<const NodeId>>(n));
  cluster.RunKvWritePhase("KV-Write", *staged.store, n, [&](int64_t v) {
    return staged.rows.Row(v);
  });
  return staged;
}

// One IsInMM sweep over the unsettled vertices. Returns how many remain.
// Derived vertex-status words live in the per-machine caches
// (sim::Cluster::MakeMachineCaches), stamped with each machine's
// CacheEpoch of the staged store.
int64_t RunMatchingPhase(sim::Cluster& cluster, const AdjStore& store,
                         const EdgeOrder& order,
                         kv::MachineCaches<uint64_t>& caches,
                         int64_t max_queries, const std::string& phase,
                         const std::vector<uint8_t>* alive,
                         std::vector<uint8_t>& settled,
                         std::vector<NodeId>& partner) {
  const int64_t n = static_cast<int64_t>(settled.size());
  std::atomic<int64_t> unsettled{0};
  cluster.RunMapPhase(phase, n, [&](int64_t item, sim::MachineContext& ctx) {
    if (settled[item]) return;
    if (alive != nullptr && !(*alive)[item]) {
      settled[item] = 1;
      return;
    }
    VertexCache cache(ctx.DerivedCache(caches), ctx.CacheEpoch(store),
                      &order);
    NodeId p = kInvalidNode;
    const VertexOutcome outcome = ProcessVertex(
        static_cast<NodeId>(item), ctx, store, cache, order, max_queries, &p);
    if (outcome == VertexOutcome::kTruncated) {
      unsettled.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    partner[item] = p;
    settled[item] = 1;
  });
  return unsettled.load();
}

}  // namespace

MatchingResult AmpcMatching(sim::Cluster& cluster, const Graph& g,
                            const MatchingOptions& options) {
  const int64_t n = g.num_nodes();
  const EdgeOrder order{options.seed, options.edge_buckets};

  StagedGraph staged =
      StageGraph(cluster, g, order, "PermuteGraph", nullptr, 1.0);
  kv::MachineCaches<uint64_t> caches =
      cluster.MakeMachineCaches<uint64_t>();

  MatchingResult result;
  result.partner.assign(n, kInvalidNode);
  std::vector<uint8_t> settled(n, 0);

  int64_t budget = options.max_queries_per_vertex;
  int64_t last_remaining = std::numeric_limits<int64_t>::max();
  for (int phase = 0; phase < options.max_phases; ++phase) {
    ++result.phases;
    const int64_t remaining = RunMatchingPhase(
        cluster, *staged.store, order, caches, budget, "IsInMM", nullptr,
        settled, result.partner);
    if (remaining == 0) break;
    if (!cluster.config().query_cache.enabled ||
        remaining >= last_remaining) {
      // Without cross-query caches a repeat pass cannot make more
      // progress than the last; widen the budget instead (Lemma 4.7's
      // O(1/eps) repetitions assume progress is persisted between
      // rounds). The same applies when the caches *are* on but made no
      // headway: the bounded cache may thrash (capacity << n) and
      // persist nothing between passes, so a stalled phase count means
      // only a wider budget guarantees progress — without this,
      // repeat passes could replay the same truncated work until the
      // max_phases check aborts.
      budget *= 2;
    }
    last_remaining = remaining;
    AMPC_CHECK_LT(phase + 1, options.max_phases)
        << "matching did not settle within max_phases";
  }
  return result;
}

MatchingResult AmpcMatchingSampled(sim::Cluster& cluster, const Graph& g,
                                   const MatchingOptions& options) {
  const int64_t n = g.num_nodes();
  AMPC_CHECK(options.edge_buckets == nullptr)
      << "edge_buckets is only supported by AmpcMatching: the sampled "
         "variant's rank thresholds assume a uniform edge permutation";
  const EdgeOrder order{options.seed};

  MatchingResult result;
  result.partner.assign(n, kInvalidNode);
  std::vector<uint8_t> alive(n, 1);

  // Maximum degree of the alive graph, computed with a cheap map round.
  auto alive_max_degree = [&]() {
    std::atomic<int64_t> maxdeg{0};
    cluster.RunMapPhase(
        "MaxDegree", n, [&](int64_t item, sim::MachineContext&) {
          if (!alive[item]) return;
          int64_t deg = 0;
          for (NodeId u : g.neighbors(static_cast<NodeId>(item))) {
            if (alive[u]) ++deg;
          }
          int64_t cur = maxdeg.load(std::memory_order_relaxed);
          while (deg > cur &&
                 !maxdeg.compare_exchange_weak(cur, deg,
                                               std::memory_order_relaxed)) {
          }
        });
    return maxdeg.load();
  };

  const double logn = std::log(std::max<int64_t>(2, n));
  int64_t delta = alive_max_degree();
  const int max_iters =
      delta <= 1
          ? 1
          : static_cast<int>(
                std::ceil(std::log2(std::max(
                    2.0, std::log2(static_cast<double>(delta))))) +
                4);

  for (int iter = 0; iter < max_iters + 8; ++iter) {
    if (delta == 0) break;  // no alive edges remain
    ++result.phases;
    // H_i: keep edges below the sampling threshold unless the graph is
    // already low-degree (Algorithm 4 lines 4-7).
    const bool final_round = delta <= 10 * logn;
    const double threshold =
        final_round ? 1.0
                    : 1.0 / std::sqrt(static_cast<double>(delta));

    StagedGraph staged =
        StageGraph(cluster, g, order, "SampleGraph", &alive, threshold);
    kv::MachineCaches<uint64_t> caches =
        cluster.MakeMachineCaches<uint64_t>();

    std::vector<uint8_t> settled(n, 0);
    std::vector<NodeId> iter_partner(n, kInvalidNode);
    RunMatchingPhase(cluster, *staged.store, order, caches,
                     /*max_queries=*/0, "IsInMM", &alive, settled,
                     iter_partner);

    // Commit matched pairs and delete their vertices (G_{i+1}).
    for (int64_t v = 0; v < n; ++v) {
      if (iter_partner[v] != kInvalidNode) {
        result.partner[v] = iter_partner[v];
        alive[v] = 0;
      }
    }
    delta = alive_max_degree();
    if (final_round && delta == 0) break;
  }
  AMPC_CHECK_EQ(delta, 0) << "sampled matching did not converge";
  return result;
}

seq::MatchingResult ToSeqMatching(const EdgeList& list,
                                  const std::vector<NodeId>& partner) {
  std::unordered_map<uint64_t, EdgeId> edge_of;
  edge_of.reserve(list.edges.size());
  for (size_t i = 0; i < list.edges.size(); ++i) {
    const NodeId lo = std::min(list.edges[i].u, list.edges[i].v);
    const NodeId hi = std::max(list.edges[i].u, list.edges[i].v);
    edge_of.emplace((static_cast<uint64_t>(lo) << 32) | hi,
                    static_cast<EdgeId>(i));
  }
  seq::MatchingResult out;
  out.partner = partner;
  for (size_t v = 0; v < partner.size(); ++v) {
    const NodeId p = partner[v];
    if (p == kInvalidNode || p < v) continue;
    const NodeId lo = std::min(static_cast<NodeId>(v), p);
    const NodeId hi = std::max(static_cast<NodeId>(v), p);
    auto it = edge_of.find((static_cast<uint64_t>(lo) << 32) | hi);
    AMPC_CHECK(it != edge_of.end()) << "matched pair is not a graph edge";
    out.edges.push_back(it->second);
  }
  std::sort(out.edges.begin(), out.edges.end());
  return out;
}

}  // namespace ampc::core
