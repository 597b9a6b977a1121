// Shared random priorities. Every algorithm — AMPC, MPC baseline, and
// sequential oracle — derives vertex/edge ranks from these functions, so
// fixing the seed fixes the permutation and all three compute identical
// greedy solutions (the comparison methodology of Section 5.3).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "graph/graph.h"

namespace ampc::core {

/// Rank of a vertex under `seed`; lower rank = earlier in the permutation.
inline uint64_t VertexRank(graph::NodeId v, uint64_t seed) {
  return Hash64(v, seed ^ 0x7665727478ULL);  // "vertx"
}

/// Rank of an undirected edge; symmetric in endpoints.
inline uint64_t EdgeRank(graph::NodeId u, graph::NodeId v, uint64_t seed) {
  return HashEdge(u, v, seed ^ 0x65646765ULL);  // "edge"
}

/// Materializes all vertex ranks.
std::vector<uint64_t> AllVertexRanks(int64_t num_nodes, uint64_t seed);

/// Parallel variant: tabulates the ranks on `pool`. Output is identical
/// to the serial overload (ranks are pure hashes of (id, seed)).
std::vector<uint64_t> AllVertexRanks(ThreadPool& pool, int64_t num_nodes,
                                     uint64_t seed);

/// Materializes ranks for every edge of a list (indexed by position).
std::vector<uint64_t> AllEdgeRanks(const graph::EdgeList& list,
                                   uint64_t seed);

/// Parallel variant of AllEdgeRanks; same output as the serial overload.
std::vector<uint64_t> AllEdgeRanks(ThreadPool& pool,
                                   const graph::EdgeList& list,
                                   uint64_t seed);

/// True if a precedes b in the vertex permutation (ties by id).
inline bool VertexBefore(graph::NodeId a, graph::NodeId b, uint64_t seed) {
  const uint64_t ra = VertexRank(a, seed);
  const uint64_t rb = VertexRank(b, seed);
  if (ra != rb) return ra < rb;
  return a < b;
}

/// Maps a packed undirected edge key (EdgeKey below) to a bucket. Lower
/// buckets precede all higher buckets in the matching permutation.
using EdgeBucketMap = std::unordered_map<uint64_t, uint32_t>;

/// Packs endpoints into the EdgeBucketMap key (order-insensitive).
inline uint64_t EdgeKey(graph::NodeId u, graph::NodeId v) {
  const graph::NodeId lo = u < v ? u : v;
  const graph::NodeId hi = u < v ? v : u;
  return (static_cast<uint64_t>(lo) << 32) | hi;
}

// ---------------------------------------------------------------------------
// Rank-keyed staging: the one shuffle of AMPC MIS and matching orders
// every adjacency row by a random priority. The builder computes each
// kept arc's key once, sorts the row's packed (key, neighbor) pairs, and
// lays the rows out in one flat array that the kv stores serve as spans.
// ---------------------------------------------------------------------------

/// Position of arc (v, u) in row v: rows ascend by (bucket, rank), ties
/// broken by the neighbor id u.
struct ArcKey {
  uint64_t rank = 0;
  uint32_t bucket = 0;
  graph::NodeId neighbor = 0;

  friend bool operator<(const ArcKey& a, const ArcKey& b) {
    if (a.bucket != b.bucket) return a.bucket < b.bucket;
    if (a.rank != b.rank) return a.rank < b.rank;
    return a.neighbor < b.neighbor;
  }
};

/// Staged rows in one flat, offset-indexed array: row v is
/// arcs[offsets[v], offsets[v + 1]). Spans from Row() point into `arcs`,
/// so the rows must outlive every store holding them.
struct RankedRows {
  std::vector<int64_t> offsets;  // one entry per row, plus one
  std::unique_ptr<graph::NodeId[]> arcs;

  int64_t num_rows() const { return static_cast<int64_t>(offsets.size()) - 1; }
  std::span<const graph::NodeId> Row(int64_t v) const {
    return {arcs.get() + offsets[v], arcs.get() + offsets[v + 1]};
  }
};

/// The staging builder. Row v holds each neighbor u of v with keep(v, u),
/// ascending by the ArcKey whose rank and bucket key(v, u) returns and
/// whose neighbor is u. A count pass sizes the rows, a prefix sum places
/// them, and a fill pass sorts each row's keys and writes its neighbors
/// into the uninitialised array. keep and key must be safe to call
/// concurrently; key runs once per kept arc.
template <typename Keep, typename Key>
RankedRows BuildRankedRows(ThreadPool& pool, const graph::Graph& g, Keep keep,
                           Key key) {
  using graph::NodeId;
  const int64_t n = g.num_nodes();
  RankedRows rows;
  rows.offsets.assign(n + 1, 0);
  ParallelForChunked(pool, 0, n, 512, [&](int64_t lo, int64_t hi) {
    for (int64_t v = lo; v < hi; ++v) {
      int64_t kept = 0;
      for (const NodeId u : g.neighbors(static_cast<NodeId>(v))) {
        kept += keep(static_cast<NodeId>(v), u) ? 1 : 0;
      }
      rows.offsets[v + 1] = kept;
    }
  });
  for (int64_t v = 0; v < n; ++v) rows.offsets[v + 1] += rows.offsets[v];
  rows.arcs.reset(new NodeId[rows.offsets[n]]);
  ParallelForChunked(pool, 0, n, 512, [&](int64_t lo, int64_t hi) {
    std::vector<ArcKey> keys;
    for (int64_t vi = lo; vi < hi; ++vi) {
      const NodeId v = static_cast<NodeId>(vi);
      keys.clear();
      for (const NodeId u : g.neighbors(v)) {
        if (!keep(v, u)) continue;
        keys.push_back(key(v, u));
        keys.back().neighbor = u;
      }
      std::sort(keys.begin(), keys.end());
      NodeId* out = rows.arcs.get() + rows.offsets[vi];
      for (const ArcKey& k : keys) *out++ = k.neighbor;
    }
  });
  return rows;
}

/// AMPC MIS's DirectGraph rows (Figure 1): row v holds the neighbors that
/// precede v in the vertex permutation, ascending by (VertexRank, id) —
/// VertexBefore's filter and order, read from one AllVertexRanks table.
RankedRows PrecedingNeighborRows(ThreadPool& pool, const graph::Graph& g,
                                 uint64_t seed);

/// AMPC matching's staged rows: row v holds v's edges in the edge
/// permutation, ascending by (bucket, EdgeRank, neighbor). For a fixed v
/// that is the order of the (bucket, rank, (min, max) endpoints) total
/// order on edges, since (min, max) of (v, u) ascends with u. `buckets`
/// (nullptr = one bucket) gives the major key. With `alive`, a dead
/// vertex's row is empty and dead neighbors are dropped; arcs whose rank,
/// as a unit double, exceeds `rank_threshold` are dropped (>= 1 keeps
/// every arc).
RankedRows EdgeRankedRows(ThreadPool& pool, const graph::Graph& g,
                          uint64_t seed, const EdgeBucketMap* buckets,
                          const std::vector<uint8_t>* alive,
                          double rank_threshold);

}  // namespace ampc::core
