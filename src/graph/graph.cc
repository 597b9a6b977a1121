#include "graph/graph.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <utility>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/random.h"
#include "common/thread_pool.h"

namespace ampc::graph {
namespace {

// Edges per histogram/scatter chunk, and the fewest arcs a source-id bucket
// is expected to hold (so small inputs run as one chunk and one bucket).
constexpr int64_t kEdgeChunkGrain = int64_t{1} << 14;
constexpr int64_t kBucketArcs = int64_t{1} << 14;
constexpr int kMaxBucketBits = 10;
// Widest neighbor digit of a bucket's counting passes: a 2^11-entry count
// table stays in L1.
constexpr int kMaxDigitBits = 11;

// A weighted arc as its source's row stores it.
struct WeightedSlot {
  Weight w;
  EdgeId id;
  NodeId to;
};

NodeId NeighborOf(NodeId to) { return to; }
NodeId NeighborOf(const WeightedSlot& slot) { return slot.to; }

// CSR rows laid out by SortRows. Bucket b holds the sources
// [b << shift, (b + 1) << shift); its kept slots sit in row-major order at
// the front of slots[bucket_begin[b], bucket_begin[b + 1]).
template <typename Slot>
struct BucketedRows {
  std::vector<uint64_t> offsets;  // final CSR offsets, size n + 1
  std::unique_ptr<Slot[]> slots;
  std::vector<uint64_t> bucket_begin;
  int shift = 0;
};

// Builds the CSR rows of an undirected edge list: both arcs of every edge
// (self-loops dropped if asked), the arc u -> v stored as slot_of(e, v) in
// u's row. Per-chunk histograms of source buckets, a prefix sum and a
// stable scatter put the arcs in bucket-major order. Then one task per
// bucket orders its arcs by (source, neighbor) with stable counting passes,
// the neighbor's digits first and the source last, and calls
// finish_row(row, len) on each source's row: the row is sorted by neighbor,
// equal neighbors in edge order, and finish_row reorders it in place and
// returns how many slots to keep. No step depends on the pool's size.
template <typename Slot, typename E, typename SlotOf, typename FinishRow>
BucketedRows<Slot> SortRows(int64_t n, const std::vector<E>& edges,
                            bool remove_self_loops, SlotOf slot_of,
                            FinishRow finish_row) {
  ThreadPool& pool = ThreadPool::Global();
  const int64_t m = static_cast<int64_t>(edges.size());
  int id_bits = 0;
  while ((int64_t{1} << id_bits) < n) ++id_bits;
  int bucket_bits = 0;
  while (bucket_bits < std::min(id_bits, kMaxBucketBits) &&
         (m >> bucket_bits) >= kBucketArcs) {
    ++bucket_bits;
  }
  BucketedRows<Slot> rows;
  rows.shift = id_bits - bucket_bits;
  const int shift = rows.shift;
  const int64_t num_buckets = int64_t{1} << bucket_bits;
  auto bucket_of = [shift](NodeId v) {
    return static_cast<uint64_t>(v) >> shift;
  };

  const std::vector<IndexChunk> chunks =
      SplitIndexChunks(0, m, kEdgeChunkGrain, DefaultChunksForPool(pool));
  std::vector<uint64_t> cursor(chunks.size() * num_buckets, 0);
  pool.RunTasks(std::ssize(chunks), [&](int64_t c) {
    uint64_t* count = &cursor[c * num_buckets];
    for (int64_t i = chunks[c].begin; i < chunks[c].end; ++i) {
      const E& e = edges[i];
      AMPC_CHECK_LT(e.u, n);
      AMPC_CHECK_LT(e.v, n);
      if (remove_self_loops && e.u == e.v) continue;
      ++count[bucket_of(e.u)];
      ++count[bucket_of(e.v)];
    }
  });
  // Bucket-major, chunk-minor: each chunk's run of a bucket follows the
  // runs of the chunks before it, so a bucket lists its arcs in edge order.
  rows.bucket_begin.assign(num_buckets + 1, 0);
  uint64_t total = 0;
  for (int64_t b = 0; b < num_buckets; ++b) {
    rows.bucket_begin[b] = total;
    for (size_t c = 0; c < chunks.size(); ++c) {
      const uint64_t count = cursor[c * num_buckets + b];
      cursor[c * num_buckets + b] = total;
      total += count;
    }
  }
  rows.bucket_begin[num_buckets] = total;

  struct Arc {
    NodeId from;
    Slot slot;
  };
  auto arcs = std::make_unique_for_overwrite<Arc[]>(total);
  pool.RunTasks(std::ssize(chunks), [&](int64_t c) {
    uint64_t* next = &cursor[c * num_buckets];
    for (int64_t i = chunks[c].begin; i < chunks[c].end; ++i) {
      const E& e = edges[i];
      if (remove_self_loops && e.u == e.v) continue;
      arcs[next[bucket_of(e.u)]++] = Arc{e.u, slot_of(e, e.v)};
      arcs[next[bucket_of(e.v)]++] = Arc{e.v, slot_of(e, e.u)};
    }
  });

  const int passes = (id_bits + kMaxDigitBits - 1) / kMaxDigitBits;
  const int digit_bits = passes == 0 ? 0 : (id_bits + passes - 1) / passes;
  const uint64_t digit_mask = (uint64_t{1} << digit_bits) - 1;
  rows.offsets.assign(n + 1, 0);
  rows.slots = std::make_unique_for_overwrite<Slot[]>(total);
  ParallelFor(pool, 0, num_buckets, 1, [&](int64_t b) {
    const uint64_t begin = rows.bucket_begin[b];
    const uint64_t size = rows.bucket_begin[b + 1] - begin;
    const int64_t first = std::min(n, b << shift);
    const int64_t sources = std::min(n, (b + 1) << shift) - first;
    Arc* in = arcs.get() + begin;
    auto spare = std::make_unique_for_overwrite<Arc[]>(passes > 0 ? size : 0);
    Arc* out = spare.get();
    std::vector<uint64_t> count(size_t{1} << digit_bits);
    for (int p = 0; p < passes; ++p) {
      const int low = p * digit_bits;
      auto digit = [&](const Arc& arc) {
        return (NeighborOf(arc.slot) >> low) & digit_mask;
      };
      std::fill(count.begin(), count.end(), 0);
      for (uint64_t i = 0; i < size; ++i) ++count[digit(in[i])];
      uint64_t at = 0;
      for (uint64_t& c : count) at += std::exchange(c, at);
      for (uint64_t i = 0; i < size; ++i) out[count[digit(in[i])]++] = in[i];
      std::swap(in, out);
    }
    // The last pass places every arc in its source's row,
    // [start[k], start[k + 1]) for source first + k.
    std::vector<uint64_t> start(sources + 1, 0);
    for (uint64_t i = 0; i < size; ++i) ++start[in[i].from - first + 1];
    std::partial_sum(start.begin(), start.end(), start.begin());
    std::vector<uint64_t> next(start.begin(), start.end() - 1);
    Slot* slots = rows.slots.get() + begin;
    for (uint64_t i = 0; i < size; ++i) {
      slots[next[in[i].from - first]++] = in[i].slot;
    }
    // Finish each row and pack its kept slots after the previous row's.
    uint64_t kept = 0;
    for (int64_t k = 0; k < sources; ++k) {
      const size_t len = finish_row(slots + start[k], start[k + 1] - start[k]);
      if (kept != start[k]) std::copy_n(slots + start[k], len, slots + kept);
      kept += len;
      rows.offsets[first + k + 1] = len;
    }
  });
  std::partial_sum(rows.offsets.begin(), rows.offsets.end(),
                   rows.offsets.begin());
  return rows;
}

// Calls emit(i, slot) for the CSR position i of every kept slot, one task
// per bucket.
template <typename Slot, typename Emit>
void CompactRows(const BucketedRows<Slot>& rows, Emit emit) {
  const int64_t n = static_cast<int64_t>(rows.offsets.size()) - 1;
  const int64_t num_buckets =
      static_cast<int64_t>(rows.bucket_begin.size()) - 1;
  ParallelFor(ThreadPool::Global(), 0, num_buckets, 1, [&](int64_t b) {
    const uint64_t out = rows.offsets[std::min(n, b << rows.shift)];
    const uint64_t stop = rows.offsets[std::min(n, (b + 1) << rows.shift)];
    const Slot* from = rows.slots.get() + rows.bucket_begin[b];
    for (uint64_t i = out; i < stop; ++i) emit(i, *from++);
  });
}

}  // namespace

int64_t Graph::max_degree() const {
  int64_t best = 0;
  for (int64_t v = 0; v < num_nodes(); ++v) {
    best = std::max(best, degree(static_cast<NodeId>(v)));
  }
  return best;
}

int64_t WeightedGraph::max_degree() const {
  int64_t best = 0;
  for (int64_t v = 0; v < num_nodes(); ++v) {
    best = std::max(best, degree(static_cast<NodeId>(v)));
  }
  return best;
}

Graph BuildGraph(const EdgeList& list, const BuildOptions& options) {
  const int64_t n = list.num_nodes;
  const bool dedup = options.dedup;
  BucketedRows<NodeId> rows = SortRows<NodeId>(
      n, list.edges, options.remove_self_loops,
      [](const Edge&, NodeId to) { return to; },
      [dedup](NodeId* row, size_t len) {
        return dedup ? static_cast<size_t>(std::unique(row, row + len) - row)
                     : len;
      });
  Graph g;
  g.adjacency_.resize(rows.offsets.back());
  CompactRows(rows, [&g](uint64_t i, NodeId to) { g.adjacency_[i] = to; });
  g.offsets_ = std::move(rows.offsets);
  return g;
}

WeightedGraph BuildWeightedGraph(const WeightedEdgeList& list,
                                 const BuildOptions& options) {
  const int64_t n = list.num_nodes;
  // Rows are in (weight, id, neighbor) order; the neighbor last makes the
  // order total.
  auto lighter = [](const WeightedSlot& a, const WeightedSlot& b) {
    if (a.w != b.w) return a.w < b.w;
    if (a.id != b.id) return a.id < b.id;
    return a.to < b.to;
  };
  const bool dedup = options.dedup;
  BucketedRows<WeightedSlot> rows = SortRows<WeightedSlot>(
      n, list.edges, options.remove_self_loops,
      [](const WeightedEdge& e, NodeId to) {
        return WeightedSlot{e.w, e.id, to};
      },
      [&](WeightedSlot* row, size_t len) {
        if (dedup) {
          // The row arrives sorted by neighbor; each neighbor's run keeps
          // its lightest arc, the first of the run in that order.
          size_t kept = 0;
          for (size_t i = 0; i < len; ++i) {
            if (kept > 0 && row[kept - 1].to == row[i].to) {
              if (lighter(row[i], row[kept - 1])) row[kept - 1] = row[i];
            } else {
              row[kept++] = row[i];
            }
          }
          len = kept;
        }
        std::sort(row, row + len, lighter);
        return len;
      });
  WeightedGraph g;
  const uint64_t kept = rows.offsets.back();
  g.adjacency_.resize(kept);
  g.weights_.resize(kept);
  g.edge_ids_.resize(kept);
  CompactRows(rows, [&g](uint64_t i, const WeightedSlot& s) {
    g.adjacency_[i] = s.to;
    g.weights_[i] = s.w;
    g.edge_ids_[i] = s.id;
  });
  g.offsets_ = std::move(rows.offsets);
  return g;
}

Weight WeightedGraph::MinWeight() const {
  Weight best = 0;
  bool any = false;
  for (size_t i = 0; i < weights_.size(); ++i) {
    if (!any || weights_[i] < best) {
      best = weights_[i];
      any = true;
    }
  }
  return best;
}

WeightedEdgeList MakeDegreeWeighted(const EdgeList& list, const Graph& g) {
  WeightedEdgeList out;
  out.num_nodes = list.num_nodes;
  out.edges.reserve(list.edges.size());
  for (size_t i = 0; i < list.edges.size(); ++i) {
    const Edge& e = list.edges[i];
    out.edges.push_back(WeightedEdge{
        e.u, e.v, static_cast<Weight>(g.degree(e.u) + g.degree(e.v)),
        static_cast<EdgeId>(i)});
  }
  return out;
}

WeightedEdgeList MakeRandomWeighted(const EdgeList& list, uint64_t seed) {
  WeightedEdgeList out;
  out.num_nodes = list.num_nodes;
  out.edges.reserve(list.edges.size());
  for (size_t i = 0; i < list.edges.size(); ++i) {
    const Edge& e = list.edges[i];
    out.edges.push_back(WeightedEdge{
        e.u, e.v, ToUnitDouble(HashEdge(e.u, e.v, seed)),
        static_cast<EdgeId>(i)});
  }
  return out;
}

WeightedEdgeList MakeUnitWeighted(const EdgeList& list) {
  WeightedEdgeList out;
  out.num_nodes = list.num_nodes;
  out.edges.reserve(list.edges.size());
  for (size_t i = 0; i < list.edges.size(); ++i) {
    const Edge& e = list.edges[i];
    out.edges.push_back(WeightedEdge{e.u, e.v, 1.0, static_cast<EdgeId>(i)});
  }
  return out;
}

EdgeList StripWeights(const WeightedEdgeList& list) {
  EdgeList out;
  out.num_nodes = list.num_nodes;
  out.edges.reserve(list.edges.size());
  for (const WeightedEdge& e : list.edges) out.edges.push_back(Edge{e.u, e.v});
  return out;
}

}  // namespace ampc::graph
