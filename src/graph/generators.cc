#include "graph/generators.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "common/random.h"
#include "common/thread_pool.h"

namespace ampc::graph {

EdgeList GenerateErdosRenyi(int64_t num_nodes, int64_t num_edges,
                            uint64_t seed) {
  AMPC_CHECK_GE(num_nodes, 1);
  Rng rng(seed);
  EdgeList list;
  list.num_nodes = num_nodes;
  list.edges.reserve(num_edges);
  for (int64_t i = 0; i < num_edges; ++i) {
    NodeId u = static_cast<NodeId>(rng.NextBelow(num_nodes));
    NodeId v = static_cast<NodeId>(rng.NextBelow(num_nodes));
    list.edges.push_back(Edge{u, v});
  }
  return list;
}

EdgeList GenerateRmat(int log2_nodes, int64_t num_edges, uint64_t seed,
                      const RmatOptions& options) {
  AMPC_CHECK_GE(log2_nodes, 1);
  AMPC_CHECK_LE(log2_nodes, 31);
  AMPC_CHECK_GE(num_edges, 0);
  AMPC_CHECK_GE(options.a, 0.0);
  AMPC_CHECK_GE(options.b, 0.0);
  AMPC_CHECK_GE(options.c, 0.0);
  const double a = options.a;
  const double ab = a + options.b;
  const double abc = ab + options.c;
  AMPC_CHECK_LE(abc, 1.0) << "a + b + c";
  const int64_t n = int64_t{1} << log2_nodes;
  EdgeList list;
  list.num_nodes = n;
  list.edges.resize(num_edges);

  // Edge i takes draws [i * log2_nodes, (i + 1) * log2_nodes) of one
  // xoshiro stream. Each chunk of kRmatChunkEdges edges starts one jump of
  // kRmatChunkEdges * log2_nodes draws after the one before; the chunks
  // then fill concurrently, so the edge list is the serial one on any pool.
  constexpr int64_t kRmatChunkEdges = int64_t{1} << 15;
  const int64_t num_chunks =
      (num_edges + kRmatChunkEdges - 1) / kRmatChunkEdges;
  const Rng::JumpPolynomial stride =
      Rng::JumpPolynomialFor(kRmatChunkEdges * log2_nodes);
  std::vector<Rng> chunk_rng;
  chunk_rng.reserve(num_chunks);
  Rng rng(seed);
  for (int64_t c = 0; c < num_chunks; ++c) {
    chunk_rng.push_back(rng);
    if (c + 1 < num_chunks) rng.Jump(stride);
  }

  // NextDouble() is (x >> 11) * 2^-53 exactly, so for t >= 0 it is below t
  // iff x >> 11 is below ceil(t * 2^53): the quadrant test compares
  // integers and picks what the double comparisons picked.
  auto threshold = [](double t) {
    return static_cast<uint64_t>(std::ceil(t * 0x1p53));
  };
  const uint64_t below_a = threshold(a), below_ab = threshold(ab),
                 below_abc = threshold(abc);
  // Multiply-by-odd plus offset modulo 2^k is a bijection on the id space,
  // so scrambling permutes ids without extra memory; odd = 1 and add = 0
  // leave them as drawn.
  const uint64_t mask = static_cast<uint64_t>(n - 1);
  const uint64_t odd =
      options.scramble_ids ? (Hash64(1, seed) | 1) & mask : 1;
  const uint64_t add = options.scramble_ids ? Hash64(2, seed) & mask : 0;
  ParallelFor(ThreadPool::Global(), 0, num_chunks, 1, [&](int64_t c) {
    Rng draws = chunk_rng[c];
    const int64_t end = std::min(num_edges, (c + 1) * kRmatChunkEdges);
    for (int64_t i = c * kRmatChunkEdges; i < end; ++i) {
      uint64_t u = 0, v = 0;
      for (int bit = 0; bit < log2_nodes; ++bit) {
        // The first of NextDouble() < a, < a + b and < a + b + c that
        // holds picks the bits (u, v) = (0, 0), (0, 1) or (1, 0), and
        // none picks (1, 1); the same three comparisons, on integers and
        // without a branch.
        const uint64_t r = draws.Next() >> 11;
        const uint64_t lt_a = r < below_a, lt_ab = r < below_ab,
                       lt_abc = r < below_abc;
        u = (u << 1) | ((lt_a | lt_ab) ^ 1);
        v = (v << 1) | ((lt_a ^ 1) & (lt_ab | (lt_abc ^ 1)));
      }
      list.edges[i] = Edge{static_cast<NodeId>((u * odd + add) & mask),
                           static_cast<NodeId>((v * odd + add) & mask)};
    }
  });
  return list;
}

EdgeList GenerateCycle(int64_t num_nodes) {
  AMPC_CHECK_GE(num_nodes, 3);
  EdgeList list;
  list.num_nodes = num_nodes;
  list.edges.reserve(num_nodes);
  for (int64_t i = 0; i < num_nodes; ++i) {
    list.edges.push_back(Edge{static_cast<NodeId>(i),
                              static_cast<NodeId>((i + 1) % num_nodes)});
  }
  return list;
}

EdgeList GenerateDoubleCycle(int64_t k) {
  AMPC_CHECK_GE(k, 3);
  EdgeList list;
  list.num_nodes = 2 * k;
  list.edges.reserve(2 * k);
  for (int64_t i = 0; i < k; ++i) {
    list.edges.push_back(
        Edge{static_cast<NodeId>(i), static_cast<NodeId>((i + 1) % k)});
  }
  for (int64_t i = 0; i < k; ++i) {
    list.edges.push_back(Edge{static_cast<NodeId>(k + i),
                              static_cast<NodeId>(k + (i + 1) % k)});
  }
  return list;
}

EdgeList GeneratePath(int64_t num_nodes) {
  AMPC_CHECK_GE(num_nodes, 1);
  EdgeList list;
  list.num_nodes = num_nodes;
  for (int64_t i = 0; i + 1 < num_nodes; ++i) {
    list.edges.push_back(
        Edge{static_cast<NodeId>(i), static_cast<NodeId>(i + 1)});
  }
  return list;
}

EdgeList GenerateGrid(int64_t rows, int64_t cols) {
  AMPC_CHECK_GE(rows, 1);
  AMPC_CHECK_GE(cols, 1);
  EdgeList list;
  list.num_nodes = rows * cols;
  auto id = [cols](int64_t r, int64_t c) {
    return static_cast<NodeId>(r * cols + c);
  };
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) list.edges.push_back(Edge{id(r, c), id(r, c + 1)});
      if (r + 1 < rows) list.edges.push_back(Edge{id(r, c), id(r + 1, c)});
    }
  }
  return list;
}

EdgeList GenerateRandomTree(int64_t num_nodes, uint64_t seed) {
  AMPC_CHECK_GE(num_nodes, 1);
  Rng rng(seed);
  EdgeList list;
  list.num_nodes = num_nodes;
  for (int64_t i = 1; i < num_nodes; ++i) {
    NodeId parent = static_cast<NodeId>(rng.NextBelow(i));
    list.edges.push_back(Edge{static_cast<NodeId>(i), parent});
  }
  return list;
}

EdgeList GenerateRandomForest(int64_t num_nodes, int64_t num_trees,
                              uint64_t seed) {
  AMPC_CHECK_GE(num_trees, 1);
  AMPC_CHECK_GE(num_nodes, num_trees);
  Rng rng(seed);
  EdgeList list;
  list.num_nodes = num_nodes;
  // Nodes [0, num_trees) are roots; node i >= num_trees attaches to a
  // uniformly random earlier node within its tree (tree = i % num_trees).
  for (int64_t i = num_trees; i < num_nodes; ++i) {
    const int64_t tree = i % num_trees;
    // Earlier nodes of this tree: tree, tree + num_trees, ..., < i.
    const int64_t count = (i - tree) / num_trees;
    const int64_t pick = static_cast<int64_t>(rng.NextBelow(count));
    const NodeId parent = static_cast<NodeId>(tree + pick * num_trees);
    list.edges.push_back(Edge{static_cast<NodeId>(i), parent});
  }
  return list;
}

EdgeList GenerateStar(int64_t num_nodes) {
  AMPC_CHECK_GE(num_nodes, 1);
  EdgeList list;
  list.num_nodes = num_nodes;
  for (int64_t i = 1; i < num_nodes; ++i) {
    list.edges.push_back(Edge{0, static_cast<NodeId>(i)});
  }
  return list;
}

EdgeList GenerateComplete(int64_t num_nodes) {
  AMPC_CHECK_GE(num_nodes, 1);
  AMPC_CHECK_LE(num_nodes, 4096);
  EdgeList list;
  list.num_nodes = num_nodes;
  for (int64_t u = 0; u < num_nodes; ++u) {
    for (int64_t v = u + 1; v < num_nodes; ++v) {
      list.edges.push_back(
          Edge{static_cast<NodeId>(u), static_cast<NodeId>(v)});
    }
  }
  return list;
}

EdgeList GenerateRandomTernaryTree(int64_t num_nodes, uint64_t seed) {
  AMPC_CHECK_GE(num_nodes, 1);
  Rng rng(seed);
  EdgeList list;
  list.num_nodes = num_nodes;
  std::vector<int> degree(num_nodes, 0);
  // Maintain the set of nodes with degree < 3 among already-placed nodes.
  std::vector<NodeId> open;
  open.push_back(0);
  for (int64_t i = 1; i < num_nodes; ++i) {
    const size_t pick = rng.NextBelow(open.size());
    const NodeId parent = open[pick];
    list.edges.push_back(Edge{static_cast<NodeId>(i), parent});
    if (++degree[parent] >= 3) {
      open[pick] = open.back();
      open.pop_back();
    }
    degree[i] = 1;
    open.push_back(static_cast<NodeId>(i));
  }
  return list;
}

}  // namespace ampc::graph
