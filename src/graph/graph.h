// Immutable CSR graph representations (unweighted and weighted) and
// edge-list builders. All distributed algorithms in this library consume
// these types; the KV substrate serves adjacency slices out of them.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"

namespace ampc::graph {

using NodeId = uint32_t;
using EdgeId = uint32_t;
using Weight = double;

inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();
inline constexpr EdgeId kInvalidEdge = std::numeric_limits<EdgeId>::max();

/// An undirected edge (endpoint order is not meaningful).
struct Edge {
  NodeId u = 0;
  NodeId v = 0;

  bool operator==(const Edge&) const = default;
};

/// An undirected weighted edge with a stable identifier. The id is the
/// index of the edge in the defining edge list; MSF outputs are reported
/// as sets of edge ids so results compare exactly across algorithms.
struct WeightedEdge {
  NodeId u = 0;
  NodeId v = 0;
  Weight w = 0;
  EdgeId id = 0;

  bool operator==(const WeightedEdge&) const = default;
};

/// A bag of undirected edges over nodes [0, num_nodes).
struct EdgeList {
  int64_t num_nodes = 0;
  std::vector<Edge> edges;
};

/// A bag of undirected weighted edges over nodes [0, num_nodes).
struct WeightedEdgeList {
  int64_t num_nodes = 0;
  std::vector<WeightedEdge> edges;
};

/// Options controlling CSR construction.
struct BuildOptions {
  /// Drop (u, u) edges.
  bool remove_self_loops = true;
  /// Keep a single copy of parallel edges per adjacency (weighted graphs
  /// keep the lightest by (weight, edge id)).
  bool dedup = true;
};

/// A symmetric (undirected) unweighted graph in CSR form. `num_arcs` counts
/// directed arcs, i.e. twice the number of undirected edges — matching how
/// the paper reports m for its symmetrized inputs.
class Graph {
 public:
  Graph() = default;

  int64_t num_nodes() const { return static_cast<int64_t>(offsets_.size()) - 1; }
  int64_t num_arcs() const { return static_cast<int64_t>(adjacency_.size()); }
  int64_t num_undirected_edges() const { return num_arcs() / 2; }

  int64_t degree(NodeId v) const {
    return static_cast<int64_t>(offsets_[v + 1] - offsets_[v]);
  }

  std::span<const NodeId> neighbors(NodeId v) const {
    return {adjacency_.data() + offsets_[v],
            adjacency_.data() + offsets_[v + 1]};
  }

  int64_t max_degree() const;

  /// Approximate bytes of an adjacency record when stored in the KV store:
  /// key + neighbor ids. Used for communication accounting.
  int64_t AdjacencyBytes(NodeId v) const {
    return static_cast<int64_t>(sizeof(NodeId)) * (1 + degree(v));
  }

 private:
  friend Graph BuildGraph(const EdgeList& list, const BuildOptions& options);

  std::vector<uint64_t> offsets_;  // size num_nodes + 1
  std::vector<NodeId> adjacency_;
};

/// A symmetric weighted graph in CSR form; every arc carries the weight and
/// the undirected edge id it came from.
class WeightedGraph {
 public:
  WeightedGraph() = default;

  int64_t num_nodes() const { return static_cast<int64_t>(offsets_.size()) - 1; }
  int64_t num_arcs() const { return static_cast<int64_t>(adjacency_.size()); }
  int64_t num_undirected_edges() const { return num_arcs() / 2; }

  int64_t degree(NodeId v) const {
    return static_cast<int64_t>(offsets_[v + 1] - offsets_[v]);
  }

  std::span<const NodeId> neighbors(NodeId v) const {
    return {adjacency_.data() + offsets_[v],
            adjacency_.data() + offsets_[v + 1]};
  }
  std::span<const Weight> weights(NodeId v) const {
    return {weights_.data() + offsets_[v], weights_.data() + offsets_[v + 1]};
  }
  std::span<const EdgeId> edge_ids(NodeId v) const {
    return {edge_ids_.data() + offsets_[v],
            edge_ids_.data() + offsets_[v + 1]};
  }

  int64_t max_degree() const;

  int64_t AdjacencyBytes(NodeId v) const {
    return static_cast<int64_t>(
        sizeof(NodeId) +
        degree(v) * (sizeof(NodeId) + sizeof(Weight) + sizeof(EdgeId)));
  }

  /// Returns the minimum edge weight; 0 for an edgeless graph.
  Weight MinWeight() const;

 private:
  friend WeightedGraph BuildWeightedGraph(const WeightedEdgeList& list,
                                          const BuildOptions& options);

  std::vector<uint64_t> offsets_;
  std::vector<NodeId> adjacency_;
  std::vector<Weight> weights_;
  std::vector<EdgeId> edge_ids_;
};

/// Builds a symmetric CSR graph from an undirected edge list. Both arcs of
/// every edge are materialized; adjacencies are sorted by neighbor id.
///
/// Both builders bucket the arcs by source id with a counting scatter and
/// then order each bucket's rows on their own, all on ThreadPool::Global()
/// (also from inside one of its tasks: RunTasks calls nest). No sort spans
/// the whole edge list, and the result depends on the input alone, never
/// on the pool's size or schedule.
Graph BuildGraph(const EdgeList& list, const BuildOptions& options = {});

/// Weighted variant; arcs carry (weight, edge id) of the defining edge.
/// Each adjacency is sorted by (weight, edge id, neighbor) ascending, the
/// layout the AMPC MSF stores in the KV store (paper §5.5: "sorts the edges
/// incident to each vertex by their weights"); with dedup, a neighbor keeps
/// only its lightest parallel arc by (weight, edge id).
WeightedGraph BuildWeightedGraph(const WeightedEdgeList& list,
                                 const BuildOptions& options = {});

/// Attaches weights to an edge list: w(u, v) = deg(u) + deg(v), the scheme
/// the paper uses for its MSF inputs (§5.2). Degrees are taken in `g`,
/// which must be the graph built from `list`.
WeightedEdgeList MakeDegreeWeighted(const EdgeList& list, const Graph& g);

/// Attaches i.i.d. uniform weights in [0, 1) derived from `seed`.
WeightedEdgeList MakeRandomWeighted(const EdgeList& list, uint64_t seed);

/// Attaches unit weights (w = 1) — turns MSF into spanning forest.
WeightedEdgeList MakeUnitWeighted(const EdgeList& list);

/// Strips weights.
EdgeList StripWeights(const WeightedEdgeList& list);

}  // namespace ampc::graph
