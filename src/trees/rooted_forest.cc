#include "trees/rooted_forest.h"

#include "common/logging.h"

namespace ampc::trees {

using graph::EdgeId;
using graph::kInvalidNode;
using graph::NodeId;
using graph::Weight;
using graph::WeightedEdge;

RootedForest BuildRootedForest(int64_t num_nodes,
                               const std::vector<WeightedEdge>& edges) {
  RootedForest f;
  f.num_nodes = num_nodes;
  f.parent.resize(num_nodes);
  f.parent_weight.assign(num_nodes, 0);
  f.parent_edge_id.assign(num_nodes, graph::kInvalidEdge);
  f.depth.assign(num_nodes, 0);
  f.root.resize(num_nodes);

  // Adjacency of the forest in CSR form.
  std::vector<int64_t> deg(num_nodes, 0);
  for (const WeightedEdge& e : edges) {
    AMPC_CHECK_NE(e.u, e.v) << "forest has a self-loop";
    ++deg[e.u];
    ++deg[e.v];
  }
  std::vector<int64_t> offsets(num_nodes + 1, 0);
  for (int64_t v = 0; v < num_nodes; ++v) offsets[v + 1] = offsets[v] + deg[v];
  struct Arc {
    NodeId to;
    Weight w;
    EdgeId id;
  };
  std::vector<Arc> arcs(offsets.back());
  std::vector<int64_t> cursor = offsets;
  for (const WeightedEdge& e : edges) {
    arcs[cursor[e.u]++] = Arc{e.v, e.w, e.id};
    arcs[cursor[e.v]++] = Arc{e.u, e.w, e.id};
  }

  // bfs_order is the BFS queue: a vertex is appended when it is
  // discovered, and `head` is the next one to expand. Each tree starts
  // with the queue drained, so the order is that of a FIFO per tree.
  std::vector<uint8_t> visited(num_nodes, 0);
  f.bfs_order.reserve(num_nodes);
  size_t head = 0;
  int64_t tree_edges = 0;
  for (int64_t s = 0; s < num_nodes; ++s) {
    if (visited[s]) continue;
    const NodeId root = static_cast<NodeId>(s);
    visited[s] = 1;
    f.parent[s] = root;
    f.root[s] = root;
    f.depth[s] = 0;
    f.bfs_order.push_back(root);
    while (head < f.bfs_order.size()) {
      const NodeId v = f.bfs_order[head++];
      for (int64_t i = offsets[v]; i < offsets[v + 1]; ++i) {
        const Arc& arc = arcs[i];
        if (visited[arc.to]) continue;
        visited[arc.to] = 1;
        f.parent[arc.to] = v;
        f.parent_weight[arc.to] = arc.w;
        f.parent_edge_id[arc.to] = arc.id;
        f.depth[arc.to] = f.depth[v] + 1;
        f.root[arc.to] = root;
        ++tree_edges;
        f.bfs_order.push_back(arc.to);
      }
    }
  }
  AMPC_CHECK_EQ(tree_edges, static_cast<int64_t>(edges.size()))
      << "input edges contain a cycle";

  // Children CSR.
  std::vector<int64_t> child_count(num_nodes, 0);
  for (int64_t v = 0; v < num_nodes; ++v) {
    if (!f.IsRoot(static_cast<NodeId>(v))) ++child_count[f.parent[v]];
  }
  f.child_offsets.assign(num_nodes + 1, 0);
  for (int64_t v = 0; v < num_nodes; ++v) {
    f.child_offsets[v + 1] = f.child_offsets[v] + child_count[v];
  }
  f.children.resize(f.child_offsets.back());
  std::vector<int64_t> child_cursor(f.child_offsets.begin(),
                                    f.child_offsets.end() - 1);
  for (int64_t v = 0; v < num_nodes; ++v) {
    if (!f.IsRoot(static_cast<NodeId>(v))) {
      f.children[child_cursor[f.parent[v]]++] = static_cast<NodeId>(v);
    }
  }
  return f;
}

}  // namespace ampc::trees
