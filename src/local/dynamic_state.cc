#include "src/local/dynamic_state.h"

namespace nucleus {

WorkingGraph::WorkingGraph(const Graph& g)
    : adj_(g.NumVertices()), num_edges_(g.NumEdges()) {
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    adj_[v].assign(g.Neighbors(v).begin(), g.Neighbors(v).end());
  }
}

bool WorkingGraph::HasEdge(VertexId u, VertexId v) const {
  if (u == v || u >= adj_.size() || v >= adj_.size()) return false;
  const bool u_smaller = adj_[u].size() <= adj_[v].size();
  const auto& a = u_smaller ? adj_[u] : adj_[v];
  return std::binary_search(a.begin(), a.end(), u_smaller ? v : u);
}

bool WorkingGraph::Insert(VertexId u, VertexId v) {
  if (u == v || u >= adj_.size() || v >= adj_.size() || HasEdge(u, v)) {
    return false;
  }
  adj_[u].insert(std::lower_bound(adj_[u].begin(), adj_[u].end(), v), v);
  adj_[v].insert(std::lower_bound(adj_[v].begin(), adj_[v].end(), u), u);
  ++num_edges_;
  return true;
}

bool WorkingGraph::Erase(VertexId u, VertexId v) {
  if (!HasEdge(u, v)) return false;
  adj_[u].erase(std::lower_bound(adj_[u].begin(), adj_[u].end(), v));
  adj_[v].erase(std::lower_bound(adj_[v].begin(), adj_[v].end(), u));
  --num_edges_;
  return true;
}

Graph WorkingGraph::ToGraph() const {
  std::vector<std::size_t> offsets(adj_.size() + 1, 0);
  for (std::size_t v = 0; v < adj_.size(); ++v) {
    offsets[v + 1] = offsets[v] + adj_[v].size();
  }
  std::vector<VertexId> neighbors;
  neighbors.reserve(offsets.back());
  for (const auto& a : adj_) {
    neighbors.insert(neighbors.end(), a.begin(), a.end());
  }
  return Graph(std::move(offsets), std::move(neighbors));
}

}  // namespace nucleus
