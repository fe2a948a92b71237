#include "src/local/dynamic_truss.h"

#include <algorithm>
#include <utility>

#include "src/clique/intersect.h"
#include "src/peel/ktruss.h"

namespace nucleus {

namespace {

std::array<VertexId, 2> SortedPair(VertexId u, VertexId v) {
  return u < v ? std::array<VertexId, 2>{u, v}
               : std::array<VertexId, 2>{v, u};
}

// Position of b in a's neighbor list (present or insertion point).
std::size_t Slot(const WorkingGraph& g, VertexId a, VertexId b) {
  const auto nbrs = g.Neighbors(a);
  return static_cast<std::size_t>(
      std::lower_bound(nbrs.begin(), nbrs.end(), b) - nbrs.begin());
}

Degree TriangleCount(const WorkingGraph& g, VertexId u, VertexId v) {
  Degree c = 0;
  ForEachCommon(g.Neighbors(u), g.Neighbors(v), [&](VertexId) { ++c; });
  return c;
}

}  // namespace

DynamicTrussMaintainer::DynamicTrussMaintainer(const Graph& g)
    : base_(g), kappa_(TrussNumbers(g, base_)) {
  BuildEdgeIds(g);
}

DynamicTrussMaintainer::DynamicTrussMaintainer(const Graph& g,
                                               EdgeIndex edges,
                                               std::vector<Degree> kappa)
    : base_(std::move(edges)), kappa_(std::move(kappa)) {
  BuildEdgeIds(g);
}

void DynamicTrussMaintainer::BuildEdgeIds(const Graph& g) {
  // Forward entries {u, v > u} take their id from the index; each is
  // mirrored into v's list, whose entries below v come first and in the
  // ascending order u is walked in.
  const std::size_t n = g.NumVertices();
  edge_ids_.assign(n, {});
  for (VertexId v = 0; v < n; ++v) {
    edge_ids_[v].resize(g.Neighbors(v).size());
  }
  std::vector<std::size_t> backward(n, 0);
  for (VertexId u = 0; u < n; ++u) {
    const auto nbrs = g.Neighbors(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId v = nbrs[i];
      if (v < u) continue;
      const CliqueId e = IdOf(u, v);
      edge_ids_[u][i] = e;
      edge_ids_[v][backward[v]++] = e;
    }
  }
}

CliqueId DynamicTrussMaintainer::IdOf(VertexId u, VertexId v) const {
  const EdgeId e = base_.EdgeIdOf(u, v);
  return e != kInvalidEdge ? e : kappa_.FindBorn(SortedPair(u, v));
}

DynamicTrussMaintainer::Pair DynamicTrussMaintainer::Endpoints(
    CliqueId e) const {
  if (e >= kappa_.NumBaseIds()) return kappa_.BornTuple(e);
  const auto [u, v] = base_.Endpoints(e);
  return {u, v};
}

template <typename Fn>
void DynamicTrussMaintainer::ForEachTriangle(const WorkingGraph& g,
                                             CliqueId e, Fn&& fn) const {
  const auto [a, b] = Endpoints(e);
  const auto na = g.Neighbors(a);
  const auto nb = g.Neighbors(b);
  const std::vector<CliqueId>& ia = edge_ids_[a];
  const std::vector<CliqueId>& ib = edge_ids_[b];
  std::size_t i = 0, j = 0;
  while (i < na.size() && j < nb.size()) {
    if (na[i] < nb[j]) {
      ++i;
    } else if (nb[j] < na[i]) {
      ++j;
    } else {
      const CliqueId co[2] = {ia[i++], ib[j++]};
      fn(std::span<const CliqueId>(co, 2));
    }
  }
}

Degree DynamicTrussMaintainer::TrussNumberOf(const WorkingGraph& g,
                                             VertexId u, VertexId v) const {
  if (!g.HasEdge(u, v)) return kInvalidClique;
  return kappa_[IdOf(u, v)];
}

void DynamicTrussMaintainer::EdgeInserted(const WorkingGraph& g, VertexId u,
                                          VertexId v) {
  const auto for_each = [this, &g](CliqueId e, auto&& fn) {
    ForEachTriangle(g, e, fn);
  };

  // The new edge starts from its triangle count (valid upper bound). It
  // takes back its base id when it was removed earlier in the batch, else
  // a side-store slot.
  const Degree d3_e0 = TriangleCount(g, u, v);
  CliqueId e0 = base_.EdgeIdOf(u, v);
  if (e0 == kInvalidEdge) e0 = kappa_.Born(SortedPair(u, v));
  kappa_.Set(e0, d3_e0);
  edge_ids_[u].insert(edge_ids_[u].begin() + Slot(g, u, v), e0);
  edge_ids_[v].insert(edge_ids_[v].begin() + Slot(g, v, u), e0);

  // Per-level triangle-BFS from e0: at level m, traverse triangles whose
  // edges all have old kappa >= m, expanding through the edges with old
  // kappa == m only; those are the only candidates that may rise to m+1.
  const CliqueId sources[1] = {e0};
  std::vector<CliqueId> seeds = {e0};
  for (CliqueId f : kappa_.Risers(sources, d3_e0, for_each)) {
    const auto [a, b] = Endpoints(f);
    kappa_.Set(f, std::min<Degree>(kappa_[f] + 1, TriangleCount(g, a, b)));
    seeds.push_back(f);
  }
  // The co-edges of the new triangles also gained an input.
  ForEachTriangle(g, e0, [&](std::span<const CliqueId> co) {
    seeds.insert(seeds.end(), co.begin(), co.end());
  });
  last_repair_work_ = kappa_.Repair(seeds, for_each);
}

void DynamicTrussMaintainer::EdgeErased(const WorkingGraph& g, VertexId u,
                                        VertexId v) {
  // The erase left v's slot in u's list (and u's in v's) as the insertion
  // point, so the id slots go at the same positions. N(u) and N(v) never
  // held u or v themselves, so their intersection, the destroyed
  // triangles, is unchanged by the erase.
  const CliqueId e0 = IdOf(u, v);
  edge_ids_[u].erase(edge_ids_[u].begin() + Slot(g, u, v));
  edge_ids_[v].erase(edge_ids_[v].begin() + Slot(g, v, u));
  // Seeds: edges of the triangles being destroyed.
  std::vector<CliqueId> seeds;
  ForEachTriangle(g, e0, [&](std::span<const CliqueId> co) {
    seeds.insert(seeds.end(), co.begin(), co.end());
  });
  kappa_.Set(e0, 0);
  last_repair_work_ =
      kappa_.Repair(seeds, [this, &g](CliqueId e, auto&& fn) {
        ForEachTriangle(g, e, fn);
      });
}

std::vector<Degree> DynamicTrussMaintainer::TrussNumbersInIndexOrder(
    const WorkingGraph& g) const {
  std::vector<Degree> out;
  out.reserve(g.NumEdges());
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    for (VertexId v : g.Neighbors(u)) {
      if (v > u) out.push_back(kappa_[IdOf(u, v)]);
    }
  }
  return out;
}

std::vector<Degree> DynamicTrussMaintainer::TakeKappa(
    const EdgeIndex& patched) {
  return kappa_.Take(patched.NumEdges(), [&](const Pair& p) {
    return patched.EdgeIdOf(p[0], p[1]);
  });
}

}  // namespace nucleus
