#include "src/local/dynamic_nucleus34.h"

#include <algorithm>
#include <utility>

#include "src/clique/intersect.h"
#include "src/peel/nucleus34.h"

namespace nucleus {

namespace {

std::array<VertexId, 3> SortedTriple(VertexId a, VertexId b, VertexId c) {
  std::array<VertexId, 3> t = {a, b, c};
  std::sort(t.begin(), t.end());
  return t;
}

// Number of 4-cliques containing the (present) triangle t of g.
Degree QuadCount(const WorkingGraph& g, const std::array<VertexId, 3>& t) {
  Degree count = 0;
  ForEachCommon3(g.Neighbors(t[0]), g.Neighbors(t[1]), g.Neighbors(t[2]),
                 [&](VertexId) { ++count; });
  return count;
}

}  // namespace

DynamicNucleus34Maintainer::DynamicNucleus34Maintainer(const Graph& g)
    : base_(g),
      kappa_(Nucleus34Numbers(g, base_)),
      num_triangles_(base_.NumTriangles()) {}

DynamicNucleus34Maintainer::DynamicNucleus34Maintainer(
    TriangleIndex tris, std::vector<Degree> kappa)
    : base_(std::move(tris)),
      kappa_(std::move(kappa)),
      num_triangles_(base_.NumLiveTriangles()) {}

CliqueId DynamicNucleus34Maintainer::IdOf(VertexId a, VertexId b,
                                          VertexId c) const {
  const TriangleId t = base_.TriangleIdOf(a, b, c);
  return t != kInvalidTriangle ? t : kappa_.FindBorn(SortedTriple(a, b, c));
}

DynamicNucleus34Maintainer::Triple DynamicNucleus34Maintainer::Vertices(
    CliqueId t) const {
  return t >= kappa_.NumBaseIds() ? kappa_.BornTuple(t) : base_.Vertices(t);
}

template <typename Fn>
void DynamicNucleus34Maintainer::ForEachFourClique(const WorkingGraph& g,
                                                   CliqueId t,
                                                   Fn&& fn) const {
  const Triple v = Vertices(t);
  ForEachCommon3(g.Neighbors(v[0]), g.Neighbors(v[1]), g.Neighbors(v[2]),
                 [&](VertexId x) {
                   const CliqueId co[3] = {IdOf(v[0], v[1], x),
                                           IdOf(v[0], v[2], x),
                                           IdOf(v[1], v[2], x)};
                   fn(std::span<const CliqueId>(co, 3));
                 });
}

Degree DynamicNucleus34Maintainer::Nucleus34NumberOf(const WorkingGraph& g,
                                                     VertexId u, VertexId v,
                                                     VertexId w) const {
  if (!g.HasEdge(u, v) || !g.HasEdge(u, w) || !g.HasEdge(v, w)) {
    return kInvalidClique;
  }
  return kappa_[IdOf(u, v, w)];
}

void DynamicNucleus34Maintainer::EdgeInserted(const WorkingGraph& g,
                                              VertexId u, VertexId v) {
  const auto for_each = [this, &g](CliqueId t, auto&& fn) {
    ForEachFourClique(g, t, fn);
  };

  // Born triangles all contain {u, v}: one per common neighbor. Each takes
  // back its base id when it died earlier in the batch, else a side-store
  // slot. They start from their 4-clique count (valid upper bound); the
  // largest of those counts caps how high any old triangle can have risen.
  std::vector<CliqueId> born;
  ForEachCommon(g.Neighbors(u), g.Neighbors(v), [&](VertexId w) {
    const TriangleId t = base_.TriangleIdOf(u, v, w);
    born.push_back(t != kInvalidTriangle ? t
                                         : kappa_.Born(SortedTriple(u, v, w)));
  });
  last_repair_work_ = 0;
  if (born.empty()) return;  // no new triangles => no new 4-cliques
  num_triangles_ += born.size();
  Degree max_born_d4 = 0;
  for (CliqueId t : born) {
    const Degree d4 = QuadCount(g, Vertices(t));
    kappa_.Set(t, d4);
    max_born_d4 = std::max(max_born_d4, d4);
  }

  // Per-level multi-source 4-clique-BFS from the born triangles: at level
  // m, traverse 4-cliques whose triangles all have kappa >= m (born ones
  // carry their d_4 seed), expanding through the kappa == m triangles
  // only; those are the only candidates that may rise to m+1. (A born
  // triangle is never a riser: one reached at level m holds kappa >= m,
  // so it was a source of that level.)
  std::vector<CliqueId> seeds = born;
  for (CliqueId t : kappa_.Risers(born, max_born_d4, for_each)) {
    kappa_.Set(t, std::min<Degree>(kappa_[t] + 1, QuadCount(g, Vertices(t))));
    seeds.push_back(t);
  }
  // The surviving co-triangles of the born 4-cliques also gained an input:
  // quad {u,v,w,x} contributes the old triangles {u,w,x} and {v,w,x}.
  for (CliqueId t : born) {
    ForEachFourClique(g, t, [&](std::span<const CliqueId> co) {
      seeds.insert(seeds.end(), co.begin(), co.end());
    });
  }
  last_repair_work_ = kappa_.Repair(seeds, for_each);
}

void DynamicNucleus34Maintainer::EdgeErased(const WorkingGraph& g, VertexId u,
                                            VertexId v) {
  // Dead triangles all contain {u, v}; seeds are the surviving triangles
  // of the 4-cliques being destroyed with them. The erase left N(u) and
  // N(v) without v and u only, which no intersection below could hold, so
  // both sets read the same after it as before.
  std::vector<CliqueId> dead;
  ForEachCommon(g.Neighbors(u), g.Neighbors(v),
                [&](VertexId w) { dead.push_back(IdOf(u, v, w)); });
  std::vector<CliqueId> seeds;
  for (CliqueId t : dead) {
    ForEachFourClique(g, t, [&](std::span<const CliqueId> co) {
      for (CliqueId c : co) {
        // Of quad (t, x), the triangles containing edge {u, v} die too.
        const Triple tri = Vertices(c);
        const auto has = [&](VertexId x) {
          return tri[0] == x || tri[1] == x || tri[2] == x;
        };
        if (!(has(u) && has(v))) seeds.push_back(c);
      }
    });
  }
  num_triangles_ -= dead.size();
  for (CliqueId t : dead) kappa_.Set(t, 0);
  last_repair_work_ =
      kappa_.Repair(seeds, [this, &g](CliqueId t, auto&& fn) {
        ForEachFourClique(g, t, fn);
      });
}

std::vector<Degree>
DynamicNucleus34Maintainer::Nucleus34NumbersInIndexOrder(
    const WorkingGraph& g) const {
  // Lexicographic (u < v < w) triple order — exactly a fresh
  // TriangleIndex's pristine id order.
  std::vector<Degree> out;
  out.reserve(num_triangles_);
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    for (VertexId v : g.Neighbors(u)) {
      if (v <= u) continue;
      ForEachCommon(g.Neighbors(u), g.Neighbors(v), [&](VertexId w) {
        if (w > v) out.push_back(kappa_[IdOf(u, v, w)]);
      });
    }
  }
  return out;
}

std::vector<Degree> DynamicNucleus34Maintainer::TakeKappa(
    const TriangleIndex& patched) {
  return kappa_.Take(patched.NumTriangles(), [&](const Triple& t) {
    return patched.TriangleIdOf(t[0], t[1], t[2]);
  });
}

}  // namespace nucleus
