// Incremental (3,4)-nucleus maintenance under edge insertions/deletions,
// completing the maintainer family (DynamicCoreMaintainer for (1,2),
// DynamicTrussMaintainer for (2,3)). Same recipe: after a mutation,
// rebuild a certified upper bound of the new kappa_4 values, then run the
// local h-index repair to the fixed point.
//
// Upper-bound construction for insertion of e0 = {u,v}: a 4-clique born by
// the insert must contain e0, so an EXISTING triangle T gains at most one
// 4-clique (T plus the one endpoint of e0 it misses) and its kappa_4 rises
// by at most 1. A riser with old kappa m must lie in the new (m+1)-nucleus,
// which necessarily contains a BORN triangle (otherwise it existed before
// the insert) and is S-connected to one through risers (KappaStore::
// Risers). We therefore run a per-level multi-source 4-clique-BFS from the
// born triangles for every level m below the largest born-triangle d_4,
// expanding through kappa == m triangles only, and bump those it reaches
// to min(m+1, d_4). Born triangles start
// at their d_4 count. Deletion needs no theorem: old values are upper
// bounds, clamped by the repair. Exactness of the repaired values follows
// from the fixed-point sandwich (see dynamic.h) and is asserted against
// full recomputation in dynamic_nucleus34_test.cc over hundreds of random
// mutations.
//
// State: kappa_4 values live in an id-indexed vector over a base
// TriangleIndex (dynamic_state.h). The standalone constructors build
// their own base; the session hands each batch a copy of its index and a
// copy of its cached kappa, so a batch never reads state another batch's
// commit patches. Triangles born after construction get side-store slots
// keyed by their sorted vertex triple; TakeKappa re-indexes everything
// onto the base index once the batch's triangle delta is patched into it.
#ifndef NUCLEUS_LOCAL_DYNAMIC_NUCLEUS34_H_
#define NUCLEUS_LOCAL_DYNAMIC_NUCLEUS34_H_

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "src/clique/triangles.h"
#include "src/common/types.h"
#include "src/graph/graph.h"
#include "src/local/dynamic_state.h"

namespace nucleus {

/// Maintains exact (3,4)-nucleus numbers (kappa_4 per triangle) of a
/// mutable simple graph.
class DynamicNucleus34Maintainer {
 public:
  explicit DynamicNucleus34Maintainer(const Graph& g);
  explicit DynamicNucleus34Maintainer(std::size_t n);

  /// Starts from an existing graph whose exact kappa_4 values are already
  /// known (e.g. the session's kappa cache), skipping the internal
  /// decomposition. `tris` becomes the base index and kappa is indexed by
  /// its ids (tombstoned ids of a patched index are never read). Both are
  /// taken by value: the maintainer keeps no reference to the caller's
  /// state. Precondition: kappa.size() == tris.NumTriangles(), the live
  /// triangles of `tris` are exactly the triangles of g, and the values
  /// are the exact kappa_4 of g.
  DynamicNucleus34Maintainer(const Graph& g, TriangleIndex tris,
                             std::vector<Degree> kappa);

  /// Inserts {u, v}; false if present or invalid. Repairs kappa_4.
  bool InsertEdge(VertexId u, VertexId v);

  /// Removes {u, v}; false if absent.
  bool RemoveEdge(VertexId u, VertexId v);

  /// kappa_4 of triangle {u, v, w} (any order); kInvalidClique if absent.
  Degree Nucleus34NumberOf(VertexId u, VertexId v, VertexId w) const;

  std::size_t NumVertices() const { return graph_.NumVertices(); }
  std::size_t NumEdges() const { return graph_.NumEdges(); }
  std::size_t NumTriangles() const { return num_triangles_; }

  /// Triangles recomputed during the last mutation (work measure).
  std::size_t LastRepairWork() const { return last_repair_work_; }

  /// Materializes the current graph (for testing / interop).
  Graph ToGraph() const { return graph_.ToGraph(); }

  /// kappa_4 in TriangleIndex id order of ToGraph(): a fresh index
  /// assigns lexicographic triple order, which is exactly how this
  /// exports (for testing).
  std::vector<Degree> Nucleus34NumbersInIndexOrder() const;

  /// Base ids whose kappa_4 was written since construction (see
  /// KappaStore::ChangedIds); destroyed triangles are written to 0.
  std::span<const CliqueId> ChangedIds() const {
    return kappa_.ChangedIds();
  }

  /// Moves the kappa_4 values out, indexed by `patched`: the base index
  /// after ApplyDelta of the triangle delta of this maintainer's net edge
  /// delta (what a session commit does). Base ids keep their slots,
  /// destroyed triangles holding 0; triangles born since construction land
  /// on the ids `patched` gave them. The maintainer must not be used
  /// afterwards.
  std::vector<Degree> TakeKappa(const TriangleIndex& patched);

 private:
  using Triple = std::array<VertexId, 3>;
  // Id of the triangle {a, b, c} of the working graph: its base id, else
  // its side-store slot.
  CliqueId IdOf(VertexId a, VertexId b, VertexId c) const;
  Triple Vertices(CliqueId t) const;
  // Number of 4-cliques containing the (present) triangle t.
  Degree QuadCount(const Triple& t) const;
  // Calls fn(co) per 4-clique of triangle t with its three other triangle
  // ids.
  template <typename Fn>
  void ForEachFourClique(CliqueId t, Fn&& fn) const;

  WorkingGraph graph_;
  TriangleIndex base_;
  KappaStore<3> kappa_;
  std::size_t num_triangles_ = 0;
  std::size_t last_repair_work_ = 0;
};

}  // namespace nucleus

#endif  // NUCLEUS_LOCAL_DYNAMIC_NUCLEUS34_H_
