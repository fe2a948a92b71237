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
// TriangleIndex (dynamic_state.h). The graph-only constructor builds its
// own base; the session hands each batch a copy of its index and a copy
// of its cached kappa, so a batch never reads state another batch's
// commit patches. Triangles born after construction get side-store slots
// keyed by their sorted vertex triple; TakeKappa re-indexes everything
// onto the base index once the batch's triangle delta is patched into it.
// The adjacency itself is the caller's WorkingGraph, which a session batch
// shares among all three maintainers.
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
/// mutable simple graph. The graph is the caller's: it changes the edge
/// first, then reports the change, and passes the graph to every call
/// that reads adjacency.
class DynamicNucleus34Maintainer {
 public:
  explicit DynamicNucleus34Maintainer(const Graph& g);

  /// Starts from known exact kappa_4 values (e.g. the session's kappa
  /// cache), skipping the decomposition. `tris` becomes the base index and
  /// kappa is indexed by its ids (tombstoned ids of a patched index are
  /// never read). Both are taken by value: the maintainer keeps no
  /// reference to the caller's state. Precondition: kappa.size() ==
  /// tris.NumTriangles(), and the values are the exact kappa_4 of the
  /// graph whose triangles are the live ones of `tris`.
  DynamicNucleus34Maintainer(TriangleIndex tris, std::vector<Degree> kappa);

  /// Repairs kappa_4 after {u, v} was inserted into g.
  void EdgeInserted(const WorkingGraph& g, VertexId u, VertexId v);

  /// Repairs kappa_4 after {u, v} was erased from g.
  void EdgeErased(const WorkingGraph& g, VertexId u, VertexId v);

  /// kappa_4 of triangle {u, v, w} (any order); kInvalidClique if it is
  /// not a triangle of g.
  Degree Nucleus34NumberOf(const WorkingGraph& g, VertexId u, VertexId v,
                           VertexId w) const;

  std::size_t NumTriangles() const { return num_triangles_; }

  /// Triangles recomputed during the last mutation (work measure).
  std::size_t LastRepairWork() const { return last_repair_work_; }

  /// kappa_4 in TriangleIndex id order of g.ToGraph(): a fresh index
  /// assigns lexicographic triple order, which is exactly how this
  /// exports (for testing).
  std::vector<Degree> Nucleus34NumbersInIndexOrder(
      const WorkingGraph& g) const;

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
  // Id of the triangle {a, b, c}: its base id, else its side-store slot.
  CliqueId IdOf(VertexId a, VertexId b, VertexId c) const;
  Triple Vertices(CliqueId t) const;
  // Calls fn(co) per 4-clique of triangle t with its three other triangle
  // ids.
  template <typename Fn>
  void ForEachFourClique(const WorkingGraph& g, CliqueId t, Fn&& fn) const;

  TriangleIndex base_;
  KappaStore<3> kappa_;
  std::size_t num_triangles_ = 0;
  std::size_t last_repair_work_ = 0;
};

}  // namespace nucleus

#endif  // NUCLEUS_LOCAL_DYNAMIC_NUCLEUS34_H_
