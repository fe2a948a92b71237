// Incremental k-truss maintenance under edge insertions/deletions,
// companion to DynamicCoreMaintainer (dynamic.h). Same recipe: after a
// mutation, rebuild a certified upper bound of the new truss numbers, then
// run the local h-index repair to the fixed point.
//
// Upper-bound construction for insertion of e0 = {u,v} relies on the
// classical single-edge k-truss update bound (truss numbers change by at
// most 1) plus a reachability argument: an edge f with old truss m can
// only rise to m+1 if it is triangle-connected to e0 through edges of old
// truss m (KappaStore::Risers), and m < d3(e0). We therefore bump exactly
// the edges found by a per-level triangle-BFS from e0 that expands through
// such edges only, and repair from there. Deletion needs
// no theorem: old values are upper bounds, clamped at the seeds.
// Exactness of the repaired values follows from the fixed-point sandwich
// (see dynamic.h) and is asserted against full recomputation in
// dynamic_truss_test.cc over hundreds of random mutations.
//
// State: truss numbers live in an id-indexed vector over a base EdgeIndex
// (dynamic_state.h). The graph-only constructor builds its own base; the
// session hands each batch a copy of its index and a copy of its cached
// kappa, so a batch never reads state another batch's commit patches.
// Edges born after construction get side-store slots keyed by their
// endpoint pair; TakeKappa re-indexes everything onto the base index once
// the batch's net delta is patched into it. The adjacency itself is the
// caller's WorkingGraph, which a session batch shares among all three
// maintainers.
#ifndef NUCLEUS_LOCAL_DYNAMIC_TRUSS_H_
#define NUCLEUS_LOCAL_DYNAMIC_TRUSS_H_

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "src/clique/edge_index.h"
#include "src/common/types.h"
#include "src/graph/graph.h"
#include "src/local/dynamic_state.h"

namespace nucleus {

/// Maintains exact truss numbers of a mutable simple graph. The graph is
/// the caller's: it changes the edge first, then reports the change, and
/// passes the graph to every call that reads adjacency.
class DynamicTrussMaintainer {
 public:
  explicit DynamicTrussMaintainer(const Graph& g);

  /// Starts from an existing graph whose exact truss numbers are already
  /// known (e.g. the session's kappa cache), skipping the internal
  /// decomposition. `edges` becomes the base index and kappa is indexed by
  /// its ids (tombstoned ids of a patched index are never read). Both are
  /// taken by value: the maintainer keeps no reference to the caller's
  /// state. Precondition: kappa.size() == edges.NumEdges(), the live edges
  /// of `edges` are exactly the edges of g, and the values are the exact
  /// truss numbers of g.
  DynamicTrussMaintainer(const Graph& g, EdgeIndex edges,
                         std::vector<Degree> kappa);

  /// Repairs truss numbers after {u, v} was inserted into g.
  void EdgeInserted(const WorkingGraph& g, VertexId u, VertexId v);

  /// Repairs truss numbers after {u, v} was erased from g.
  void EdgeErased(const WorkingGraph& g, VertexId u, VertexId v);

  /// Truss number of {u, v}; kInvalidClique if the edge is absent from g.
  Degree TrussNumberOf(const WorkingGraph& g, VertexId u, VertexId v) const;

  /// Edges recomputed during the last mutation (work measure).
  std::size_t LastRepairWork() const { return last_repair_work_; }

  /// Truss numbers in EdgeIndex id order of g.ToGraph() (for testing).
  std::vector<Degree> TrussNumbersInIndexOrder(const WorkingGraph& g) const;

  /// Base ids whose truss number was written since construction (see
  /// KappaStore::ChangedIds); removed edges are written to 0.
  std::span<const CliqueId> ChangedIds() const {
    return kappa_.ChangedIds();
  }

  /// Moves the truss numbers out, indexed by `patched`: the base index
  /// after ApplyDelta of this maintainer's net edge delta (what a session
  /// commit does). Base ids keep their slots, removed edges holding 0;
  /// edges born since construction land on the ids `patched` gave them.
  /// The maintainer must not be used afterwards.
  std::vector<Degree> TakeKappa(const EdgeIndex& patched);

 private:
  using Pair = std::array<VertexId, 2>;
  // Id of the edge {u, v}: its base id, else its side-store slot.
  // Traversals read ids off edge_ids_ instead.
  CliqueId IdOf(VertexId u, VertexId v) const;
  // Fills edge_ids_ for g with one transpose pass.
  void BuildEdgeIds(const Graph& g);
  Pair Endpoints(CliqueId e) const;
  // Calls fn(co) per triangle of edge e with its two other edge ids.
  template <typename Fn>
  void ForEachTriangle(const WorkingGraph& g, CliqueId e, Fn&& fn) const;

  EdgeIndex base_;
  KappaStore<2> kappa_;
  // edge_ids_[v][i] is the id of edge {v, g.Neighbors(v)[i]}, kept in step
  // with the graph the mutations are reported against, so a triangle's
  // co-edge ids come out of the neighbor-list merge that finds it, with no
  // lookup.
  std::vector<std::vector<CliqueId>> edge_ids_;
  std::size_t last_repair_work_ = 0;
};

}  // namespace nucleus

#endif  // NUCLEUS_LOCAL_DYNAMIC_TRUSS_H_
