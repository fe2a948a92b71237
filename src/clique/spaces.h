// The (r,s) "clique spaces": uniform, non-virtual views that let one generic
// engine implement the k-core (1,2), k-truss (2,3) and (3,4)-nucleus
// decompositions. A space knows (a) how many r-cliques exist, (b) their
// initial S-degrees, and (c) how to enumerate, for a given r-clique R, every
// s-clique containing R as the list of R's co-members in that s-clique.
// Following Section 5 of the paper, s-clique participation is computed
// on the fly from adjacency intersections; no r-clique/s-clique hypergraph
// is ever materialized.
//
// The canonical three also report every s-clique once globally, with its
// full member list (ForEachSCliqueMembers): the feeder of the one-pass
// hierarchy build (peel/hierarchy_impl.h).
#ifndef NUCLEUS_CLIQUE_SPACES_H_
#define NUCLEUS_CLIQUE_SPACES_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/clique/edge_index.h"
#include "src/clique/four_cliques.h"
#include "src/clique/intersect.h"
#include "src/clique/triangles.h"
#include "src/common/cancel.h"
#include "src/common/types.h"
#include "src/graph/graph.h"

namespace nucleus {

/// (r=1, s=2): r-cliques are vertices, s-cliques are edges. The co-member of
/// a vertex v in an edge {v, u} is u.
class CoreSpace {
 public:
  explicit CoreSpace(const Graph& g) : g_(&g) {}

  std::size_t NumRCliques() const { return g_->NumVertices(); }

  /// Vertices are never tombstoned (the graph is dense-relabel by
  /// construction), so every id is live.
  std::vector<std::uint8_t> LiveRFlags() const { return {}; }

  /// Single-id form of LiveRFlags for point queries.
  bool IsLiveR(CliqueId) const { return true; }

  /// d_2: vertex degrees.
  std::vector<Degree> InitialDegrees(int threads = 1) const;

  /// Calls fn once per edge containing v with the 1-element co-member list.
  template <typename Fn>
  void ForEachSClique(CliqueId v, Fn&& fn) const {
    for (VertexId u : g_->Neighbors(static_cast<VertexId>(v))) {
      const CliqueId co[1] = {u};
      fn(std::span<const CliqueId>(co, 1));
    }
  }

  /// Calls fn once per edge {u, v}, u < v, with the member list (u, v).
  /// A stoppable `ctl` may abandon the enumeration; the caller checks ctl
  /// afterwards and discards what it collected.
  template <typename Fn>
  void ForEachSCliqueMembers(Fn&& fn, RunControl ctl = {}) const {
    const bool can_stop = ctl.CanStop();
    CheckEvery<64> poll;
    for (VertexId u = 0; u < g_->NumVertices(); ++u) {
      if (can_stop && poll.Due() && ctl.ShouldStop()) return;
      for (VertexId v : g_->Neighbors(u)) {
        if (v <= u) continue;
        const CliqueId members[2] = {u, v};
        fn(std::span<const CliqueId>(members, 2));
      }
    }
  }

  const Graph& graph() const { return *g_; }

 private:
  const Graph* g_;
};

/// (r=2, s=3): r-cliques are edges, s-cliques are triangles. The co-members
/// of edge (u,v) in triangle {u,v,w} are edges (u,w) and (v,w).
class TrussSpace {
 public:
  TrussSpace(const Graph& g, const EdgeIndex& edges)
      : g_(&g), edges_(&edges) {}

  std::size_t NumRCliques() const { return edges_->NumEdges(); }

  /// Liveness of the edge-id range: empty when the index is pristine (all
  /// ids live); per-id flags once removals tombstoned ids. Engines use
  /// this to pin dead ids at kappa 0 and keep them out of peel orders,
  /// level partitions, and hierarchies.
  std::vector<std::uint8_t> LiveRFlags() const {
    if (edges_->NumLiveEdges() == edges_->NumEdges()) return {};
    std::vector<std::uint8_t> live(edges_->NumEdges());
    for (EdgeId e = 0; e < edges_->NumEdges(); ++e) {
      live[e] = edges_->IsLive(e) ? 1 : 0;
    }
    return live;
  }

  /// Single-id form of LiveRFlags for point queries (O(1)).
  bool IsLiveR(CliqueId r) const {
    return edges_->IsLive(static_cast<EdgeId>(r));
  }

  /// d_3: triangle counts per edge.
  std::vector<Degree> InitialDegrees(int threads = 1) const;

  template <typename Fn>
  void ForEachSClique(CliqueId e, Fn&& fn) const {
    // Tombstoned ids of a patched index name absent edges: no triangles.
    if (!edges_->IsLive(static_cast<EdgeId>(e))) return;
    const auto [u, v] = edges_->Endpoints(static_cast<EdgeId>(e));
    ForEachCommon(g_->Neighbors(u), g_->Neighbors(v), [&](VertexId w) {
      const CliqueId co[2] = {edges_->EdgeIdOf(u, w), edges_->EdgeIdOf(v, w)};
      fn(std::span<const CliqueId>(co, 2));
    });
  }

  /// Calls fn once per triangle with its three edge ids: one oriented
  /// triangle enumeration plus three id lookups per triangle. A stoppable
  /// `ctl` may abandon the enumeration; the caller checks ctl afterwards.
  template <typename Fn>
  void ForEachSCliqueMembers(Fn&& fn, RunControl ctl = {}) const {
    ForEachTriangleBlocks(
        *g_, 1,
        [&](int, VertexId u, VertexId v, VertexId w) {
          const CliqueId members[3] = {edges_->EdgeIdOf(u, v),
                                       edges_->EdgeIdOf(u, w),
                                       edges_->EdgeIdOf(v, w)};
          fn(std::span<const CliqueId>(members, 3));
        },
        ctl);
  }

  const Graph& graph() const { return *g_; }
  const EdgeIndex& edges() const { return *edges_; }

 private:
  const Graph* g_;
  const EdgeIndex* edges_;
};

/// (r=3, s=4): r-cliques are triangles, s-cliques are 4-cliques. The
/// co-members of triangle {u,v,w} in 4-clique {u,v,w,x} are the triangles
/// {u,v,x}, {u,w,x}, {v,w,x}.
class Nucleus34Space {
 public:
  Nucleus34Space(const Graph& g, const TriangleIndex& tris)
      : g_(&g), tris_(&tris) {}

  std::size_t NumRCliques() const { return tris_->NumTriangles(); }

  /// Liveness of the triangle-id range; empty when the index is pristine.
  std::vector<std::uint8_t> LiveRFlags() const {
    if (tris_->NumLiveTriangles() == tris_->NumTriangles()) return {};
    std::vector<std::uint8_t> live(tris_->NumTriangles());
    for (TriangleId t = 0; t < tris_->NumTriangles(); ++t) {
      live[t] = tris_->IsLive(t) ? 1 : 0;
    }
    return live;
  }

  /// Single-id form of LiveRFlags for point queries (O(1)).
  bool IsLiveR(CliqueId r) const {
    return tris_->IsLive(static_cast<TriangleId>(r));
  }

  /// d_4: 4-clique counts per triangle.
  std::vector<Degree> InitialDegrees(int threads = 1) const;

  template <typename Fn>
  void ForEachSClique(CliqueId t, Fn&& fn) const {
    // Tombstoned ids of a patched index name absent triangles: no K4s.
    if (!tris_->IsLive(static_cast<TriangleId>(t))) return;
    const auto& tri = tris_->Vertices(static_cast<TriangleId>(t));
    ForEachCommon3(g_->Neighbors(tri[0]), g_->Neighbors(tri[1]),
                   g_->Neighbors(tri[2]), [&](VertexId x) {
                     const CliqueId co[3] = {
                         tris_->TriangleIdOf(tri[0], tri[1], x),
                         tris_->TriangleIdOf(tri[0], tri[2], x),
                         tris_->TriangleIdOf(tri[1], tri[2], x)};
                     fn(std::span<const CliqueId>(co, 3));
                   });
  }

  /// Calls fn once per 4-clique with its four triangle ids: one oriented
  /// 4-clique enumeration plus four id lookups per 4-clique. A stoppable
  /// `ctl` may abandon the enumeration; the caller checks ctl afterwards.
  template <typename Fn>
  void ForEachSCliqueMembers(Fn&& fn, RunControl ctl = {}) const {
    ForEachFourCliqueBlocks(
        *g_, 1,
        [&](int, VertexId a, VertexId b, VertexId c, VertexId d) {
          const CliqueId members[4] = {tris_->TriangleIdOf(a, b, c),
                                       tris_->TriangleIdOf(a, b, d),
                                       tris_->TriangleIdOf(a, c, d),
                                       tris_->TriangleIdOf(b, c, d)};
          fn(std::span<const CliqueId>(members, 4));
        },
        ctl);
  }

  const Graph& graph() const { return *g_; }
  const TriangleIndex& triangles() const { return *tris_; }

 private:
  const Graph* g_;
  const TriangleIndex* tris_;
};

}  // namespace nucleus

#endif  // NUCLEUS_CLIQUE_SPACES_H_
