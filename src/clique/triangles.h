// Triangle enumeration, per-edge triangle counting, and the triangle index
// that gives triangles dense ids (they are the r-cliques of the (3,4)
// decomposition).
//
// TriangleIndex and EdgeTriangleCsr are *patchable* the same way EdgeIndex
// is: ApplyDelta applies a committed mutation's dead/born triangle sets in
// place (tombstones + appended ids + per-edge overlay lists) so the session
// never pays a full re-enumeration for a small commit. NumTriangles() is
// the id-space size; NumLiveTriangles() counts triangles actually present.
#ifndef NUCLEUS_CLIQUE_TRIANGLES_H_
#define NUCLEUS_CLIQUE_TRIANGLES_H_

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/clique/edge_index.h"
#include "src/common/cancel.h"
#include "src/common/types.h"
#include "src/graph/graph.h"

namespace nucleus {

/// Calls fn(u, v, w) with u < v < w exactly once per triangle. Enumeration
/// is oriented by degree order internally, so total work is
/// O(sum over edges of min-degree) — the standard compact-forward bound.
void ForEachTriangle(const Graph& g,
                     const std::function<void(VertexId, VertexId, VertexId)>&
                         fn);

/// Parallel driver: partitions vertices into <= threads contiguous blocks
/// and calls fn(block, u, v, w) with u < v < w exactly once per triangle,
/// from the block's worker thread. fn must be safe to call concurrently for
/// distinct blocks (e.g. append to per-block buffers, or use atomics).
/// A stoppable `ctl` makes the enumeration abandonable mid-stream: the
/// caller must check ctl.ShouldStop() afterwards and discard the partial
/// output when it reports true.
void ForEachTriangleBlocks(
    const Graph& g, int threads,
    const std::function<void(int, VertexId, VertexId, VertexId)>& fn,
    RunControl ctl = {});

/// Total triangle count (Table 3 statistic). `threads` parallelizes over
/// vertices with per-thread accumulation. A stopped run undercounts; the
/// caller checks ctl.
Count CountTriangles(const Graph& g, int threads = 1, RunControl ctl = {});

/// Per-edge triangle counts indexed by EdgeIndex ids; this is d_3, the
/// initial tau of the (2,3) decomposition. `threads` parallelizes over
/// edges (each edge's count is an independent adjacency intersection).
/// Tombstoned edge ids count 0.
std::vector<Degree> TriangleCountsPerEdge(const Graph& g,
                                          const EdgeIndex& edges,
                                          int threads = 1);

/// Dense ids for triangles, stored as sorted (u < v < w) triples. Pristine
/// ids are in lexicographic order, and a per-vertex offset array (built
/// once, O(n)) gives each lowest vertex its own id range, so lookup is a
/// binary search within that range only; ids patched in by ApplyDelta
/// append past the pristine range and resolve through an overlay hash map
/// (as does any triple whose lowest vertex is past the build-time vertex
/// count).
class TriangleIndex {
 public:
  /// Builds the index with a counting pre-pass (one exact allocation, no
  /// push_back growth); `threads` parallelizes both the count and the fill.
  /// A stoppable `ctl` makes the build abandonable: aborted() then reports
  /// true, the index is empty, and the caller must discard it.
  explicit TriangleIndex(const Graph& g, int threads = 1, RunControl ctl = {});

  /// True when a stoppable build was cancelled / ran out of deadline; the
  /// index holds no triangles and must not be installed or queried.
  bool aborted() const { return aborted_; }

  /// Size of the id space: every id in [0, NumTriangles()) is addressable.
  /// Exceeds NumLiveTriangles() by the tombstones once removals patched in.
  std::size_t NumTriangles() const { return triangles_.size(); }

  /// Number of live (present) triangles.
  std::size_t NumLiveTriangles() const { return num_live_; }

  /// False once triangle t was destroyed by ApplyDelta (until the same
  /// triple is re-created, which revives the id).
  bool IsLive(TriangleId t) const { return dead_.empty() || dead_[t] == 0; }

  /// Tombstoned fraction of the id space; the session's compaction trigger.
  double DeadFraction() const {
    return triangles_.empty()
               ? 0.0
               : static_cast<double>(triangles_.size() - num_live_) /
                     static_cast<double>(triangles_.size());
  }

  /// Vertices of triangle t, ascending. Valid for tombstoned ids too.
  const std::array<VertexId, 3>& Vertices(TriangleId t) const {
    return triangles_[t];
  }

  /// Id of live triangle {u, v, w} (any order), or kInvalidTriangle.
  TriangleId TriangleIdOf(VertexId u, VertexId v, VertexId w) const;

  /// All triangle ids containing edge (u, v): provided via callback to
  /// avoid allocation. Triangles containing an edge share its two vertices,
  /// so they are the common neighbors of u and v. Each hit costs one
  /// intersection step plus an id lookup; build an EdgeTriangleCsr when
  /// querying many edges repeatedly.
  void ForEachTriangleOfEdge(
      const Graph& g, VertexId u, VertexId v,
      const std::function<void(TriangleId, VertexId)>& fn) const;

  /// Applies a committed mutation's triangle delta in place: tombstones
  /// every `dead` triple and assigns ids to every `born` triple (reviving
  /// a tombstone of the same triple, else appending a fresh id). Triples
  /// must be vertex-sorted and deduplicated (delta.h produces both).
  /// Returns the ids assigned to `born`, in order.
  std::vector<TriangleId> ApplyDelta(
      std::span<const std::array<VertexId, 3>> dead,
      std::span<const std::array<VertexId, 3>> born);

 private:
  struct TripleHash {
    std::size_t operator()(const std::array<VertexId, 3>& t) const {
      std::uint64_t h = t[0];
      h = h * 0x9e3779b97f4a7c15ULL ^ t[1];
      h = h * 0x9e3779b97f4a7c15ULL ^ t[2];
      return static_cast<std::size_t>(h ^ (h >> 32));
    }
  };
  // Binary search in key[0]'s pristine range; ignores liveness.
  TriangleId BaseIdOf(const std::array<VertexId, 3>& key) const;

  std::vector<std::array<VertexId, 3>> triangles_;
  std::size_t base_triangles_ = 0;  // triangles_.size() at construction
  // Pristine ids whose lowest vertex is u: [lowest_begin_[u],
  // lowest_begin_[u + 1]); one entry per build-time vertex, plus one.
  std::vector<std::size_t> lowest_begin_;
  bool aborted_ = false;            // stoppable build stopped mid-stream
  // Patch state; all empty until the first ApplyDelta.
  std::vector<std::uint8_t> dead_;
  std::unordered_map<std::array<VertexId, 3>, TriangleId, TripleHash>
      overlay_;
  std::size_t num_live_ = 0;
};

/// Per-edge triangle adjacency materialized as a CSR over edge ids: for
/// each edge, the triangles containing it together with the opposite
/// vertex. Built in two parallel passes over the TriangleIndex; lookups are
/// then a flat scan with no re-intersection and no binary searches.
/// Patchable: ApplyDelta sentinels dead entries in place and appends born
/// entries to per-edge overlay lists.
class EdgeTriangleCsr {
 public:
  /// A stoppable `ctl` makes the build abandonable: aborted() then reports
  /// true and the CSR must be discarded.
  EdgeTriangleCsr(const EdgeIndex& edges, const TriangleIndex& tris,
                  int threads = 1, RunControl ctl = {});

  /// True when a stoppable build was stopped mid-pass.
  bool aborted() const { return aborted_; }

  /// Size of the edge-id space covered (grows when a patch brings new
  /// edge ids).
  std::size_t NumEdges() const { return num_edges_; }

  /// Number of live triangles containing edge e (== d_3[e]; 0 for a
  /// tombstoned edge).
  Degree TriangleCount(EdgeId e) const {
    if (!counts_.empty()) return e < counts_.size() ? counts_[e] : 0;
    return static_cast<Degree>(offsets_[e + 1] - offsets_[e]);
  }

  /// Calls fn(t, w) for every live triangle t containing e, with w the
  /// vertex of t opposite e. Pristine entries come in ascending id order;
  /// patched-in entries follow in patch order.
  template <typename Fn>
  void ForEachTriangleOfEdge(EdgeId e, Fn&& fn) const {
    if (static_cast<std::size_t>(e) + 1 < offsets_.size()) {
      for (std::uint64_t p = offsets_[e]; p < offsets_[e + 1]; ++p) {
        if (entries_[p].first == kInvalidTriangle) continue;  // dead
        fn(entries_[p].first, entries_[p].second);
      }
    }
    if (!overlay_.empty()) {
      const auto it = overlay_.find(e);
      if (it != overlay_.end()) {
        for (const auto& [t, w] : it->second) fn(t, w);
      }
    }
  }

  /// One patched triangle: its id, member edge ids, and per-member
  /// opposite vertex (entry i is the edge not containing vertices[i]'s
  /// opposite — i.e. opposite[i] completes edges[i] into the triangle).
  struct TrianglePatch {
    TriangleId id;
    std::array<EdgeId, 3> edges;
    std::array<VertexId, 3> opposite;
  };

  /// Applies a committed mutation in place: removes `dead` triangles'
  /// entries (sentineled in the pristine region, erased from overlays),
  /// appends `born` triangles' entries, clears the lists of `dead_edges`
  /// wholesale, and grows the edge-id space to `num_edge_ids`.
  void ApplyDelta(std::span<const TrianglePatch> dead,
                  std::span<const TrianglePatch> born,
                  std::span<const EdgeId> dead_edges,
                  std::size_t num_edge_ids);

 private:
  void EnsureCounts();

  std::vector<std::uint64_t> offsets_;
  std::vector<std::pair<TriangleId, VertexId>> entries_;
  std::size_t num_edges_ = 0;
  bool aborted_ = false;
  // Patch state; empty until the first ApplyDelta. counts_ materializes
  // live per-edge counts once offsets_ diffs stop being the truth.
  std::vector<Degree> counts_;
  std::unordered_map<EdgeId, std::vector<std::pair<TriangleId, VertexId>>>
      overlay_;
};

}  // namespace nucleus

#endif  // NUCLEUS_CLIQUE_TRIANGLES_H_
