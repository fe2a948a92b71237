// Triangle enumeration, per-edge triangle counting, and the triangle index
// that gives triangles dense ids (they are the r-cliques of the (3,4)
// decomposition).
//
// TriangleIndex is *patchable* the same way EdgeIndex is: ApplyDelta
// applies a committed mutation's dead/born triangle sets in place
// (tombstones + appended ids + an overlay lookup) so the session never pays
// a full re-enumeration for a small commit. NumTriangles() is the id-space
// size; NumLiveTriangles() counts triangles actually present.
#ifndef NUCLEUS_CLIQUE_TRIANGLES_H_
#define NUCLEUS_CLIQUE_TRIANGLES_H_

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
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

}  // namespace nucleus

#endif  // NUCLEUS_CLIQUE_TRIANGLES_H_
