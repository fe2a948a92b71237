#include "src/clique/triangles.h"

#include <algorithm>
#include <cassert>

#include "src/clique/intersect.h"
#include "src/common/parallel.h"
#include "src/graph/ordering.h"

namespace nucleus {

namespace {

// Branchless ascending sort of a 3-vertex key: min/max compile to
// conditional moves and the XOR identity recovers the middle element, so
// per-lookup cost has no data-dependent branches (the old std::sort did).
inline std::array<VertexId, 3> SortedTriple(VertexId u, VertexId v,
                                            VertexId w) {
  const VertexId lo = std::min(std::min(u, v), w);
  const VertexId hi = std::max(std::max(u, v), w);
  const VertexId mid = u ^ v ^ w ^ lo ^ hi;
  return {lo, mid, hi};
}

// Shared blocked driver: calls fn(block, a, b, c) once per triangle with
// vertices in rank order (NOT id order); blocks partition the vertex range.
// A stoppable ctl is polled once per few source vertices; on stop every
// block abandons its remaining range (output is partial — callers check
// ctl afterwards and discard).
template <typename Fn>
void BlockedTriangles(const Graph& g, const OrientedGraph& oriented,
                      int threads, Fn&& fn, RunControl ctl = {}) {
  const bool can_stop = ctl.CanStop();
  AbortFlag abort;
  ParallelBlocks(g.NumVertices(), threads,
                 [&](int block, std::size_t begin, std::size_t end) {
                   CheckEvery<16> poll;
                   for (std::size_t v = begin; v < end; ++v) {
                     if (can_stop && poll.Due() && PollStop(ctl, abort)) {
                       return;
                     }
                     const auto out_v =
                         oriented.OutNeighbors(static_cast<VertexId>(v));
                     for (std::size_t i = 0; i < out_v.size(); ++i) {
                       const VertexId w = out_v[i];
                       ForEachCommon(out_v, oriented.OutNeighbors(w),
                                     [&](VertexId x) {
                                       fn(block, static_cast<VertexId>(v), w,
                                          x);
                                     });
                     }
                   }
                 });
}

}  // namespace

void ForEachTriangle(
    const Graph& g,
    const std::function<void(VertexId, VertexId, VertexId)>& fn) {
  const auto ranks = DegreeOrderRanks(g);
  const OrientedGraph oriented(g, ranks);
  BlockedTriangles(g, oriented, 1,
                   [&](int, VertexId a, VertexId b, VertexId c) {
                     const auto t = SortedTriple(a, b, c);
                     fn(t[0], t[1], t[2]);
                   });
}

void ForEachTriangleBlocks(
    const Graph& g, int threads,
    const std::function<void(int, VertexId, VertexId, VertexId)>& fn,
    RunControl ctl) {
  const auto ranks = DegreeOrderRanks(g);
  const OrientedGraph oriented(g, ranks);
  BlockedTriangles(
      g, oriented, threads,
      [&](int block, VertexId a, VertexId b, VertexId c) {
        const auto t = SortedTriple(a, b, c);
        fn(block, t[0], t[1], t[2]);
      },
      ctl);
}

Count CountTriangles(const Graph& g, int threads, RunControl ctl) {
  const auto ranks = DegreeOrderRanks(g);
  const OrientedGraph oriented(g, ranks);
  const int t = threads <= 1 ? 1 : threads;
  std::vector<Count> partial(t, 0);
  BlockedTriangles(
      g, oriented, t,
      [&](int block, VertexId, VertexId, VertexId) { ++partial[block]; },
      ctl);
  Count total = 0;
  for (Count c : partial) total += c;
  return total;
}

std::vector<Degree> TriangleCountsPerEdge(const Graph& g,
                                          const EdgeIndex& edges,
                                          int threads) {
  std::vector<Degree> counts(edges.NumEdges(), 0);
  ParallelFor(edges.NumEdges(), threads, [&](std::size_t e) {
    if (!edges.IsLive(static_cast<EdgeId>(e))) return;  // tombstone: d_3 = 0
    const auto [u, v] = edges.Endpoints(static_cast<EdgeId>(e));
    counts[e] =
        static_cast<Degree>(CountCommon(g.Neighbors(u), g.Neighbors(v)));
  });
  return counts;
}

TriangleIndex::TriangleIndex(const Graph& g, int threads, RunControl ctl) {
  const auto ranks = DegreeOrderRanks(g);
  const OrientedGraph oriented(g, ranks);
  const int t = threads <= 1 ? 1 : threads;
  // Counting pre-pass: exact per-block totals, so the triple array is
  // allocated once at its final size (the old ctor grew a vector through
  // repeated reallocation).
  std::vector<std::size_t> block_count(t, 0);
  BlockedTriangles(
      g, oriented, t,
      [&](int block, VertexId, VertexId, VertexId) { ++block_count[block]; },
      ctl);
  if (ctl.CanStop() && ctl.ShouldStop()) {
    aborted_ = true;
    return;
  }
  std::vector<std::size_t> block_offset(t + 1, 0);
  for (int b = 0; b < t; ++b) {
    block_offset[b + 1] = block_offset[b] + block_count[b];
  }
  triangles_.resize(block_offset[t]);
  // Fill pass: ParallelBlocks partitions deterministically for fixed (n,
  // threads), so each block writes exactly its counted slice.
  std::vector<std::size_t> cursor(block_offset.begin(),
                                  block_offset.end() - 1);
  BlockedTriangles(
      g, oriented, t,
      [&](int block, VertexId a, VertexId b, VertexId c) {
        triangles_[cursor[block]++] = SortedTriple(a, b, c);
      },
      ctl);
  if (ctl.CanStop() && ctl.ShouldStop()) {
    triangles_.clear();
    aborted_ = true;
    return;
  }
  std::sort(triangles_.begin(), triangles_.end());
  base_triangles_ = triangles_.size();
  num_live_ = triangles_.size();
  lowest_begin_.assign(g.NumVertices() + 1, 0);
  for (const auto& tri : triangles_) ++lowest_begin_[tri[0] + 1];
  for (std::size_t u = 0; u < g.NumVertices(); ++u) {
    lowest_begin_[u + 1] += lowest_begin_[u];
  }
}

TriangleId TriangleIndex::BaseIdOf(
    const std::array<VertexId, 3>& key) const {
  // A lowest vertex past the build-time vertices has no pristine range.
  const std::size_t u = key[0];
  if (u + 1 >= lowest_begin_.size()) return kInvalidTriangle;
  const auto begin =
      triangles_.begin() + static_cast<std::ptrdiff_t>(lowest_begin_[u]);
  const auto end =
      triangles_.begin() + static_cast<std::ptrdiff_t>(lowest_begin_[u + 1]);
  const auto it = std::lower_bound(begin, end, key);
  if (it == end || *it != key) return kInvalidTriangle;
  return static_cast<TriangleId>(it - triangles_.begin());
}

TriangleId TriangleIndex::TriangleIdOf(VertexId u, VertexId v,
                                       VertexId w) const {
  const std::array<VertexId, 3> key = SortedTriple(u, v, w);
  const TriangleId base = BaseIdOf(key);
  if (base != kInvalidTriangle) {
    return IsLive(base) ? base : kInvalidTriangle;
  }
  if (!overlay_.empty()) {
    const auto it = overlay_.find(key);
    if (it != overlay_.end() && IsLive(it->second)) return it->second;
  }
  return kInvalidTriangle;
}

std::vector<TriangleId> TriangleIndex::ApplyDelta(
    std::span<const std::array<VertexId, 3>> dead,
    std::span<const std::array<VertexId, 3>> born) {
  if (dead_.empty()) dead_.assign(triangles_.size(), 0);
  for (const auto& key : dead) {
    TriangleId id = BaseIdOf(key);
    if (id == kInvalidTriangle) {
      const auto it = overlay_.find(key);
      assert(it != overlay_.end() && "dead triangle has no id");
      id = it->second;
    }
    assert(dead_[id] == 0 && "dead triangle already tombstoned");
    dead_[id] = 1;
    --num_live_;
  }
  std::vector<TriangleId> ids;
  ids.reserve(born.size());
  for (const auto& key : born) {
    TriangleId id = BaseIdOf(key);
    if (id == kInvalidTriangle) {
      const auto it = overlay_.find(key);
      if (it != overlay_.end()) {
        id = it->second;  // revive a patched-in triple's tombstone
      } else {
        id = static_cast<TriangleId>(triangles_.size());
        triangles_.push_back(key);
        dead_.push_back(1);  // flipped live below
        overlay_.emplace(key, id);
      }
    }
    assert(dead_[id] == 1 && "born triangle already live");
    dead_[id] = 0;
    ++num_live_;
    ids.push_back(id);
  }
  return ids;
}

}  // namespace nucleus
