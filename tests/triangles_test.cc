#include "src/clique/triangles.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <vector>

#include "src/graph/builder.h"
#include "src/graph/generators.h"

namespace nucleus {
namespace {

// O(n^3) reference triangle count.
Count NaiveTriangleCount(const Graph& g) {
  Count c = 0;
  const std::size_t n = g.NumVertices();
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) {
      if (!g.HasEdge(u, v)) continue;
      for (VertexId w = v + 1; w < n; ++w) {
        if (g.HasEdge(u, w) && g.HasEdge(v, w)) ++c;
      }
    }
  }
  return c;
}

TEST(Triangles, CompleteGraphCount) {
  EXPECT_EQ(CountTriangles(GenerateComplete(5)), 10u);   // C(5,3)
  EXPECT_EQ(CountTriangles(GenerateComplete(10)), 120u); // C(10,3)
}

TEST(Triangles, TriangleFreeGraphs) {
  EXPECT_EQ(CountTriangles(GenerateCompleteBipartite(5, 5)), 0u);
  EXPECT_EQ(CountTriangles(GenerateGrid(5, 5)), 0u);
  EXPECT_EQ(CountTriangles(GeneratePath(10)), 0u);
  EXPECT_EQ(CountTriangles(GenerateStar(10)), 0u);
}

TEST(Triangles, MatchesNaiveOnRandomGraphs) {
  for (int seed = 0; seed < 5; ++seed) {
    const Graph g = GenerateErdosRenyi(25, 90, seed);
    EXPECT_EQ(CountTriangles(g), NaiveTriangleCount(g)) << "seed " << seed;
  }
}

TEST(Triangles, ForEachEnumeratesEachOnceSorted) {
  const Graph g = GenerateErdosRenyi(20, 70, 3);
  std::set<std::array<VertexId, 3>> seen;
  ForEachTriangle(g, [&](VertexId u, VertexId v, VertexId w) {
    EXPECT_LT(u, v);
    EXPECT_LT(v, w);
    EXPECT_TRUE(g.HasEdge(u, v));
    EXPECT_TRUE(g.HasEdge(u, w));
    EXPECT_TRUE(g.HasEdge(v, w));
    const auto [it, inserted] = seen.insert({u, v, w});
    EXPECT_TRUE(inserted) << "duplicate triangle";
  });
  EXPECT_EQ(seen.size(), CountTriangles(g));
}

TEST(Triangles, PerEdgeCountsSumToThreeTimesTotal) {
  const Graph g = GenerateBarabasiAlbert(100, 4, 9);
  const EdgeIndex idx(g);
  const auto counts = TriangleCountsPerEdge(g, idx);
  Count sum = 0;
  for (Degree c : counts) sum += c;
  EXPECT_EQ(sum, 3 * CountTriangles(g));
}

TEST(Triangles, PerEdgeCountsParallelMatchSequential) {
  const Graph g = GenerateErdosRenyi(60, 250, 11);
  const EdgeIndex idx(g);
  EXPECT_EQ(TriangleCountsPerEdge(g, idx, 1),
            TriangleCountsPerEdge(g, idx, 4));
}

TEST(Triangles, PerEdgeCountExamples) {
  // K4 minus one edge: the remaining "diagonal" edge is in 2 triangles.
  const Graph g =
      BuildGraphFromEdges(4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}});
  const EdgeIndex idx(g);
  const auto counts = TriangleCountsPerEdge(g, idx);
  EXPECT_EQ(counts[idx.EdgeIdOf(0, 1)], 2u);
  EXPECT_EQ(counts[idx.EdgeIdOf(0, 2)], 1u);
  EXPECT_EQ(counts[idx.EdgeIdOf(2, 1)], 1u);
}

TEST(TriangleIndex, IdsAreSortedTriples) {
  const Graph g = GenerateErdosRenyi(25, 90, 2);
  const TriangleIndex tris(g);
  EXPECT_EQ(tris.NumTriangles(), CountTriangles(g));
  for (TriangleId t = 0; t + 1 < tris.NumTriangles(); ++t) {
    EXPECT_LT(tris.Vertices(t), tris.Vertices(t + 1));
  }
}

TEST(TriangleIndex, LookupRoundTrip) {
  const Graph g = GenerateBarabasiAlbert(60, 4, 3);
  const TriangleIndex tris(g);
  for (TriangleId t = 0; t < tris.NumTriangles(); ++t) {
    const auto& v = tris.Vertices(t);
    EXPECT_EQ(tris.TriangleIdOf(v[0], v[1], v[2]), t);
    EXPECT_EQ(tris.TriangleIdOf(v[2], v[0], v[1]), t);  // any order
  }
}

TEST(TriangleIndex, MissingTriangleInvalid) {
  const Graph g = GenerateCycle(6);
  const TriangleIndex tris(g);
  EXPECT_EQ(tris.NumTriangles(), 0u);
  EXPECT_EQ(tris.TriangleIdOf(0, 1, 2), kInvalidTriangle);
}

TEST(TriangleIndex, ParallelBuildMatchesSerial) {
  const Graph g = GenerateBarabasiAlbert(200, 5, 11);
  const TriangleIndex serial(g, 1);
  const TriangleIndex parallel(g, 4);
  ASSERT_EQ(parallel.NumTriangles(), serial.NumTriangles());
  for (TriangleId t = 0; t < serial.NumTriangles(); ++t) {
    EXPECT_EQ(parallel.Vertices(t), serial.Vertices(t));
  }
}

TEST(CountTriangles, ParallelMatchesSerial) {
  const Graph g = GenerateBarabasiAlbert(300, 4, 17);
  EXPECT_EQ(CountTriangles(g, 4), CountTriangles(g));
}

TEST(ForEachTriangleBlocks, CoversEveryTriangleOnce) {
  const Graph g = GenerateBarabasiAlbert(150, 4, 19);
  std::vector<std::array<VertexId, 3>> serial;
  ForEachTriangle(g, [&](VertexId u, VertexId v, VertexId w) {
    serial.push_back({u, v, w});
  });
  std::sort(serial.begin(), serial.end());
  const int threads = 4;
  std::vector<std::vector<std::array<VertexId, 3>>> parts(threads);
  ForEachTriangleBlocks(g, threads,
                        [&](int b, VertexId u, VertexId v, VertexId w) {
                          EXPECT_LT(u, v);
                          EXPECT_LT(v, w);
                          parts[b].push_back({u, v, w});
                        });
  std::vector<std::array<VertexId, 3>> merged;
  for (const auto& p : parts) merged.insert(merged.end(), p.begin(), p.end());
  std::sort(merged.begin(), merged.end());
  EXPECT_EQ(merged, serial);
}

TEST(TriangleIndex, ApplyDeltaTombstonesAppendsAndRevives) {
  // Two triangles sharing edge (1,2): {0,1,2} and {1,2,3}.
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  b.AddEdge(1, 2);
  b.AddEdge(1, 3);
  b.AddEdge(2, 3);
  TriangleIndex tris(b.Build());
  ASSERT_EQ(tris.NumTriangles(), 2u);
  const TriangleId t012 = tris.TriangleIdOf(0, 1, 2);
  // Kill {0,1,2}, birth {0,2,3} (as if edges (0,1) removed, (0,3) added).
  const std::vector<std::array<VertexId, 3>> dead = {{0, 1, 2}};
  const std::vector<std::array<VertexId, 3>> born = {{0, 2, 3}};
  const auto ids = tris.ApplyDelta(dead, born);
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids[0], 2u);  // appended past the pristine range
  EXPECT_EQ(tris.NumTriangles(), 3u);
  EXPECT_EQ(tris.NumLiveTriangles(), 2u);
  EXPECT_FALSE(tris.IsLive(t012));
  EXPECT_EQ(tris.TriangleIdOf(2, 0, 1), kInvalidTriangle);
  EXPECT_EQ(tris.TriangleIdOf(3, 2, 0), ids[0]);
  EXPECT_EQ(tris.TriangleIdOf(1, 2, 3), tris.TriangleIdOf(3, 1, 2));
  // Revive the pristine tombstone and tombstone the appended id.
  const auto ids2 = tris.ApplyDelta(born, dead);
  EXPECT_EQ(ids2[0], t012);  // revived, not re-appended
  EXPECT_EQ(tris.NumTriangles(), 3u);
  EXPECT_EQ(tris.NumLiveTriangles(), 2u);
  EXPECT_FALSE(tris.IsLive(2));
  EXPECT_TRUE(tris.IsLive(t012));
}

// ---------------------------------------------------------------------------
// Localized lookup: TriangleIdOf searches only the lowest vertex's pristine
// range. Every answer must agree with a linear scan of the id space.

// Live id of the sorted triple by linear scan, or kInvalidTriangle.
TriangleId LinearIdOf(const TriangleIndex& tris, std::array<VertexId, 3> t) {
  std::sort(t.begin(), t.end());
  for (TriangleId id = 0; id < tris.NumTriangles(); ++id) {
    if (tris.Vertices(id) == t) {
      return tris.IsLive(id) ? id : kInvalidTriangle;
    }
  }
  return kInvalidTriangle;
}

// Every vertex triple of a small graph, in every argument order, against
// the linear scan: present triangles resolve to their id, all other
// triples (including those with vertices past the graph) to invalid.
void ExpectLookupsMatchLinearScan(const TriangleIndex& tris, VertexId n) {
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) {
      for (VertexId w = v + 1; w < n; ++w) {
        const TriangleId want = LinearIdOf(tris, {u, v, w});
        ASSERT_EQ(tris.TriangleIdOf(u, v, w), want)
            << u << " " << v << " " << w;
        ASSERT_EQ(tris.TriangleIdOf(w, u, v), want);
        ASSERT_EQ(tris.TriangleIdOf(v, w, u), want);
        ASSERT_EQ(tris.TriangleIdOf(w, v, u), want);
      }
    }
  }
}

TEST(TriangleIndex, LocalizedLookupMatchesLinearScan) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Graph g = GenerateErdosRenyi(22, 110, seed);
    const TriangleIndex tris(g, 2);
    // Every triple of the index resolves to its own id.
    for (TriangleId t = 0; t < tris.NumTriangles(); ++t) {
      const auto& v = tris.Vertices(t);
      ASSERT_EQ(tris.TriangleIdOf(v[0], v[1], v[2]), t);
    }
    // Two vertices past the graph: lowest vertices beyond the offsets.
    ExpectLookupsMatchLinearScan(tris, 24);
  }
}

TEST(TriangleIndex, LowestVertexPastBuildTimeVerticesResolvesThroughOverlay) {
  // Built over 5 vertices; the patch brings triples whose lowest vertex is
  // at or past 5 (the id space grew past the build-time vertex count), and
  // one that mixes a pristine lowest vertex with new vertices.
  const Graph g = GenerateComplete(5);
  TriangleIndex tris(g);
  const std::size_t base = tris.NumTriangles();
  const std::vector<std::array<VertexId, 3>> born = {
      {5, 6, 7}, {6, 8, 9}, {0, 5, 6}, {4, 7, 9}};
  const auto ids = tris.ApplyDelta({}, born);
  ASSERT_EQ(ids.size(), born.size());
  for (std::size_t i = 0; i < born.size(); ++i) {
    EXPECT_EQ(ids[i], base + i);
    EXPECT_EQ(tris.TriangleIdOf(born[i][2], born[i][0], born[i][1]), ids[i]);
  }
  EXPECT_EQ(tris.TriangleIdOf(5, 6, 8), kInvalidTriangle);
  EXPECT_EQ(tris.TriangleIdOf(7, 8, 9), kInvalidTriangle);
  ExpectLookupsMatchLinearScan(tris, 11);
  // Tombstone two patched-in triples, then revive one: same id comes back.
  const std::vector<std::array<VertexId, 3>> dead = {born[0], born[2]};
  tris.ApplyDelta(dead, {});
  EXPECT_EQ(tris.TriangleIdOf(5, 6, 7), kInvalidTriangle);
  EXPECT_EQ(tris.TriangleIdOf(0, 5, 6), kInvalidTriangle);
  ExpectLookupsMatchLinearScan(tris, 11);
  const std::vector<std::array<VertexId, 3>> revive = {born[0]};
  EXPECT_EQ(tris.ApplyDelta({}, revive), std::vector<TriangleId>{ids[0]});
  EXPECT_EQ(tris.TriangleIdOf(7, 6, 5), ids[0]);
  ExpectLookupsMatchLinearScan(tris, 11);
}

TEST(TriangleIndex, TombstonedAndRevivedPristineTriplesLookUp) {
  const Graph g = GenerateErdosRenyi(20, 90, 7);
  TriangleIndex tris(g);
  ASSERT_GE(tris.NumTriangles(), 6u);
  // Tombstone every third pristine triple, including the first and last
  // of the id range (range boundaries of the per-vertex offsets).
  std::vector<std::array<VertexId, 3>> dead;
  for (TriangleId t = 0; t < tris.NumTriangles(); t += 3) {
    dead.push_back(tris.Vertices(t));
  }
  dead.push_back(
      tris.Vertices(static_cast<TriangleId>(tris.NumTriangles() - 1)));
  std::sort(dead.begin(), dead.end());
  dead.erase(std::unique(dead.begin(), dead.end()), dead.end());
  tris.ApplyDelta(dead, {});
  for (const auto& t : dead) {
    EXPECT_EQ(tris.TriangleIdOf(t[0], t[1], t[2]), kInvalidTriangle);
  }
  ExpectLookupsMatchLinearScan(tris, 20);
  // Revived pristine triples keep their original (sorted-order) ids.
  const auto ids = tris.ApplyDelta({}, dead);
  for (std::size_t i = 0; i < dead.size(); ++i) {
    EXPECT_EQ(tris.Vertices(ids[i]), dead[i]);
    EXPECT_EQ(tris.TriangleIdOf(dead[i][1], dead[i][2], dead[i][0]), ids[i]);
  }
  ExpectLookupsMatchLinearScan(tris, 20);
}

}  // namespace
}  // namespace nucleus
