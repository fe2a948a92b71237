#include "src/local/dynamic_nucleus34.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <utility>
#include <vector>

#include "src/clique/delta.h"
#include "src/clique/intersect.h"
#include "src/clique/triangles.h"
#include "src/common/rng.h"
#include "src/graph/builder.h"
#include "src/graph/generators.h"
#include "src/peel/nucleus34.h"
#include "tests/testlib/maintained_graph.h"

namespace nucleus {
namespace {

// The (3,4) maintainer over its own working graph.
class N34 : public testlib::MaintainedGraph<DynamicNucleus34Maintainer> {
 public:
  using MaintainedGraph::MaintainedGraph;
  std::vector<Degree> Nucleus34NumbersInIndexOrder() const {
    return maintainer().Nucleus34NumbersInIndexOrder(graph());
  }
  Degree Nucleus34NumberOf(VertexId u, VertexId v, VertexId w) const {
    return maintainer().Nucleus34NumberOf(graph(), u, v, w);
  }
  std::size_t NumTriangles() const { return maintainer().NumTriangles(); }
};

std::vector<Degree> Recompute(const Graph& g) {
  const TriangleIndex tris(g);
  return Nucleus34Numbers(g, tris);
}

TEST(DynamicNucleus34, StartsFromExactNucleusNumbers) {
  const Graph g = GenerateErdosRenyi(25, 130, 1);
  N34 m(g);
  EXPECT_EQ(m.Nucleus34NumbersInIndexOrder(), Recompute(g));
  EXPECT_EQ(m.NumEdges(), g.NumEdges());
  EXPECT_EQ(m.NumTriangles(), TriangleIndex(g).NumTriangles());
}

TEST(DynamicNucleus34, PrecomputedKappaCtorSkipsDecomposition) {
  const Graph g = GenerateErdosRenyi(25, 130, 2);
  const TriangleIndex tris(g);
  const auto kappa = Nucleus34Numbers(g, tris);
  N34 m(g, DynamicNucleus34Maintainer(tris, kappa));
  EXPECT_EQ(m.Nucleus34NumbersInIndexOrder(), kappa);
  // Mutations repair correctly from the seeded state.
  VertexId free_v = 1;
  while (g.HasEdge(0, free_v)) ++free_v;
  ASSERT_TRUE(m.InsertEdge(0, free_v));
  ASSERT_TRUE(m.RemoveEdge(g.Neighbors(0)[0], 0));
  EXPECT_EQ(m.Nucleus34NumbersInIndexOrder(), Recompute(m.ToGraph()));
}

TEST(DynamicNucleus34, PrecomputedKappaCtorIgnoresTombstonedIds) {
  // Seed through a patched index: remove an edge (and its triangles) from
  // the graph, tombstone the dead triangle ids; the maintainer must see
  // only the live triangles.
  const Graph g0 = GeneratePlantedPartition(2, 8, 0.9, 0.2, 3);
  TriangleIndex tris(g0);
  const VertexId ru = 0;
  const VertexId rv = g0.Neighbors(0)[0];
  GraphBuilder b(false);
  for (VertexId u = 0; u < g0.NumVertices(); ++u) {
    for (VertexId v : g0.Neighbors(u)) {
      if (u < v && !(u == std::min(ru, rv) && v == std::max(ru, rv))) {
        b.AddEdge(u, v);
      }
    }
  }
  b.AddVertex(g0.NumVertices() - 1);
  const Graph g1 = b.Build();
  std::vector<std::array<VertexId, 3>> dead;
  ForEachCommon(g0.Neighbors(ru), g0.Neighbors(rv), [&](VertexId w) {
    dead.push_back(tris.Vertices(tris.TriangleIdOf(ru, rv, w)));
  });
  std::sort(dead.begin(), dead.end());
  ASSERT_FALSE(dead.empty());
  tris.ApplyDelta(dead, {});
  // kappa in (patched) id order: recompute on g1 and scatter.
  const TriangleIndex fresh(g1);
  const auto kappa_fresh = Nucleus34Numbers(g1, fresh);
  std::vector<Degree> kappa(tris.NumTriangles(), 0);
  for (TriangleId t = 0; t < fresh.NumTriangles(); ++t) {
    const auto& tri = fresh.Vertices(t);
    kappa[tris.TriangleIdOf(tri[0], tri[1], tri[2])] = kappa_fresh[t];
  }
  N34 m(g1, DynamicNucleus34Maintainer(tris, kappa));
  EXPECT_EQ(m.NumTriangles(), fresh.NumTriangles());
  EXPECT_EQ(m.Nucleus34NumbersInIndexOrder(), kappa_fresh);
  EXPECT_EQ(m.Nucleus34NumberOf(dead[0][0], dead[0][1], dead[0][2]),
            kInvalidClique);
  // The dead triangles' base ids are tombstoned, so re-inserting the edge
  // re-creates them in side-store slots rather than on the dead ids.
  ASSERT_TRUE(m.InsertEdge(ru, rv));
  EXPECT_EQ(m.Nucleus34NumbersInIndexOrder(), Recompute(m.ToGraph()));
}

TEST(DynamicNucleus34, BuildK5EdgeByEdge) {
  N34 m(BuildGraphFromEdges(5, {}));
  for (VertexId u = 0; u < 5; ++u) {
    for (VertexId v = u + 1; v < 5; ++v) {
      ASSERT_TRUE(m.InsertEdge(u, v));
      EXPECT_EQ(m.Nucleus34NumbersInIndexOrder(), Recompute(m.ToGraph()))
          << "after (" << u << "," << v << ")";
    }
  }
  // Complete K5: every triangle in 2 of its 4-cliques.
  EXPECT_EQ(m.Nucleus34NumberOf(0, 1, 2), 2u);
}

TEST(DynamicNucleus34, RemoveFromK5) {
  N34 m(GenerateComplete(5));
  ASSERT_TRUE(m.RemoveEdge(0, 1));
  EXPECT_EQ(m.Nucleus34NumbersInIndexOrder(), Recompute(m.ToGraph()));
  EXPECT_EQ(m.Nucleus34NumberOf(2, 3, 4), 1u);
  EXPECT_EQ(m.Nucleus34NumberOf(0, 1, 2), kInvalidClique);
}

TEST(DynamicNucleus34, RejectsInvalidOperations) {
  N34 m(BuildGraphFromEdges(3, {}));
  EXPECT_FALSE(m.InsertEdge(0, 0));
  EXPECT_FALSE(m.InsertEdge(0, 7));
  EXPECT_TRUE(m.InsertEdge(0, 1));
  EXPECT_FALSE(m.InsertEdge(1, 0));
  EXPECT_FALSE(m.RemoveEdge(1, 2));
}

TEST(DynamicNucleus34, InsertionSequenceMatchesRecompute) {
  const Graph target = GenerateErdosRenyi(20, 95, 7);
  N34 m(BuildGraphFromEdges(target.NumVertices(), {}));
  for (VertexId u = 0; u < target.NumVertices(); ++u) {
    for (VertexId v : target.Neighbors(u)) {
      if (v < u) continue;
      ASSERT_TRUE(m.InsertEdge(u, v));
      ASSERT_EQ(m.Nucleus34NumbersInIndexOrder(), Recompute(m.ToGraph()))
          << "after (" << u << "," << v << ")";
    }
  }
}

TEST(DynamicNucleus34, MixedChurnMatchesRecompute) {
  Rng rng(3);
  const std::size_t n = 14;
  N34 m(BuildGraphFromEdges(n, {}));
  for (int step = 0; step < 250; ++step) {
    const VertexId u = static_cast<VertexId>(rng.UniformInt(0, n - 1));
    const VertexId v = static_cast<VertexId>(rng.UniformInt(0, n - 1));
    if (rng.Flip(0.7)) {
      m.InsertEdge(u, v);
    } else {
      m.RemoveEdge(u, v);
    }
    ASSERT_EQ(m.Nucleus34NumbersInIndexOrder(), Recompute(m.ToGraph()))
        << "step " << step;
  }
}

TEST(DynamicNucleus34, DenseCommunityChurn) {
  // Dense planted block: the stress case for the multi-source bump BFS.
  const Graph g = GeneratePlantedPartition(2, 8, 0.85, 0.15, 5);
  N34 m(g);
  Rng rng(11);
  for (int step = 0; step < 120; ++step) {
    const VertexId u = static_cast<VertexId>(rng.UniformInt(0, 15));
    const VertexId v = static_cast<VertexId>(rng.UniformInt(0, 15));
    if (rng.Flip(0.5)) {
      m.InsertEdge(u, v);
    } else {
      m.RemoveEdge(u, v);
    }
    ASSERT_EQ(m.Nucleus34NumbersInIndexOrder(), Recompute(m.ToGraph()))
        << "step " << step;
  }
}

TEST(DynamicNucleus34, DeletionSequenceMatchesRecompute) {
  const Graph g = GenerateBarabasiAlbert(16, 5, 13);
  N34 m(g);
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    for (VertexId v : g.Neighbors(u)) {
      if (u < v) edges.emplace_back(u, v);
    }
  }
  Rng rng(5);
  rng.Shuffle(&edges);
  for (const auto& [u, v] : edges) {
    ASSERT_TRUE(m.RemoveEdge(u, v));
    ASSERT_EQ(m.Nucleus34NumbersInIndexOrder(), Recompute(m.ToGraph()));
  }
  EXPECT_EQ(m.NumEdges(), 0u);
  EXPECT_EQ(m.NumTriangles(), 0u);
}

TEST(DynamicNucleus34, QuadFreeStaysZero) {
  N34 m(GenerateGrid(4, 4));
  m.InsertEdge(0, 5);  // diagonal: creates triangles but no 4-clique
  for (Degree k : m.Nucleus34NumbersInIndexOrder()) EXPECT_EQ(k, 0u);
}

TEST(DynamicNucleus34, WorkIsBoundedByGraph) {
  const Graph g = GenerateErdosRenyi(40, 260, 9);
  N34 m(g);
  Rng rng(7);
  for (int i = 0; i < 10; ++i) {
    const VertexId u = static_cast<VertexId>(rng.UniformInt(0, 39));
    const VertexId v = static_cast<VertexId>(rng.UniformInt(0, 39));
    if (m.InsertEdge(u, v)) {
      // Work counts processings, not distinct triangles; re-visits per
      // triangle are possible while the worklist drains, but the total
      // stays proportional to the triangle count, not exponential.
      EXPECT_LE(m.LastRepairWork(), 20 * (m.NumTriangles() + 1));
    }
  }
}

// An absent pair whose insertion births triangles that sit in 4-cliques,
// and a present edge whose triangles do.
std::pair<VertexId, VertexId> PairWithQuads(const Graph& g, bool present) {
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    for (VertexId v = u + 1; v < g.NumVertices(); ++v) {
      if (g.HasEdge(u, v) != present) continue;
      for (VertexId w : g.Neighbors(u)) {
        if (!g.HasEdge(v, w)) continue;
        for (VertexId x : g.Neighbors(w)) {
          if (x != u && x != v && g.HasEdge(u, x) && g.HasEdge(v, x)) {
            return {u, v};
          }
        }
      }
    }
  }
  return {0, 0};
}

TEST(DynamicNucleus34, RebirthWithinOneSequenceForEveryConstructor) {
  // Case 1: an edge carrying born triangles (and born 4-cliques) is
  // inserted and removed again; case 2: an edge of live triangles is
  // removed and re-inserted — each among other mutations, and from each
  // start (the edgeless one is fed g's edges first, so every triangle
  // sits in its side store).
  const Graph g = GeneratePlantedPartition(2, 9, 0.75, 0.1, 3);
  const auto [bu, bv] = PairWithQuads(g, false);
  const auto [lu, lv] = PairWithQuads(g, true);
  ASSERT_NE(bu, bv);
  ASSERT_NE(lu, lv);
  const TriangleIndex tris(g);
  for (int ctor = 0; ctor < 3; ++ctor) {
    N34 m = ctor == 0 ? N34(g)
            : ctor == 1
                ? N34(g, DynamicNucleus34Maintainer(tris,
                                                    Nucleus34Numbers(g, tris)))
                : N34(BuildGraphFromEdges(g.NumVertices(), {}));
    if (ctor == 2) {
      for (VertexId u = 0; u < g.NumVertices(); ++u) {
        for (VertexId v : g.Neighbors(u)) {
          if (u < v) {
            ASSERT_TRUE(m.InsertEdge(u, v));
          }
        }
      }
    }
    const auto check = [&](const char* what) {
      ASSERT_EQ(m.Nucleus34NumbersInIndexOrder(), Recompute(m.ToGraph()))
          << what << " ctor " << ctor;
      ASSERT_EQ(m.NumTriangles(), TriangleIndex(m.ToGraph()).NumTriangles());
    };
    ASSERT_TRUE(m.InsertEdge(bu, bv));
    check("born");
    ASSERT_TRUE(m.RemoveEdge(lu, lv));
    check("other removal");
    ASSERT_TRUE(m.RemoveEdge(bu, bv));
    check("born edge removed again");
    ASSERT_TRUE(m.InsertEdge(lu, lv));
    check("live edge re-inserted");
    ASSERT_TRUE(m.InsertEdge(bu, bv));
    check("born edge inserted again");
  }
}

TEST(DynamicNucleus34, TakeKappaLandsOnThePatchedIndex) {
  // The session's handover: the base index patched with the triangle
  // delta of the net edge delta numbers every live triangle; TakeKappa
  // must put each exact kappa_4 on its patched id and 0 on the tombstones.
  const Graph g = GeneratePlantedPartition(2, 9, 0.75, 0.1, 11);
  TriangleIndex tris(g);
  N34 m(g, DynamicNucleus34Maintainer(tris, Nucleus34Numbers(g, tris)));
  std::map<std::pair<VertexId, VertexId>, bool> net;  // pair -> inserted
  Rng rng(4);
  for (int step = 0; step < 60; ++step) {
    VertexId u = static_cast<VertexId>(rng.UniformInt(0, 17));
    VertexId v = static_cast<VertexId>(rng.UniformInt(0, 17));
    if (u > v) std::swap(u, v);
    const bool inserted = m.InsertEdge(u, v);
    if (!inserted && !m.RemoveEdge(u, v)) continue;
    const auto it = net.find({u, v});
    if (it != net.end()) {
      net.erase(it);  // toggled back
    } else {
      net.emplace(std::make_pair(u, v), inserted);
    }
  }
  EdgeDelta delta;
  for (const auto& [pair, ins] : net) {
    (ins ? delta.inserted : delta.removed).push_back(pair);
  }
  const Graph after = m.ToGraph();
  const TriangleDelta tdelta = ComputeTriangleDelta(g, after, delta);
  ASSERT_FALSE(tdelta.dead.empty());
  ASSERT_FALSE(tdelta.born.empty());
  tris.ApplyDelta(tdelta.dead, tdelta.born);
  const std::vector<Degree> got = m.maintainer().TakeKappa(tris);
  ASSERT_EQ(got.size(), tris.NumTriangles());
  const TriangleIndex fresh(after);
  const auto want = Nucleus34Numbers(after, fresh);
  for (TriangleId t = 0; t < fresh.NumTriangles(); ++t) {
    const auto& tri = fresh.Vertices(t);
    EXPECT_EQ(got[tris.TriangleIdOf(tri[0], tri[1], tri[2])], want[t]);
  }
  for (TriangleId t = 0; t < tris.NumTriangles(); ++t) {
    if (!tris.IsLive(t)) {
      EXPECT_EQ(got[t], 0u) << "tombstone " << t;
    }
  }
}

}  // namespace
}  // namespace nucleus
