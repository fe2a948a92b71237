#include "src/local/dynamic_truss.h"

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "src/clique/edge_index.h"
#include "src/common/rng.h"
#include "src/graph/builder.h"
#include "src/graph/generators.h"
#include "src/peel/ktruss.h"
#include "tests/testlib/maintained_graph.h"

namespace nucleus {
namespace {

// The truss maintainer over its own working graph.
class Truss : public testlib::MaintainedGraph<DynamicTrussMaintainer> {
 public:
  using MaintainedGraph::MaintainedGraph;
  std::vector<Degree> TrussNumbersInIndexOrder() const {
    return maintainer().TrussNumbersInIndexOrder(graph());
  }
  Degree TrussNumberOf(VertexId u, VertexId v) const {
    return maintainer().TrussNumberOf(graph(), u, v);
  }
};

std::vector<Degree> Recompute(const Graph& g) {
  const EdgeIndex edges(g);
  return TrussNumbers(g, edges);
}

TEST(DynamicTruss, StartsFromExactTrussNumbers) {
  const Graph g = GenerateErdosRenyi(30, 120, 1);
  Truss m(g);
  EXPECT_EQ(m.TrussNumbersInIndexOrder(), Recompute(g));
  EXPECT_EQ(m.NumEdges(), g.NumEdges());
}

TEST(DynamicTruss, PrecomputedKappaCtorSkipsDecomposition) {
  const Graph g = GenerateErdosRenyi(30, 120, 2);
  const EdgeIndex edges(g);
  const auto kappa = TrussNumbers(g, edges);
  Truss m(g, DynamicTrussMaintainer(g, edges, kappa));
  EXPECT_EQ(m.NumEdges(), g.NumEdges());
  EXPECT_EQ(m.TrussNumbersInIndexOrder(), kappa);
  // Mutations repair correctly from the seeded state.
  ASSERT_TRUE(m.InsertEdge(0, 15));
  ASSERT_TRUE(m.RemoveEdge(edges.Endpoints(0).first,
                           edges.Endpoints(0).second));
  EXPECT_EQ(m.TrussNumbersInIndexOrder(), Recompute(m.ToGraph()));
}

TEST(DynamicTruss, PrecomputedKappaCtorIgnoresTombstonedIds) {
  // Seed through a patched index: remove an edge from the graph and
  // tombstone its id; the maintainer must see only the live edges.
  const Graph g0 = GenerateErdosRenyi(20, 60, 3);
  EdgeIndex edges(g0);
  const auto [ru, rv] = edges.Endpoints(5);
  GraphBuilder b(false);
  for (VertexId u = 0; u < g0.NumVertices(); ++u) {
    for (VertexId v : g0.Neighbors(u)) {
      if (u < v && !(u == ru && v == rv)) b.AddEdge(u, v);
    }
  }
  b.AddVertex(g0.NumVertices() - 1);
  const Graph g1 = b.Build();
  const std::vector<std::pair<VertexId, VertexId>> removed = {{ru, rv}};
  edges.ApplyDelta(removed, {});
  // kappa in (patched) id order: recompute on g1 and scatter.
  const EdgeIndex fresh(g1);
  const auto kappa_fresh = TrussNumbers(g1, fresh);
  std::vector<Degree> kappa(edges.NumEdges(), 0);
  for (EdgeId e = 0; e < fresh.NumEdges(); ++e) {
    const auto [u, v] = fresh.Endpoints(e);
    kappa[edges.EdgeIdOf(u, v)] = kappa_fresh[e];
  }
  Truss m(g1, DynamicTrussMaintainer(g1, edges, kappa));
  EXPECT_EQ(m.NumEdges(), g1.NumEdges());
  EXPECT_EQ(m.TrussNumbersInIndexOrder(), kappa_fresh);
  EXPECT_EQ(m.TrussNumberOf(ru, rv), kInvalidClique);
  // The pair's base id is tombstoned, so re-inserting it takes a
  // side-store slot rather than the dead id.
  ASSERT_TRUE(m.InsertEdge(ru, rv));
  EXPECT_EQ(m.TrussNumbersInIndexOrder(), Recompute(m.ToGraph()));
}

TEST(DynamicTruss, BuildK4EdgeByEdge) {
  Truss m(BuildGraphFromEdges(4, {}));
  const std::pair<VertexId, VertexId> edges[] = {{0, 1}, {0, 2}, {1, 2},
                                                 {0, 3}, {1, 3}, {2, 3}};
  for (const auto& [u, v] : edges) {
    ASSERT_TRUE(m.InsertEdge(u, v));
    EXPECT_EQ(m.TrussNumbersInIndexOrder(), Recompute(m.ToGraph()));
  }
  // Complete K4: every edge in 2 triangles.
  EXPECT_EQ(m.TrussNumberOf(0, 3), 2u);
}

TEST(DynamicTruss, RemoveFromK4) {
  Truss m(GenerateComplete(4));
  ASSERT_TRUE(m.RemoveEdge(0, 1));
  EXPECT_EQ(m.TrussNumbersInIndexOrder(), Recompute(m.ToGraph()));
  EXPECT_EQ(m.TrussNumberOf(2, 3), 1u);
  EXPECT_EQ(m.TrussNumberOf(0, 1), kInvalidClique + 0u);
}

TEST(DynamicTruss, RejectsInvalidOperations) {
  Truss m(BuildGraphFromEdges(3, {}));
  EXPECT_FALSE(m.InsertEdge(0, 0));
  EXPECT_FALSE(m.InsertEdge(0, 7));
  EXPECT_TRUE(m.InsertEdge(0, 1));
  EXPECT_FALSE(m.InsertEdge(1, 0));
  EXPECT_FALSE(m.RemoveEdge(1, 2));
}

TEST(DynamicTruss, InsertionSequenceMatchesRecompute) {
  const Graph target = GenerateErdosRenyi(24, 110, 7);
  Truss m(BuildGraphFromEdges(target.NumVertices(), {}));
  for (VertexId u = 0; u < target.NumVertices(); ++u) {
    for (VertexId v : target.Neighbors(u)) {
      if (v < u) continue;
      ASSERT_TRUE(m.InsertEdge(u, v));
      ASSERT_EQ(m.TrussNumbersInIndexOrder(), Recompute(m.ToGraph()))
          << "after (" << u << "," << v << ")";
    }
  }
}

TEST(DynamicTruss, MixedChurnMatchesRecompute) {
  Rng rng(3);
  const std::size_t n = 18;
  Truss m(BuildGraphFromEdges(n, {}));
  for (int step = 0; step < 300; ++step) {
    const VertexId u = static_cast<VertexId>(rng.UniformInt(0, n - 1));
    const VertexId v = static_cast<VertexId>(rng.UniformInt(0, n - 1));
    if (rng.Flip(0.7)) {
      m.InsertEdge(u, v);
    } else {
      m.RemoveEdge(u, v);
    }
    ASSERT_EQ(m.TrussNumbersInIndexOrder(), Recompute(m.ToGraph()))
        << "step " << step;
  }
}

TEST(DynamicTruss, DenseCommunityChurn) {
  // Dense planted block: the stress case for the bump region logic.
  const Graph g = GeneratePlantedPartition(2, 10, 0.8, 0.1, 5);
  Truss m(g);
  Rng rng(11);
  for (int step = 0; step < 150; ++step) {
    const VertexId u = static_cast<VertexId>(rng.UniformInt(0, 19));
    const VertexId v = static_cast<VertexId>(rng.UniformInt(0, 19));
    if (rng.Flip(0.5)) {
      m.InsertEdge(u, v);
    } else {
      m.RemoveEdge(u, v);
    }
    ASSERT_EQ(m.TrussNumbersInIndexOrder(), Recompute(m.ToGraph()))
        << "step " << step;
  }
}

TEST(DynamicTruss, DeletionSequenceMatchesRecompute) {
  const Graph g = GenerateBarabasiAlbert(20, 4, 13);
  Truss m(g);
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
    ASSERT_EQ(m.TrussNumbersInIndexOrder(), Recompute(m.ToGraph()));
  }
  EXPECT_EQ(m.NumEdges(), 0u);
}

TEST(DynamicTruss, TriangleFreeStaysZero) {
  Truss m(GenerateGrid(4, 4));
  m.InsertEdge(0, 15);  // a chord; still no triangle through most edges
  for (Degree k : m.TrussNumbersInIndexOrder()) EXPECT_LE(k, 1u);
}

TEST(DynamicTruss, WorkIsBoundedByGraph) {
  const Graph g = GenerateErdosRenyi(60, 280, 9);
  Truss m(g);
  Rng rng(7);
  for (int i = 0; i < 10; ++i) {
    const VertexId u = static_cast<VertexId>(rng.UniformInt(0, 59));
    const VertexId v = static_cast<VertexId>(rng.UniformInt(0, 59));
    if (m.InsertEdge(u, v)) {
      // Work counts processings, not distinct edges; a few re-visits per
      // edge are possible while the worklist drains.
      EXPECT_LE(m.LastRepairWork(), 5 * (g.NumEdges() + 1));
    }
  }
}

TEST(DynamicTruss, RiserSearchStaysOnItsLevel) {
  // A K5 hub (truss 3) with a pendant triangle on each of its ten edges,
  // whose two spokes sit at truss 1. Joining pendant vertex 5 (on {0, 1})
  // to hub vertex 2 closes the K4 {0, 1, 2, 5}: only that pendant's spokes
  // rise. The other eighteen spokes are at the same level but reachable
  // only across the hub, so the search must not list them.
  std::vector<std::pair<VertexId, VertexId>> edges;
  VertexId pendant = 5;
  for (VertexId a = 0; a < 5; ++a) {
    for (VertexId b = a + 1; b < 5; ++b) {
      edges.emplace_back(a, b);
      edges.emplace_back(a, pendant);
      edges.emplace_back(b, pendant);
      ++pendant;
    }
  }
  Truss m(BuildGraphFromEdges(pendant, edges));
  ASSERT_TRUE(m.InsertEdge(2, 5));
  EXPECT_EQ(m.TrussNumbersInIndexOrder(), Recompute(m.ToGraph()));
  EXPECT_EQ(m.TrussNumberOf(0, 5), 2u);
  EXPECT_EQ(m.TrussNumberOf(6, 2), 1u);
  EXPECT_LT(m.LastRepairWork(), 18u);
}

// An absent pair whose endpoints share a neighbor (inserting it births
// triangles), and a present edge that lies in a triangle.
std::pair<VertexId, VertexId> AbsentPairWithTriangles(const Graph& g) {
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    for (VertexId v = u + 1; v < g.NumVertices(); ++v) {
      if (g.HasEdge(u, v)) continue;
      for (VertexId w : g.Neighbors(u)) {
        if (g.HasEdge(v, w)) return {u, v};
      }
    }
  }
  return {0, 0};
}

std::pair<VertexId, VertexId> EdgeWithTriangles(const Graph& g) {
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    for (VertexId v : g.Neighbors(u)) {
      for (VertexId w : g.Neighbors(u)) {
        if (u < v && g.HasEdge(v, w)) return {u, v};
      }
    }
  }
  return {0, 0};
}

TEST(DynamicTruss, RebirthWithinOneSequenceForEveryConstructor) {
  // Case 1: an edge carrying born triangles is inserted and removed again;
  // case 2: an edge of live triangles is removed and re-inserted — each
  // among other mutations, and from each start (the edgeless one is fed
  // g's edges first, so every edge sits in its side store).
  const Graph g = GeneratePlantedPartition(2, 10, 0.7, 0.1, 5);
  const auto [bu, bv] = AbsentPairWithTriangles(g);
  const auto [lu, lv] = EdgeWithTriangles(g);
  ASSERT_NE(bu, bv);
  ASSERT_NE(lu, lv);
  const EdgeIndex edges(g);
  for (int ctor = 0; ctor < 3; ++ctor) {
    Truss m =
        ctor == 0   ? Truss(g)
        : ctor == 1 ? Truss(g, DynamicTrussMaintainer(g, edges,
                                                      TrussNumbers(g, edges)))
                    : Truss(BuildGraphFromEdges(g.NumVertices(), {}));
    if (ctor == 2) {
      for (EdgeId e = 0; e < edges.NumEdges(); ++e) {
        ASSERT_TRUE(m.InsertEdge(edges.Endpoints(e).first,
                                 edges.Endpoints(e).second));
      }
    }
    const auto check = [&](const char* what) {
      ASSERT_EQ(m.TrussNumbersInIndexOrder(), Recompute(m.ToGraph()))
          << what << " ctor " << ctor;
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

TEST(DynamicTruss, TakeKappaLandsOnThePatchedIndex) {
  // The session's handover: the base index patched with the net delta
  // numbers every live edge; TakeKappa must put each exact truss number
  // on its patched id and 0 on the tombstones.
  const Graph g = GeneratePlantedPartition(2, 10, 0.7, 0.1, 7);
  EdgeIndex edges(g);
  Truss m(g, DynamicTrussMaintainer(g, edges, TrussNumbers(g, edges)));
  std::map<std::pair<VertexId, VertexId>, bool> net;  // pair -> inserted
  Rng rng(3);
  for (int step = 0; step < 80; ++step) {
    VertexId u = static_cast<VertexId>(rng.UniformInt(0, 19));
    VertexId v = static_cast<VertexId>(rng.UniformInt(0, 19));
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
  std::vector<std::pair<VertexId, VertexId>> removed, inserted;
  for (const auto& [pair, ins] : net) {
    (ins ? inserted : removed).push_back(pair);
  }
  ASSERT_FALSE(removed.empty());
  ASSERT_FALSE(inserted.empty());
  edges.ApplyDelta(removed, inserted);
  const Graph after = m.ToGraph();
  const std::vector<Degree> got = m.maintainer().TakeKappa(edges);
  ASSERT_EQ(got.size(), edges.NumEdges());
  const EdgeIndex fresh(after);
  const auto want = TrussNumbers(after, fresh);
  for (EdgeId e = 0; e < fresh.NumEdges(); ++e) {
    const auto [u, v] = fresh.Endpoints(e);
    EXPECT_EQ(got[edges.EdgeIdOf(u, v)], want[e]) << u << "," << v;
  }
  for (EdgeId e = 0; e < edges.NumEdges(); ++e) {
    if (!edges.IsLive(e)) {
      EXPECT_EQ(got[e], 0u) << "tombstone " << e;
    }
  }
}

}  // namespace
}  // namespace nucleus
