#include "src/peel/hierarchy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <set>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "src/clique/csr_space.h"
#include "src/common/cancel.h"
#include "src/common/rng.h"
#include "src/core/session.h"
#include "src/graph/builder.h"
#include "src/graph/generators.h"
#include "src/peel/generic_peel.h"
#include "src/peel/hierarchy_impl.h"  // BuildHierarchy over CsrSpace

namespace nucleus {
namespace {

// Two K5 blocks joined by a 3-vertex path:
// block A = {0..4}, path = {5, 6, 7} (4-5, 5-6, 6-7, 7-8), block B = {8..12}.
Graph TwoCliquesWithBridge() {
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < 5; ++u) {
    for (VertexId v = u + 1; v < 5; ++v) edges.emplace_back(u, v);
  }
  for (VertexId u = 8; u < 13; ++u) {
    for (VertexId v = u + 1; v < 13; ++v) edges.emplace_back(u, v);
  }
  edges.emplace_back(4, 5);
  edges.emplace_back(5, 6);
  edges.emplace_back(6, 7);
  edges.emplace_back(7, 8);
  return BuildGraphFromEdges(13, edges);
}

// Checks the structural invariants every hierarchy must satisfy.
template <typename Space>
void CheckInvariants(const Space& space, const std::vector<Degree>& kappa,
                     const NucleusHierarchy& h) {
  const std::size_t n = space.NumRCliques();
  // Every r-clique appears in exactly one node, at its own kappa level.
  std::vector<int> appearances(n, 0);
  for (std::size_t id = 0; id < h.nodes.size(); ++id) {
    for (CliqueId r : h.nodes[id].new_members) {
      ++appearances[r];
      EXPECT_EQ(h.nodes[id].k, kappa[r]);
      EXPECT_EQ(h.node_of_clique[r], static_cast<int>(id));
    }
  }
  for (std::size_t r = 0; r < n; ++r) EXPECT_EQ(appearances[r], 1);
  // Parent k < child k, parent/child links consistent, sizes add up.
  for (std::size_t id = 0; id < h.nodes.size(); ++id) {
    const auto& node = h.nodes[id];
    std::size_t child_size = 0;
    for (int c : node.children) {
      EXPECT_GT(h.nodes[c].k, node.k);
      EXPECT_EQ(h.nodes[c].parent, static_cast<int>(id));
      child_size += h.nodes[c].size;
    }
    EXPECT_EQ(node.size, node.new_members.size() + child_size);
    if (node.parent == -1) {
      EXPECT_NE(std::find(h.roots.begin(), h.roots.end(),
                          static_cast<int>(id)),
                h.roots.end());
    }
  }
  // Root sizes sum to n.
  std::size_t total = 0;
  for (int r : h.roots) total += h.nodes[r].size;
  EXPECT_EQ(total, n);
}

TEST(CoreHierarchy, TwoCliquesWithBridgeShape) {
  const Graph g = TwoCliquesWithBridge();
  const auto kappa = PeelCore(g).kappa;
  const auto h = BuildCoreHierarchy(g, kappa);
  CheckInvariants(CoreSpace(g), kappa, h);
  // Every vertex has degree >= 2, so the whole graph is one 2-core that
  // contains the two K5 4-cores as children.
  std::size_t k4_nodes = 0, k2_nodes = 0;
  for (const auto& node : h.nodes) {
    if (node.k == 4) {
      ++k4_nodes;
      EXPECT_EQ(node.size, 5u);
    }
    if (node.k == 2) {
      ++k2_nodes;
      EXPECT_EQ(node.size, 13u);
      EXPECT_EQ(node.children.size(), 2u);
    }
  }
  EXPECT_EQ(k4_nodes, 2u);
  EXPECT_EQ(k2_nodes, 1u);
  EXPECT_EQ(h.roots.size(), 1u);
  EXPECT_EQ(h.Depth(), 2u);
}

TEST(CoreHierarchy, DisconnectedComponentsAreSeparateRoots) {
  // Two disjoint triangles.
  const Graph g =
      BuildGraphFromEdges(6, {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}});
  const auto kappa = PeelCore(g).kappa;
  const auto h = BuildCoreHierarchy(g, kappa);
  CheckInvariants(CoreSpace(g), kappa, h);
  EXPECT_EQ(h.roots.size(), 2u);
  for (int r : h.roots) {
    EXPECT_EQ(h.nodes[r].k, 2u);
    EXPECT_EQ(h.nodes[r].size, 3u);
  }
}

TEST(CoreHierarchy, IsolatedVerticesAreZeroNodes) {
  const Graph g = BuildGraphFromEdges(4, {{0, 1}});
  const auto kappa = PeelCore(g).kappa;
  const auto h = BuildCoreHierarchy(g, kappa);
  CheckInvariants(CoreSpace(g), kappa, h);
  // Vertices 2 and 3 are isolated (kappa 0): singleton root nodes.
  std::size_t zero_roots = 0;
  for (int r : h.roots) {
    if (h.nodes[r].k == 0) ++zero_roots;
  }
  EXPECT_EQ(zero_roots, 2u);
}

TEST(CoreHierarchy, NestedCliquesProduceChain) {
  const Graph g = GenerateNestedCliques(3, 4, 4, 7);
  const auto kappa = PeelCore(g).kappa;
  const auto h = BuildCoreHierarchy(g, kappa);
  CheckInvariants(CoreSpace(g), kappa, h);
  // The densest clique (K12) must be in a deepest node.
  EXPECT_GE(h.Depth(), 3u);
}

TEST(TrussHierarchy, InvariantsOnRandomGraph) {
  const Graph g = GenerateErdosRenyi(30, 140, 17);
  const EdgeIndex edges(g);
  const auto kappa = PeelTruss(g, edges).kappa;
  const auto h = BuildTrussHierarchy(g, edges, kappa);
  CheckInvariants(TrussSpace(g, edges), kappa, h);
}

TEST(TrussHierarchy, TriangleDisconnectedTrussesSeparate) {
  // Figure 3 of the paper: two 1-(3,4)-like nuclei are separate when no
  // s-clique bridges them. Truss analogue: two triangles sharing a single
  // vertex are *not* triangle-connected, so the k=1 trusses stay separate.
  const Graph g = BuildGraphFromEdges(
      5, {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {2, 4}});
  const EdgeIndex edges(g);
  const auto kappa = PeelTruss(g, edges).kappa;
  const auto h = BuildTrussHierarchy(g, edges, kappa);
  CheckInvariants(TrussSpace(g, edges), kappa, h);
  std::size_t k1_nodes = 0;
  for (const auto& node : h.nodes) {
    if (node.k == 1) {
      ++k1_nodes;
      EXPECT_EQ(node.size, 3u);  // each triangle: 3 edges
    }
  }
  EXPECT_EQ(k1_nodes, 2u);
}

TEST(Nucleus34Hierarchy, InvariantsOnRandomGraph) {
  const Graph g = GenerateErdosRenyi(20, 95, 23);
  const TriangleIndex tris(g);
  const auto kappa = PeelNucleus34(g, tris).kappa;
  const auto h = BuildNucleus34Hierarchy(g, tris, kappa);
  CheckInvariants(Nucleus34Space(g, tris), kappa, h);
}

TEST(Nucleus34Hierarchy, TwoK4sSharingTriangleFourCliqueDisconnected) {
  // Two K4s sharing one triangle {0,1,2}: 4-cliques {0,1,2,3} and
  // {0,1,2,4} share the triangle, so all triangles are S-connected through
  // it and the two K4s merge at k=1.
  const Graph g = BuildGraphFromEdges(
      5, {{0, 1}, {0, 2}, {1, 2}, {0, 3}, {1, 3}, {2, 3}, {0, 4}, {1, 4},
          {2, 4}});
  const TriangleIndex tris(g);
  const auto kappa = PeelNucleus34(g, tris).kappa;
  const auto h = BuildNucleus34Hierarchy(g, tris, kappa);
  CheckInvariants(Nucleus34Space(g, tris), kappa, h);
  // Shared triangle {0,1,2} is in two 4-cliques -> kappa 2 is impossible
  // (each of its s-cliques has co-members of kappa 1), all others kappa 1.
  for (TriangleId t = 0; t < tris.NumTriangles(); ++t) {
    EXPECT_EQ(kappa[t], 1u);
  }
}

TEST(Hierarchy, EmptyGraph) {
  const Graph g;
  const auto h = BuildCoreHierarchy(g, {});
  EXPECT_TRUE(h.nodes.empty());
  EXPECT_TRUE(h.roots.empty());
  EXPECT_EQ(h.Depth(), 0u);
}

TEST(Hierarchy, SingleVertex) {
  const Graph g = BuildGraphFromEdges(1, {});
  const auto kappa = PeelCore(g).kappa;
  const auto h = BuildCoreHierarchy(g, kappa);
  ASSERT_EQ(h.nodes.size(), 1u);
  EXPECT_EQ(h.nodes[0].k, 0u);
  EXPECT_EQ(h.Depth(), 1u);
}

// ---------------------------------------------------------------------------
// One-pass vs per-member construction. A fresh BuildHierarchy over the
// canonical spaces enumerates every s-clique once and unions it at its
// level; RepairHierarchy from an empty forest with no level bound re-sweeps
// every level per member. Both must produce the same forest, bit for bit.

void ExpectSameForest(const NucleusHierarchy& got,
                      const NucleusHierarchy& want, const std::string& what) {
  ASSERT_FALSE(got.aborted) << what;
  ASSERT_FALSE(want.aborted) << what;
  ASSERT_EQ(got.nodes.size(), want.nodes.size()) << what;
  for (std::size_t i = 0; i < want.nodes.size(); ++i) {
    const auto& gn = got.nodes[i];
    const auto& wn = want.nodes[i];
    ASSERT_EQ(gn.k, wn.k) << what << " node " << i;
    ASSERT_EQ(gn.parent, wn.parent) << what << " node " << i;
    ASSERT_EQ(gn.children, wn.children) << what << " node " << i;
    ASSERT_EQ(gn.new_members, wn.new_members) << what << " node " << i;
    ASSERT_EQ(gn.size, wn.size) << what << " node " << i;
  }
  EXPECT_EQ(got.roots, want.roots) << what;
  EXPECT_EQ(got.node_of_clique, want.node_of_clique) << what;
}

// The per-member sweep over every level: a repair of an empty forest whose
// touched-level bound covers all levels keeps no prefix.
template <typename Space>
NucleusHierarchy PerMemberHierarchy(const Space& space,
                                    const std::vector<Degree>& kappa,
                                    std::span<const std::uint8_t> live) {
  return RepairHierarchy(space, NucleusHierarchy{}, kappa, live,
                         std::numeric_limits<Degree>::max());
}

// Both BuildHierarchy overloads against the per-member reference.
template <typename Space>
void ExpectOnePassMatchesPerMember(const Space& space,
                                   const std::string& what) {
  const std::vector<std::uint8_t> live = space.LiveRFlags();
  const PeelResult peel = PeelDecomposition(space);
  ASSERT_TRUE(peel.status.ok()) << what;
  const NucleusHierarchy want = PerMemberHierarchy(space, peel.kappa, live);
  ExpectSameForest(BuildHierarchy(space, peel.kappa, live), want,
                   what + " kappa overload");
  ExpectSameForest(BuildHierarchy(space, peel), want,
                   what + " peel overload");
}

std::vector<Graph> EquivalenceGraphs() {
  std::vector<Graph> graphs;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    graphs.push_back(GenerateErdosRenyi(40, 260, seed));
    graphs.push_back(GeneratePlantedPartition(3, 15, 0.6, 0.05, seed));
  }
  graphs.push_back(TwoCliquesWithBridge());
  graphs.push_back(GenerateNestedCliques(3, 4, 4, 7));
  graphs.push_back(BuildGraphFromEdges(6, {{0, 1}, {2, 3}}));  // isolated
  return graphs;
}

TEST(OnePassHierarchy, MatchesPerMemberSweepOnRandomGraphs) {
  const auto graphs = EquivalenceGraphs();
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const Graph& g = graphs[i];
    const std::string tag = "graph " + std::to_string(i);
    const EdgeIndex edges(g);
    const TriangleIndex tris(g);
    ExpectOnePassMatchesPerMember(CoreSpace(g), tag + " core");
    ExpectOnePassMatchesPerMember(TrussSpace(g, edges), tag + " truss");
    ExpectOnePassMatchesPerMember(Nucleus34Space(g, tris), tag + " n34");
  }
}

TEST(OnePassHierarchy, ArenaSpaceTakesThePerMemberFeeder) {
  // CsrSpace has no one-pass method, so BuildHierarchy over an arena runs
  // the per-member sweep over contiguous co-member scans.
  const Graph g = GeneratePlantedPartition(3, 15, 0.6, 0.05, 9);
  const EdgeIndex edges(g);
  const TriangleIndex tris(g);
  const TrussSpace truss(g, edges);
  const Nucleus34Space n34(g, tris);
  const auto truss_kappa = PeelDecomposition(truss).kappa;
  const auto n34_kappa = PeelDecomposition(n34).kappa;
  ExpectSameForest(BuildHierarchy(CsrSpace<TrussSpace>(truss), truss_kappa),
                   BuildHierarchy(truss, truss_kappa), "truss arena");
  ExpectSameForest(BuildHierarchy(CsrSpace<Nucleus34Space>(n34), n34_kappa),
                   BuildHierarchy(n34, n34_kappa), "n34 arena");
}

// Random edge toggles over a fixed pair pool: removals tombstone ids,
// insertions of pairs absent at build time append overlay ids, and
// re-insertions revive tombstones.
void ToggleRandomPairs(NucleusSession* session, Rng* rng, int ops) {
  const std::size_t n = session->graph().NumVertices();
  auto batch = session->BeginUpdates();
  int applied = 0;
  while (applied < ops) {
    const VertexId u = static_cast<VertexId>(rng->UniformInt(0, n - 1));
    const VertexId v = static_cast<VertexId>(rng->UniformInt(0, n - 1));
    if (u == v) continue;
    if (batch.InsertEdge(u, v) || batch.RemoveEdge(u, v)) ++applied;
  }
  ASSERT_TRUE(batch.Commit().ok());
}

TEST(OnePassHierarchy, MatchesPerMemberSweepOnPatchedIndices) {
  const Graph initial = GeneratePlantedPartition(3, 14, 0.55, 0.05, 13);
  NucleusSession session(initial);
  session.Edges();
  session.Triangles();
  Rng rng(77);
  for (int round = 0; round < 12; ++round) {
    ToggleRandomPairs(&session, &rng, 3);
    const std::string tag = "round " + std::to_string(round);
    const Graph& g = session.graph();
    const EdgeIndex& edges = session.Edges();
    const TriangleIndex& tris = session.Triangles();
    ExpectOnePassMatchesPerMember(CoreSpace(g), tag + " core");
    ExpectOnePassMatchesPerMember(TrussSpace(g, edges), tag + " truss");
    ExpectOnePassMatchesPerMember(Nucleus34Space(g, tris), tag + " n34");
  }
  // The commits left both kinds of patched ids behind.
  const EdgeIndex& edges = session.Edges();
  const TriangleIndex& tris = session.Triangles();
  EXPECT_LT(edges.NumLiveEdges(), edges.NumEdges());
  EXPECT_LT(tris.NumLiveTriangles(), tris.NumTriangles());
  EXPECT_GT(edges.NumEdges(), EdgeIndex(initial).NumEdges());
  EXPECT_GT(tris.NumTriangles(), TriangleIndex(initial).NumTriangles());
}

TEST(OnePassHierarchy, ArenaBackedRepairMatchesRebuildAfterCommits) {
  const Graph initial = GeneratePlantedPartition(3, 14, 0.55, 0.05, 21);
  NucleusSession session(initial);
  DecomposeOptions opt;
  opt.method = Method::kAnd;
  opt.materialize = Materialize::kOn;  // arenas, patched by every commit
  const DecompositionKind kinds[] = {DecompositionKind::kCore,
                                     DecompositionKind::kTruss,
                                     DecompositionKind::kNucleus34};
  for (auto kind : kinds) {
    ASSERT_TRUE(session.Decompose(kind, opt).ok());
    ASSERT_TRUE(session.Hierarchy(kind, opt).ok());
  }
  const SessionStats warm = session.stats();
  Rng rng(5);
  constexpr int kRounds = 15;
  for (int round = 0; round < kRounds; ++round) {
    ToggleRandomPairs(&session, &rng, 2);
    const SessionStateStats state = session.Stats();
    for (auto kind : kinds) {
      const int k = static_cast<int>(kind);
      const std::string tag =
          "round " + std::to_string(round) + " " + KindName(kind);
      ASSERT_GT(state.arena_bytes[k], 0u) << tag;  // repaired over the arena
      const auto kappa = session.Decompose(kind, opt);
      ASSERT_TRUE(kappa.ok() && kappa->served_from_cache) << tag;
      const auto repaired = session.Hierarchy(kind, opt);
      ASSERT_TRUE(repaired.ok()) << tag;
      const auto rebuilt = session.HierarchyFor(kind, kappa->kappa);
      ASSERT_TRUE(rebuilt.ok()) << tag;
      ExpectSameForest(**repaired, *rebuilt, tag);
    }
  }
  const SessionStats after = session.stats();
  EXPECT_EQ(after.hierarchy_builds, warm.hierarchy_builds);
  EXPECT_EQ(after.core_arena_builds, warm.core_arena_builds);
  EXPECT_EQ(after.truss_arena_builds, warm.truss_arena_builds);
  EXPECT_EQ(after.nucleus34_arena_builds, warm.nucleus34_arena_builds);
  EXPECT_EQ(after.hierarchy_repairs - warm.hierarchy_repairs,
            std::uint64_t{3} * kRounds);
}

// ---------------------------------------------------------------------------
// Cancellation: a stopped build reports aborted (the forest is discarded),
// and a cancelled session Hierarchy() returns kCancelled and caches
// nothing.

TEST(HierarchyCancel, CancelledBuildAborts) {
  const Graph g = GeneratePlantedPartition(3, 15, 0.6, 0.05, 3);
  const EdgeIndex edges(g);
  const TriangleIndex tris(g);
  CancelToken token;
  token.RequestCancel();
  const RunControl ctl(&token, Deadline::Infinite());
  const auto check = [&](const auto& space, const char* what) {
    const PeelResult peel = PeelDecomposition(space);
    EXPECT_TRUE(BuildHierarchy(space, peel.kappa, {}, ctl).aborted) << what;
    EXPECT_TRUE(BuildHierarchy(space, peel, ctl).aborted) << what;
  };
  check(CoreSpace(g), "core");
  check(TrussSpace(g, edges), "truss");
  check(Nucleus34Space(g, tris), "n34");
}

TEST(HierarchyCancel, RacingCancelEitherAbortsOrMatches) {
  // A canceller fires at a random point of the build: during the
  // enumeration, during the bucketed unions, or after the build finished.
  // Whichever it hits, the forest is either flagged aborted or complete.
  const Graph g = GeneratePlantedPartition(4, 30, 0.5, 0.02, 11);
  const TriangleIndex tris(g);
  const Nucleus34Space space(g, tris);
  const auto kappa = PeelDecomposition(space).kappa;
  const NucleusHierarchy want = BuildHierarchy(space, kappa);
  Rng rng(3);
  int aborted = 0;
  for (int trial = 0; trial < 24; ++trial) {
    CancelToken token;
    const auto delay =
        std::chrono::microseconds(rng.UniformInt(0, 4000));
    std::thread canceller([&] {
      std::this_thread::sleep_for(delay);
      token.RequestCancel();
    });
    const NucleusHierarchy got = BuildHierarchy(
        space, kappa, {}, RunControl(&token, Deadline::Infinite()));
    canceller.join();
    if (got.aborted) {
      ++aborted;
    } else {
      ExpectSameForest(got, want, "trial " + std::to_string(trial));
    }
  }
  RecordProperty("aborted_trials", aborted);
}

TEST(HierarchyCancel, CancelledSessionHierarchyCachesNothing) {
  const Graph g = GeneratePlantedPartition(3, 15, 0.6, 0.05, 4);
  const DecompositionKind kinds[] = {DecompositionKind::kCore,
                                     DecompositionKind::kTruss,
                                     DecompositionKind::kNucleus34};
  NucleusSession session(g);
  for (auto kind : kinds) {
    // kappa cached first, so the cancelled call reaches the build itself
    // (cache hits are served even to a stopped request).
    const auto kappa = session.Decompose(kind);
    ASSERT_TRUE(kappa.ok());
    const SessionStats before = session.stats();
    CancelToken token;
    token.RequestCancel();
    DecomposeOptions cancelled;
    cancelled.cancel_token = &token;
    const auto h = session.Hierarchy(kind, cancelled);
    ASSERT_FALSE(h.ok());
    EXPECT_EQ(h.status().code(), StatusCode::kCancelled);
    EXPECT_EQ(session.stats().hierarchy_builds, before.hierarchy_builds);
    EXPECT_FALSE(session.Stats().hierarchy_cached[static_cast<int>(kind)]);
    // The retry builds the full forest.
    const auto retry = session.Hierarchy(kind);
    ASSERT_TRUE(retry.ok());
    const auto want = session.HierarchyFor(kind, kappa->kappa);
    ASSERT_TRUE(want.ok());
    ExpectSameForest(**retry, *want, "retry");
  }
}

}  // namespace
}  // namespace nucleus
