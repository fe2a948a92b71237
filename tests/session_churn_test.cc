// Randomized insert/remove/commit churn over a NucleusSession: after every
// commit, every incrementally-maintained structure — patched EdgeIndex /
// TriangleIndex, patched CSR co-member arenas, and the re-seeded kappa
// caches — must agree value-for-value with a from-scratch rebuild on the
// mutated graph. Ids are stable across patches while a fresh build
// re-densifies them, so vectors are compared through the endpoint-pair /
// vertex-triple mapping and the compared kappa/degree values themselves
// must match bitwise.
#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "src/clique/edge_index.h"
#include "src/clique/triangles.h"
#include "src/common/rng.h"
#include "src/core/session.h"
#include "src/graph/generators.h"
#include "src/peel/generic_peel.h"

namespace nucleus {
namespace {

// One churn round: mutate ~ops random pairs (insert when absent, remove
// when present), commit, and cross-check the session against scratch.
void ChurnAndCheck(int threads, std::uint64_t seed) {
  const Graph initial = GeneratePlantedPartition(4, 20, 0.5, 0.04, 13);
  NucleusSession session(initial);

  DecomposeOptions warm;
  warm.method = Method::kAnd;
  warm.threads = threads;
  warm.materialize = Materialize::kOn;  // force arenas so patches are hit
  ASSERT_TRUE(session.Decompose(DecompositionKind::kCore, warm).ok());
  ASSERT_TRUE(session.Decompose(DecompositionKind::kTruss, warm).ok());
  ASSERT_TRUE(session.Decompose(DecompositionKind::kNucleus34, warm).ok());
  // Fly-space peels as well, so every kind's cached S-degrees get patched
  // (a peel, unlike the local methods, needs them exact).
  DecomposeOptions fly = warm;
  fly.method = Method::kPeeling;
  fly.materialize = Materialize::kOff;
  fly.use_result_cache = false;
  for (auto kind : {DecompositionKind::kCore, DecompositionKind::kTruss,
                    DecompositionKind::kNucleus34}) {
    ASSERT_TRUE(session.Decompose(kind, fly).ok());
  }
  const SessionStats warm_stats = session.stats();

  Rng rng(seed);
  const std::size_t n = initial.NumVertices();
  for (int round = 0; round < 5; ++round) {
    auto batch = session.BeginUpdates();
    ASSERT_TRUE(batch.MaintainsTruss());
    int applied = 0;
    for (int op = 0; op < 25; ++op) {
      const VertexId u = static_cast<VertexId>(rng.UniformInt(0, n - 1));
      const VertexId v = static_cast<VertexId>(rng.UniformInt(0, n - 1));
      if (u == v) continue;
      // Insert when absent, remove when present — mirrors the working
      // graph, so both mutation kinds (and id revivals) are exercised.
      if (batch.InsertEdge(u, v) || batch.RemoveEdge(u, v)) ++applied;
    }
    ASSERT_GT(applied, 0);
    ASSERT_TRUE(batch.Commit().ok());

    const Graph& g = session.graph();
    const EdgeIndex fresh_edges(g);
    const TriangleIndex fresh_tris(g, threads);
    const EdgeIndex& patched_edges = session.Edges();
    const TriangleIndex& patched_tris = session.Triangles(threads);

    // --- Patched index self-consistency vs. from-scratch. -------------
    ASSERT_EQ(patched_edges.NumLiveEdges(), g.NumEdges());
    ASSERT_EQ(patched_tris.NumLiveTriangles(), fresh_tris.NumTriangles());
    for (EdgeId e = 0; e < fresh_edges.NumEdges(); ++e) {
      const auto [u, v] = fresh_edges.Endpoints(e);
      const EdgeId pe = patched_edges.EdgeIdOf(u, v);
      ASSERT_NE(pe, kInvalidEdge) << "live edge lost: {" << u << "," << v
                                  << "}";
      ASSERT_TRUE(patched_edges.IsLive(pe));
      const auto [pu, pv] = patched_edges.Endpoints(pe);
      ASSERT_EQ(std::make_pair(pu, pv), std::make_pair(u, v));
    }
    for (TriangleId t = 0; t < fresh_tris.NumTriangles(); ++t) {
      const auto& tri = fresh_tris.Vertices(t);
      const TriangleId pt =
          patched_tris.TriangleIdOf(tri[0], tri[1], tri[2]);
      ASSERT_NE(pt, kInvalidTriangle)
          << "live triangle lost: {" << tri[0] << "," << tri[1] << ","
          << tri[2] << "}";
    }
    // No phantom live ids in the patched index beyond the live count.
    std::size_t live_seen = 0;
    for (EdgeId e = 0; e < patched_edges.NumEdges(); ++e) {
      if (!patched_edges.IsLive(e)) continue;
      ++live_seen;
      const auto [u, v] = patched_edges.Endpoints(e);
      ASSERT_TRUE(g.HasEdge(u, v));
    }
    ASSERT_EQ(live_seen, g.NumEdges());

    // Nor phantom live triangle ids: each names a triangle of g and is
    // the id its triple looks up to.
    std::size_t live_tris_seen = 0;
    for (TriangleId t = 0; t < patched_tris.NumTriangles(); ++t) {
      if (!patched_tris.IsLive(t)) continue;
      ++live_tris_seen;
      const auto& tri = patched_tris.Vertices(t);
      ASSERT_TRUE(g.HasEdge(tri[0], tri[1]) && g.HasEdge(tri[0], tri[2]) &&
                  g.HasEdge(tri[1], tri[2]));
      ASSERT_EQ(patched_tris.TriangleIdOf(tri[0], tri[1], tri[2]), t);
    }
    ASSERT_EQ(live_tris_seen, fresh_tris.NumTriangles());

    // --- kappa caches: (1,2) and (2,3) served with zero rebuilds. -----
    const auto core = session.Decompose(DecompositionKind::kCore, warm);
    ASSERT_TRUE(core.ok());
    EXPECT_TRUE(core->served_from_cache);
    EXPECT_EQ(core->kappa, PeelCore(g).kappa);

    const auto truss = session.Decompose(DecompositionKind::kTruss, warm);
    ASSERT_TRUE(truss.ok());
    EXPECT_TRUE(truss->served_from_cache);
    const auto truss_ref = PeelTruss(g, fresh_edges).kappa;
    for (EdgeId e = 0; e < fresh_edges.NumEdges(); ++e) {
      const auto [u, v] = fresh_edges.Endpoints(e);
      ASSERT_EQ(truss->kappa[patched_edges.EdgeIdOf(u, v)], truss_ref[e])
          << "truss kappa mismatch on {" << u << "," << v << "}";
    }

    // --- Engine runs over the PATCHED arenas must equal scratch. ------
    DecomposeOptions fresh_run = warm;
    fresh_run.use_result_cache = false;
    const auto truss_engine =
        session.Decompose(DecompositionKind::kTruss, fresh_run);
    ASSERT_TRUE(truss_engine.ok());
    EXPECT_TRUE(truss_engine->exact);
    for (EdgeId e = 0; e < fresh_edges.NumEdges(); ++e) {
      const auto [u, v] = fresh_edges.Endpoints(e);
      ASSERT_EQ(truss_engine->kappa[patched_edges.EdgeIdOf(u, v)],
                truss_ref[e]);
    }
    const auto n34_engine =
        session.Decompose(DecompositionKind::kNucleus34, fresh_run);
    ASSERT_TRUE(n34_engine.ok());
    EXPECT_TRUE(n34_engine->exact);
    // On the fly, from the patched S-degrees: the same kappa.
    const auto core_fly = session.Decompose(DecompositionKind::kCore, fly);
    ASSERT_TRUE(core_fly.ok());
    EXPECT_EQ(core_fly->kappa, PeelCore(g).kappa);
    const auto truss_fly = session.Decompose(DecompositionKind::kTruss, fly);
    ASSERT_TRUE(truss_fly.ok());
    EXPECT_EQ(truss_fly->kappa, truss_engine->kappa);
    const auto n34_fly =
        session.Decompose(DecompositionKind::kNucleus34, fly);
    ASSERT_TRUE(n34_fly.ok());
    EXPECT_EQ(n34_fly->kappa, n34_engine->kappa);
    const auto n34_ref = PeelNucleus34(g, fresh_tris).kappa;
    for (TriangleId t = 0; t < fresh_tris.NumTriangles(); ++t) {
      const auto& tri = fresh_tris.Vertices(t);
      const TriangleId pt =
          patched_tris.TriangleIdOf(tri[0], tri[1], tri[2]);
      ASSERT_EQ(n34_engine->kappa[pt], n34_ref[t])
          << "(3,4) kappa mismatch on {" << tri[0] << "," << tri[1] << ","
          << tri[2] << "}";
    }
    // Tombstoned ids stay pinned at 0.
    for (EdgeId e = 0; e < patched_edges.NumEdges(); ++e) {
      if (!patched_edges.IsLive(e)) {
        ASSERT_EQ(truss_engine->kappa[e], 0u);
      }
    }
  }

  // The whole churn ran without a single index/arena rebuild (no
  // compaction expected at these sizes: kMinDeadForCompaction tombstones
  // never accumulate).
  const SessionStats stats = session.stats();
  EXPECT_EQ(stats.edge_index_builds, warm_stats.edge_index_builds);
  EXPECT_EQ(stats.triangle_index_builds, warm_stats.triangle_index_builds);
  EXPECT_EQ(stats.truss_arena_builds, warm_stats.truss_arena_builds);
  EXPECT_EQ(stats.nucleus34_arena_builds,
            warm_stats.nucleus34_arena_builds);
  EXPECT_EQ(stats.compactions, 0);
  EXPECT_EQ(stats.incremental_commits, 5);
  EXPECT_EQ(stats.truss_kappa_seeds, 5);
}

TEST(SessionChurn, IncrementalMatchesScratchSingleThread) {
  ChurnAndCheck(1, 17);
}

TEST(SessionChurn, IncrementalMatchesScratchFourThreads) {
  ChurnAndCheck(4, 29);
}

TEST(SessionChurn, IncrementalMatchesScratchEightThreads) {
  ChurnAndCheck(8, 43);
}

}  // namespace
}  // namespace nucleus
