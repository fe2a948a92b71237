// The dynamic-graph certification battery: a 100-commit small-batch churn
// over a NucleusSession with all three kappa caches AND all three cached
// hierarchies warm. After EVERY commit, for every space:
//   - Decompose must be served from cache (zero engine reruns),
//   - every patched kappa value must equal a from-scratch peel on the
//     mutated graph (compared through the endpoint-pair / vertex-triple
//     mapping, since patched ids are stable while fresh ids re-densify),
//   - the repaired cached hierarchy must be bitwise-equal, node for node,
//     to a full from-scratch rebuild over the same patched id space —
//     which also pins the level partition: new_members of the level-k
//     nodes ARE the kappa == k live ids.
// The final stats prove the contract: zero index/arena/hierarchy
// builds beyond the warm-up, zero compactions, one (2,3) and one (3,4)
// kappa re-seed plus three hierarchy repairs per commit. Runs at 1, 4,
// and 8 threads, with concurrent reader bursts interleaved between
// commits to drive the shared-lock read paths under churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/clique/edge_index.h"
#include "src/clique/triangles.h"
#include "src/common/rng.h"
#include "src/core/session.h"
#include "src/graph/generators.h"
#include "src/peel/generic_peel.h"
#include "src/peel/hierarchy.h"

namespace nucleus {
namespace {

constexpr int kRounds = 100;
constexpr int kOpsPerRound = 4;
// The churn toggles a fixed pool of pairs, so at most kPoolSize ids are
// ever simultaneously tombstoned — below kMinDeadForCompaction, which
// keeps the whole run compaction-free by construction.
constexpr int kPoolSize = 24;
constexpr DecompositionKind kKinds[] = {DecompositionKind::kCore,
                                        DecompositionKind::kTruss,
                                        DecompositionKind::kNucleus34};

void ExpectHierarchiesEqual(const NucleusHierarchy& got,
                            const NucleusHierarchy& want, const char* what) {
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

// After a commit, for every space: Decompose is served from cache, every
// patched kappa value equals a from-scratch peel on the mutated graph,
// and the repaired cached hierarchy is bitwise-equal to a full rebuild.
void CertifyCommit(NucleusSession& session, const DecomposeOptions& warm,
                   int threads, const std::string& what) {
  const Graph& g = session.graph();
  const EdgeIndex fresh_edges(g);
  const TriangleIndex fresh_tris(g, threads);
  const EdgeIndex& patched_edges = session.Edges();
  const TriangleIndex& patched_tris = session.Triangles(threads);
  const auto core_ref = PeelCore(g).kappa;
  const auto truss_ref = PeelTruss(g, fresh_edges).kappa;
  const auto n34_ref = PeelNucleus34(g, fresh_tris).kappa;

  for (auto kind : kKinds) {
    // Every read after the commit is a cache hit: zero engine reruns.
    const auto res = session.Decompose(kind, warm);
    ASSERT_TRUE(res.ok());
    ASSERT_TRUE(res->served_from_cache) << what;
    ASSERT_TRUE(res->exact);

    // Patched kappa equals from-scratch peel, value for value.
    if (kind == DecompositionKind::kCore) {
      ASSERT_EQ(res->kappa, core_ref) << what;
    } else if (kind == DecompositionKind::kTruss) {
      for (EdgeId e = 0; e < fresh_edges.NumEdges(); ++e) {
        const auto [u, v] = fresh_edges.Endpoints(e);
        const EdgeId pe = patched_edges.EdgeIdOf(u, v);
        ASSERT_NE(pe, kInvalidEdge);
        ASSERT_EQ(res->kappa[pe], truss_ref[e])
            << what << " edge {" << u << "," << v << "}";
      }
    } else {
      for (TriangleId t = 0; t < fresh_tris.NumTriangles(); ++t) {
        const auto& tri = fresh_tris.Vertices(t);
        const TriangleId pt =
            patched_tris.TriangleIdOf(tri[0], tri[1], tri[2]);
        ASSERT_NE(pt, kInvalidTriangle);
        ASSERT_EQ(res->kappa[pt], n34_ref[t])
            << what << " triangle {" << tri[0] << ","
            << tri[1] << "," << tri[2] << "}";
      }
    }

    // The repaired cached hierarchy is bitwise-equal to a full rebuild
    // over the same patched id space (HierarchyFor runs BuildHierarchy
    // from scratch and bypasses the cache).
    const auto repaired = session.Hierarchy(kind, warm);
    ASSERT_TRUE(repaired.ok());
    auto rebuilt = session.HierarchyFor(kind, res->kappa);
    ASSERT_TRUE(rebuilt.ok());
    ExpectHierarchiesEqual(**repaired, *rebuilt,
                           kind == DecompositionKind::kCore    ? "core"
                           : kind == DecompositionKind::kTruss ? "truss"
                                                               : "n34");
  }
}

void ChurnAndCertify(int threads, std::uint64_t seed) {
  const Graph initial = GeneratePlantedPartition(3, 14, 0.55, 0.05, 13);
  NucleusSession session(initial);

  DecomposeOptions warm;
  warm.method = Method::kAnd;
  warm.threads = threads;
  warm.materialize = Materialize::kOn;  // force arenas so patches are hit
  for (auto kind : kKinds) {
    ASSERT_TRUE(session.Decompose(kind, warm).ok());
    ASSERT_TRUE(session.Hierarchy(kind, warm).ok());  // cache all three
  }
  const SessionStats warm_stats = session.stats();
  ASSERT_EQ(warm_stats.hierarchy_builds, 3);

  // A fixed pool of churnable pairs: every op toggles one (remove when
  // present, insert when absent), so removed ids get revived instead of
  // accumulating tombstones.
  Rng rng(seed);
  const std::size_t n = initial.NumVertices();
  std::vector<std::pair<VertexId, VertexId>> pool;
  while (pool.size() < kPoolSize) {
    const VertexId u = static_cast<VertexId>(rng.UniformInt(0, n - 1));
    const VertexId v = static_cast<VertexId>(rng.UniformInt(0, n - 1));
    if (u == v) continue;
    const auto p = std::minmax(u, v);
    if (std::find(pool.begin(), pool.end(),
                  std::make_pair(p.first, p.second)) == pool.end()) {
      pool.emplace_back(p.first, p.second);
    }
  }

  for (int round = 0; round < kRounds; ++round) {
    auto batch = session.BeginUpdates();
    ASSERT_TRUE(batch.MaintainsTruss());
    ASSERT_TRUE(batch.MaintainsNucleus34());
    int applied = 0;
    while (applied < kOpsPerRound) {
      const auto& [u, v] = pool[rng.UniformInt(0, pool.size() - 1)];
      if (batch.InsertEdge(u, v) || batch.RemoveEdge(u, v)) ++applied;
    }
    // Concurrent readers race a few commits: Decompose returns by value,
    // so a commit landing mid-burst is safe (and TSAN-checked).
    if (round % 25 == 24) {
      std::vector<std::thread> readers;
      for (int r = 0; r < 4; ++r) {
        readers.emplace_back([&session, &warm] {
          for (int i = 0; i < 3; ++i) {
            for (auto kind : kKinds) {
              auto res = session.Decompose(kind, warm);
              ASSERT_TRUE(res.ok());
            }
          }
        });
      }
      ASSERT_TRUE(batch.Commit().ok());
      for (auto& t : readers) t.join();
    } else {
      ASSERT_TRUE(batch.Commit().ok());
    }

    ASSERT_NO_FATAL_FAILURE(CertifyCommit(session, warm, threads,
                                          "round " + std::to_string(round)));
  }

  // The contract, in counters: the whole 100-commit churn ran with zero
  // engine reruns, zero index/arena rebuilds, zero full hierarchy
  // rebuilds (only localized repairs), and zero compactions.
  const SessionStats stats = session.stats();
  EXPECT_EQ(stats.edge_index_builds, warm_stats.edge_index_builds);
  EXPECT_EQ(stats.triangle_index_builds, warm_stats.triangle_index_builds);
  EXPECT_EQ(stats.core_arena_builds, warm_stats.core_arena_builds);
  EXPECT_EQ(stats.truss_arena_builds, warm_stats.truss_arena_builds);
  EXPECT_EQ(stats.nucleus34_arena_builds,
            warm_stats.nucleus34_arena_builds);
  EXPECT_EQ(stats.hierarchy_builds, warm_stats.hierarchy_builds);
  EXPECT_EQ(stats.compactions, 0);
  EXPECT_EQ(stats.incremental_commits, kRounds);
  EXPECT_EQ(stats.truss_kappa_seeds, kRounds);
  EXPECT_EQ(stats.nucleus34_kappa_seeds, kRounds);
  EXPECT_EQ(stats.hierarchy_repairs, 3 * kRounds);
}

// An absent pair (present == false) or an edge whose triangles sit in
// 4-cliques, avoiding the vertices in `avoid`.
std::pair<VertexId, VertexId> PairWithQuads(
    const Graph& g, bool present, const std::vector<VertexId>& avoid) {
  const auto avoided = [&](VertexId x) {
    return std::find(avoid.begin(), avoid.end(), x) != avoid.end();
  };
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    for (VertexId v = u + 1; v < g.NumVertices(); ++v) {
      if (g.HasEdge(u, v) != present || avoided(u) || avoided(v)) continue;
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

TEST(SessionChurn34, RebirthWithinOneBatch) {
  // Case 1: a batch inserts an edge that carries born triangles and
  // 4-cliques and later removes it again; case 2: a batch removes an edge
  // of live triangles and later re-inserts it. Each happens among other
  // mutations, so the net delta is just those others, while the
  // maintainers pass through a side-store slot that dies (case 1) and a
  // base id that dies and is re-born (case 2). Kappa and hierarchies of
  // every kind must still equal the rebuild.
  const Graph initial = GeneratePlantedPartition(3, 14, 0.55, 0.05, 13);
  NucleusSession session(initial);
  DecomposeOptions warm;
  warm.threads = 2;
  warm.materialize = Materialize::kOn;
  for (auto kind : kKinds) {
    ASSERT_TRUE(session.Decompose(kind, warm).ok());
    ASSERT_TRUE(session.Hierarchy(kind, warm).ok());
  }
  const auto born = PairWithQuads(initial, false, {});
  const auto live = PairWithQuads(initial, true, {born.first, born.second});
  const auto other_in =
      PairWithQuads(initial, false,
                    {born.first, born.second, live.first, live.second});
  const auto other_out = PairWithQuads(
      initial, true,
      {born.first, born.second, live.first, live.second, other_in.first,
       other_in.second});
  for (const auto& [u, v] : {born, live, other_in, other_out}) {
    ASSERT_NE(u, v);
  }

  {
    auto batch = session.BeginUpdates();
    ASSERT_TRUE(batch.MaintainsNucleus34());
    ASSERT_TRUE(batch.InsertEdge(born.first, born.second));
    ASSERT_TRUE(batch.RemoveEdge(other_out.first, other_out.second));
    ASSERT_TRUE(batch.InsertEdge(other_in.first, other_in.second));
    ASSERT_TRUE(batch.RemoveEdge(born.first, born.second));
    ASSERT_TRUE(batch.Commit().ok());
  }
  ASSERT_NO_FATAL_FAILURE(CertifyCommit(session, warm, 2, "born then dead"));

  {
    auto batch = session.BeginUpdates();
    ASSERT_TRUE(batch.MaintainsNucleus34());
    ASSERT_TRUE(batch.RemoveEdge(live.first, live.second));
    ASSERT_TRUE(batch.InsertEdge(other_out.first, other_out.second));
    ASSERT_TRUE(batch.RemoveEdge(other_in.first, other_in.second));
    ASSERT_TRUE(batch.InsertEdge(live.first, live.second));
    ASSERT_TRUE(batch.Commit().ok());
  }
  ASSERT_NO_FATAL_FAILURE(CertifyCommit(session, warm, 2, "dead then reborn"));
  EXPECT_EQ(session.stats().nucleus34_kappa_seeds, 2);
  EXPECT_EQ(session.stats().hierarchy_repairs, 6);
}

TEST(SessionChurn34, CertifiedSingleThread) { ChurnAndCertify(1, 101); }

TEST(SessionChurn34, CertifiedFourThreads) { ChurnAndCertify(4, 211); }

TEST(SessionChurn34, CertifiedEightThreads) { ChurnAndCertify(8, 307); }

}  // namespace
}  // namespace nucleus
