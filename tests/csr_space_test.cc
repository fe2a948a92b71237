// CsrSpace equivalence suite: the materialized adapter must be bitwise
// indistinguishable (tau/kappa) from the on-the-fly spaces for every engine,
// space, and option combination, on the paper fixtures and random graphs.
#include "src/clique/csr_space.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "src/clique/kclique.h"
#include "src/graph/builder.h"
#include "src/core/generic_rs.h"
#include "src/core/session.h"
// Impl headers: this suite instantiates the engines for the non-canonical
// CsrSpace<GenericRsSpace> (the documented extension-point pattern).
#include "src/local/and_impl.h"
#include "src/local/degree_levels_impl.h"
#include "src/local/snd_impl.h"
#include "src/peel/generic_peel.h"
#include "testlib/fixtures.h"

namespace nucleus {
namespace {

std::vector<Graph> TestGraphs() {
  std::vector<Graph> graphs;
  graphs.push_back(testlib::PaperFigure2Graph());
  graphs.push_back(testlib::PaperFigure3TwoK4Graph());
  graphs.push_back(testlib::TwoCliquesBridgedGraph(6, 5));
  for (auto& g : testlib::RandomGraphBatch(4, 77)) {
    graphs.push_back(std::move(g));
  }
  return graphs;
}

// Sorted list of sorted co-member groups — the s-clique set of one r-clique
// in canonical form.
template <typename Space>
std::vector<std::vector<CliqueId>> CanonicalSCliques(const Space& space,
                                                     CliqueId r) {
  std::vector<std::vector<CliqueId>> out;
  space.ForEachSClique(r, [&](std::span<const CliqueId> co) {
    std::vector<CliqueId> group(co.begin(), co.end());
    std::sort(group.begin(), group.end());
    out.push_back(std::move(group));
  });
  std::sort(out.begin(), out.end());
  return out;
}

// The full cross-check for one space: identical degrees, identical s-clique
// sets, and identical results from every engine, across notification on/off
// and 1/4 threads.
template <typename Space>
void ExpectCsrEquivalent(const Space& space) {
  for (const int threads : {1, 4}) {
    const CsrSpace<Space> csr(space, threads);
    ASSERT_EQ(csr.NumRCliques(), space.NumRCliques());
    EXPECT_EQ(csr.InitialDegrees(), space.InitialDegrees());
    for (CliqueId r = 0; r < space.NumRCliques(); ++r) {
      EXPECT_EQ(CanonicalSCliques(csr, r), CanonicalSCliques(space, r))
          << "r-clique " << r;
    }

    // Peeling and degree levels consume the adapter unchanged.
    const PeelResult peel = PeelDecomposition(space);
    EXPECT_EQ(PeelDecomposition(csr).kappa, peel.kappa);
    EXPECT_EQ(ComputeDegreeLevels(csr).level,
              ComputeDegreeLevels(space).level);

    // SND: materialized on vs off must be bitwise identical (tau, sweep
    // count, convergence flag).
    LocalOptions off;
    off.threads = threads;
    off.materialize = Materialize::kOff;
    LocalOptions on = off;
    on.materialize = Materialize::kOn;
    const LocalResult snd_off = SndGeneric(space, off);
    const LocalResult snd_on = SndGeneric(space, on);
    EXPECT_EQ(snd_on.tau, snd_off.tau);
    EXPECT_EQ(snd_on.iterations, snd_off.iterations);
    EXPECT_TRUE(snd_on.converged);
    EXPECT_EQ(snd_off.tau, peel.kappa);

    // AND: notification on/off, engine-materialized and pre-materialized.
    for (const bool notify : {true, false}) {
      AndOptions aoff;
      aoff.local.threads = threads;
      aoff.local.materialize = Materialize::kOff;
      aoff.use_notification = notify;
      AndOptions aon = aoff;
      aon.local.materialize = Materialize::kOn;
      EXPECT_EQ(AndGeneric(space, aoff).tau, peel.kappa);
      EXPECT_EQ(AndGeneric(space, aon).tau, peel.kappa);
      EXPECT_EQ(AndGeneric(csr, aoff).tau, peel.kappa);
    }
  }
}

TEST(CsrSpace, CoreEquivalence) {
  for (const Graph& g : TestGraphs()) {
    ExpectCsrEquivalent(CoreSpace(g));
  }
}

TEST(CsrSpace, TrussEquivalence) {
  for (const Graph& g : TestGraphs()) {
    const EdgeIndex edges(g);
    ExpectCsrEquivalent(TrussSpace(g, edges));
  }
}

TEST(CsrSpace, Nucleus34Equivalence) {
  for (const Graph& g : TestGraphs()) {
    const TriangleIndex tris(g);
    ExpectCsrEquivalent(Nucleus34Space(g, tris));
  }
}

TEST(CsrSpace, GenericRsEquivalence) {
  // (2,4) exercises the generic builder with arity C(4,2)-1 = 5.
  const Graph g = testlib::TwoCliquesBridgedGraph(6, 5);
  const KCliqueIndex pairs(g, 2);
  const GenericRsSpace space(g, pairs, 4);
  EXPECT_EQ(CoMemberArity(space), 5);
  ExpectCsrEquivalent(space);
}

TEST(CsrSpace, ArityMatchesSpace) {
  const Graph g = testlib::PaperFigure3TwoK4Graph();
  const EdgeIndex edges(g);
  const TriangleIndex tris(g);
  EXPECT_EQ(CsrSpace<CoreSpace>(CoreSpace(g)).arity(), 1);
  EXPECT_EQ(CsrSpace<TrussSpace>(TrussSpace(g, edges)).arity(), 2);
  EXPECT_EQ(CsrSpace<Nucleus34Space>(Nucleus34Space(g, tris)).arity(), 3);
}

TEST(CsrSpace, TryBuildRejectsOverBudgetAndReturnsDegrees) {
  const Graph g = testlib::TwoCliquesBridgedGraph(8, 8);
  const EdgeIndex edges(g);
  const TrussSpace space(g, edges);
  std::vector<Degree> degrees;
  auto csr = CsrSpace<TrussSpace>::TryBuild(space, /*threads=*/2,
                                            /*budget_bytes=*/1, &degrees);
  EXPECT_FALSE(csr.has_value());
  // The failed attempt still yields d_3, so the caller never re-counts.
  EXPECT_EQ(degrees, space.InitialDegrees());
  // A generous budget succeeds.
  auto ok = CsrSpace<TrussSpace>::TryBuild(
      space, 2, std::uint64_t{1} << 30, &degrees);
  ASSERT_TRUE(ok.has_value());
  EXPECT_GT(ok->MemoryBytes(), 0u);
}

TEST(CsrSpace, AutoBudgetFallbackMatchesResults) {
  // An impossible budget forces the on-the-fly path inside the engine; the
  // results must not change.
  const Graph g = testlib::RandomGraph(60, 240, 5);
  const EdgeIndex edges(g);
  const TrussSpace space(g, edges);
  LocalOptions tiny;
  tiny.materialize = Materialize::kAuto;
  tiny.materialize_budget_bytes = 1;
  LocalOptions off;
  off.materialize = Materialize::kOff;
  EXPECT_EQ(SndGeneric(space, tiny).tau, SndGeneric(space, off).tau);
}

TEST(CsrSpace, SessionMaterializeKnob) {
  const Graph g = testlib::RandomGraph(50, 200, 9);
  for (const auto kind :
       {DecompositionKind::kCore, DecompositionKind::kTruss,
        DecompositionKind::kNucleus34}) {
    for (const auto method : {Method::kPeeling, Method::kSnd, Method::kAnd}) {
      DecomposeOptions on;
      on.method = method;
      on.materialize = Materialize::kOn;
      DecomposeOptions mat_off = on;
      mat_off.materialize = Materialize::kOff;
      NucleusSession arena_session(g), fly_session(g);
      const auto arena = arena_session.Decompose(kind, on);
      const auto fly = fly_session.Decompose(kind, mat_off);
      ASSERT_TRUE(arena.ok() && fly.ok());
      EXPECT_EQ(arena->kappa, fly->kappa);
    }
  }
}

TEST(CsrSpace, ApplyPatchMatchesRebuiltArena) {
  // Build the truss arena for a K5, then "remove" edge (0,1) by patching:
  // the three triangles {0,1,w} die for w in {2,3,4}. The patched arena
  // must enumerate exactly the co-member sets a scratch arena over the
  // shrunken graph does (compared through the shared surviving ids).
  GraphBuilder b;
  for (VertexId u = 0; u < 5; ++u) {
    for (VertexId v = u + 1; v < 5; ++v) b.AddEdge(u, v);
  }
  const Graph g = b.Build();
  EdgeIndex edges(g);
  const TrussSpace space(g, edges);
  CsrSpace<TrussSpace> arena(space);

  const EdgeId e01 = edges.EdgeIdOf(0, 1);
  std::vector<std::vector<CliqueId>> dead_s;
  for (VertexId w = 2; w < 5; ++w) {
    dead_s.push_back({e01, edges.EdgeIdOf(0, w), edges.EdgeIdOf(1, w)});
  }
  const std::vector<CliqueId> dead_r = {e01};
  arena.ApplyPatch(dead_s, {}, dead_r, edges.NumEdges());

  const auto degrees = arena.InitialDegrees();
  EXPECT_EQ(degrees[e01], 0u);
  // Every other edge of the two dead-triangle fans lost one triangle
  // (3 -> 2); edges among {2,3,4} keep all three.
  for (VertexId w = 2; w < 5; ++w) {
    EXPECT_EQ(degrees[edges.EdgeIdOf(0, w)], 2u);
    EXPECT_EQ(degrees[edges.EdgeIdOf(1, w)], 2u);
  }
  EXPECT_EQ(degrees[edges.EdgeIdOf(2, 3)], 3u);
  // Dead r-clique enumerates nothing; live ones never report e01.
  arena.ForEachSClique(e01, [&](std::span<const CliqueId>) { FAIL(); });
  std::size_t groups = 0;
  for (VertexId w = 2; w < 5; ++w) {
    arena.ForEachSClique(edges.EdgeIdOf(0, w),
                         [&](std::span<const CliqueId> co) {
                           ++groups;
                           for (CliqueId c : co) EXPECT_NE(c, e01);
                         });
  }
  EXPECT_EQ(groups, 6u);
  // Patch the fan back in (edge restored): sentinel slots are reused, and
  // the arena matches the pristine build again.
  arena.ApplyPatch({}, dead_s, {}, edges.NumEdges());
  const CsrSpace<TrussSpace> pristine(space);
  EXPECT_EQ(arena.InitialDegrees(), pristine.InitialDegrees());
  for (EdgeId e = 0; e < edges.NumEdges(); ++e) {
    std::vector<std::vector<CliqueId>> got, want;
    const auto collect = [](std::vector<std::vector<CliqueId>>* out) {
      return [out](std::span<const CliqueId> co) {
        std::vector<CliqueId> group(co.begin(), co.end());
        std::sort(group.begin(), group.end());
        out->push_back(std::move(group));
      };
    };
    arena.ForEachSClique(e, collect(&got));
    pristine.ForEachSClique(e, collect(&want));
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << "edge " << e;
  }
}

}  // namespace
}  // namespace nucleus
