// Robustness / failure-injection tests for the input-facing layers:
// hostile edge lists, extreme ids, whitespace variants, and degenerate
// graphs pushed through the full pipeline.
#include <gtest/gtest.h>

#include <fstream>
#include <limits>

#include "src/common/rng.h"
#include "src/core/session.h"
#include "src/graph/builder.h"
#include "src/graph/generators.h"
#include "src/graph/io.h"
#include "src/peel/generic_peel.h"

namespace nucleus {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(Robustness, BuilderHandlesHuge64BitIds) {
  GraphBuilder b(/*relabel=*/true);
  const std::uint64_t big = std::numeric_limits<std::uint64_t>::max();
  b.AddEdge(big, big - 1);
  b.AddEdge(big - 1, 0);
  const Graph g = b.Build();
  EXPECT_EQ(g.NumVertices(), 3u);
  EXPECT_EQ(g.NumEdges(), 2u);
}

TEST(Robustness, BuilderHeavyDuplication) {
  GraphBuilder b(/*relabel=*/false);
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    b.AddEdge(rng.UniformInt(0, 9), rng.UniformInt(0, 9));
  }
  const Graph g = b.Build();
  EXPECT_LE(g.NumEdges(), 45u);  // at most C(10,2)
  // Adjacency stays canonical.
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    const auto nb = g.Neighbors(v);
    for (std::size_t i = 1; i < nb.size(); ++i) {
      EXPECT_LT(nb[i - 1], nb[i]);
    }
  }
}

TEST(Robustness, LoaderAcceptsWhitespaceVariants) {
  const std::string path = TempPath("ws.txt");
  {
    std::ofstream out(path);
    out << "0 1\n"
        << "  2   3  \n"      // leading/trailing spaces
        << "4\t5\n"            // tab separated
        << "\n"                // blank line
        << "# comment\n"
        << "6 7";              // no trailing newline
  }
  const Graph g = LoadEdgeListText(path);
  EXPECT_EQ(g.NumEdges(), 4u);
}

TEST(Robustness, LoaderRejectsGarbageTokens) {
  for (const char* body : {"0 x\n", "a b\n", "1\n2 zz\n"}) {
    const std::string path = TempPath("garbage.txt");
    std::ofstream(path) << body;
    EXPECT_THROW(LoadEdgeListText(path), std::runtime_error) << body;
  }
}

TEST(Robustness, EmptyFileIsEmptyGraph) {
  const std::string path = TempPath("empty.txt");
  std::ofstream(path).close();
  const Graph g = LoadEdgeListText(path);
  EXPECT_EQ(g.NumVertices(), 0u);
  EXPECT_EQ(g.NumEdges(), 0u);
}

TEST(Robustness, FullPipelineOnDegenerateGraphs) {
  // Every decomposition method must handle these without crashing and
  // agree with each other.
  const Graph graphs[] = {
      Graph{},                                  // empty
      BuildGraphFromEdges(1, {}),               // single vertex
      BuildGraphFromEdges(2, {{0, 1}}),         // single edge
      GenerateStar(3),                          // smallest star
      GenerateComplete(3),                      // single triangle
      GenerateComplete(4),                      // single K4
      BuildGraphFromEdges(10, {{0, 1}}),        // mostly isolated
  };
  for (const Graph& g : graphs) {
    for (auto kind : {DecompositionKind::kCore, DecompositionKind::kTruss,
                      DecompositionKind::kNucleus34}) {
      NucleusSession session(g);
      const auto p = session.Decompose(kind, {.method = Method::kPeeling});
      const auto s = session.Decompose(
          kind, {.method = Method::kSnd, .use_result_cache = false});
      const auto a = session.Decompose(
          kind, {.method = Method::kAnd, .use_result_cache = false});
      ASSERT_TRUE(p.ok() && s.ok() && a.ok());
      EXPECT_EQ(p->kappa, s->kappa);
      EXPECT_EQ(p->kappa, a->kappa);
      const auto h = session.HierarchyFor(kind, p->kappa);
      ASSERT_TRUE(h.ok());
      std::size_t total = 0;
      for (int root : h->roots) total += h->nodes[root].size;
      EXPECT_EQ(total, p->num_r_cliques);
    }
  }
}

TEST(Robustness, LargeStarDoesNotOverflowHIndexPath) {
  // A 50k-leaf star exercises the h-index path with one huge list.
  const Graph g = GenerateStar(50001);
  NucleusSession session(g);
  const auto r =
      session.Decompose(DecompositionKind::kCore, {.method = Method::kSnd});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->kappa[0], 1u);
  EXPECT_EQ(r->kappa[1], 1u);
}

TEST(Robustness, MaxIterationsZeroMeansConvergence) {
  const Graph g = GenerateBarabasiAlbert(100, 3, 3);
  DecomposeOptions opt;
  opt.method = Method::kSnd;
  opt.max_iterations = 0;
  NucleusSession session(g);
  const auto r = session.Decompose(DecompositionKind::kCore, opt);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->exact);
}

TEST(Robustness, NegativeLikeThreadCountsClampSafely) {
  const Graph g = GenerateCycle(20);
  DecomposeOptions opt;
  opt.method = Method::kSnd;
  opt.threads = 0;  // treated as sequential
  NucleusSession session(g);
  const auto r = session.Decompose(DecompositionKind::kCore, opt);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->kappa, PeelCore(g).kappa);
}

}  // namespace
}  // namespace nucleus
