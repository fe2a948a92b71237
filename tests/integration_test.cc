// End-to-end pipelines exercising the public API the way the examples and
// benches do: generate -> decompose -> hierarchy -> metrics -> query.
#include <gtest/gtest.h>

#include "src/clique/four_cliques.h"
#include "src/clique/triangles.h"
#include "src/core/session.h"
#include "src/graph/generators.h"
#include "src/graph/io.h"
#include "src/local/query.h"
#include "src/metrics/accuracy.h"
#include "src/metrics/kendall.h"
#include "src/peel/kcore.h"

namespace nucleus {
namespace {

TEST(Integration, PlantedCommunitiesSurfaceInTrussHierarchy) {
  // Three dense planted blocks: the truss hierarchy must contain at least
  // three disjoint high-k nuclei, one per block.
  const Graph g = GeneratePlantedPartition(3, 14, 0.85, 0.02, 42);
  NucleusSession session(g);
  const auto r =
      session.Decompose(DecompositionKind::kTruss, {.method = Method::kAnd});
  ASSERT_TRUE(r.ok() && r->exact);
  const auto hf = session.HierarchyFor(DecompositionKind::kTruss, r->kappa);
  ASSERT_TRUE(hf.ok());
  const NucleusHierarchy& h = *hf;
  // Count maximal nodes with k >= 5 (deep nuclei).
  std::size_t deep = 0;
  for (const auto& node : h.nodes) {
    const bool parent_shallow =
        node.parent == -1 || h.nodes[node.parent].k < 5;
    if (node.k >= 5 && parent_shallow) ++deep;
  }
  EXPECT_GE(deep, 3u);
}

TEST(Integration, ApproximationQualityImprovesWithIterations) {
  const Graph g = GenerateRmat(9, 8, 7);
  NucleusSession session(g);
  const auto exact = session.Decompose(DecompositionKind::kCore,
                                       {.method = Method::kPeeling});
  ASSERT_TRUE(exact.ok());
  // Every SND run below is a fresh engine run, not the cached exact kappa.
  DecomposeOptions opt;
  opt.method = Method::kSnd;
  opt.use_result_cache = false;
  double prev_tau = -2.0;
  for (int iters : {1, 2, 4, 8}) {
    opt.max_iterations = iters;
    const auto approx = session.Decompose(DecompositionKind::kCore, opt);
    ASSERT_TRUE(approx.ok());
    const double kt = KendallTauB(approx->kappa, exact->kappa);
    EXPECT_GE(kt + 1e-9, prev_tau) << iters << " iterations";
    prev_tau = kt;
    const auto acc = ComputeAccuracy(approx->kappa, exact->kappa);
    EXPECT_GE(acc.exact_fraction, 0.0);
  }
  // Full convergence: perfect agreement.
  opt.max_iterations = 0;
  const auto full = session.Decompose(DecompositionKind::kCore, opt);
  ASSERT_TRUE(full.ok());
  EXPECT_DOUBLE_EQ(KendallTauB(full->kappa, exact->kappa), 1.0);
}

TEST(Integration, SaveLoadDecomposeStable) {
  const Graph g = GenerateBarabasiAlbert(150, 3, 11);
  const std::string path = ::testing::TempDir() + "/integration.bin";
  SaveBinary(g, path);
  const Graph h = LoadBinary(path);
  EXPECT_EQ(CoreNumbers(g), CoreNumbers(h));
}

TEST(Integration, QueryDrivenMatchesGlobalOnConvergedRegion) {
  const Graph g = GeneratePlantedPartition(2, 16, 0.8, 0.03, 17);
  const auto core = CoreNumbers(g);
  // Query every vertex of block 0 with a radius that covers the block.
  std::vector<VertexId> queries;
  for (VertexId v = 0; v < 16; ++v) queries.push_back(v);
  QueryOptions opt;
  opt.radius = 3;
  const auto est = EstimateCoreNumbers(g, queries, opt);
  std::size_t exact = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_GE(est.estimates[i], core[queries[i]]);
    if (est.estimates[i] == core[queries[i]]) ++exact;
  }
  // Dense local structure: most estimates already exact at radius 3.
  EXPECT_GE(exact, queries.size() / 2);
}

TEST(Integration, TableThreeStatisticsPipeline) {
  // The statistics the paper's Table 3 reports, end to end.
  const Graph g = GenerateErdosRenyi(60, 300, 23);
  const EdgeIndex edges(g);
  const TriangleIndex tris(g);
  EXPECT_EQ(edges.NumEdges(), g.NumEdges());
  EXPECT_EQ(tris.NumTriangles(), CountTriangles(g));
  const Count k4 = CountFourCliques(g);
  // Consistency among the three clique levels.
  Count tri_sum = 0;
  for (Degree c : TriangleCountsPerEdge(g, edges)) tri_sum += c;
  EXPECT_EQ(tri_sum, 3 * tris.NumTriangles());
  Count k4_sum = 0;
  for (Degree c : FourCliqueCountsPerTriangle(g, tris)) k4_sum += c;
  EXPECT_EQ(k4_sum, 4 * k4);
}

TEST(Integration, DensityIncreasesDownTheCoreHierarchy) {
  const Graph g = GenerateNestedCliques(3, 5, 4, 3);
  NucleusSession session(g);
  const auto hp =
      session.Hierarchy(DecompositionKind::kCore, {.method = Method::kPeeling});
  ASSERT_TRUE(hp.ok());
  const NucleusHierarchy& h = **hp;
  // For each root-to-leaf chain, subgraph density of the nucleus vertex set
  // must not decrease (denser nuclei nest inside sparser ones).
  for (int root : h.roots) {
    // Walk the chain of first children.
    int id = root;
    double prev_density = -1.0;
    while (true) {
      // Collect vertices of this nucleus = members of subtree.
      std::vector<bool> in(g.NumVertices(), false);
      std::vector<int> stack = {id};
      while (!stack.empty()) {
        const int x = stack.back();
        stack.pop_back();
        for (CliqueId v : h.nodes[x].new_members) in[v] = true;
        for (int c : h.nodes[x].children) stack.push_back(c);
      }
      std::size_t nv = 0, ne = 0;
      for (VertexId v = 0; v < g.NumVertices(); ++v) {
        if (!in[v]) continue;
        ++nv;
        for (VertexId u : g.Neighbors(v)) {
          if (u > v && in[u]) ++ne;
        }
      }
      const double d = SubgraphDensity(nv, ne);
      EXPECT_GE(d + 1e-9, prev_density);
      prev_density = d;
      if (h.nodes[id].children.empty()) break;
      id = h.nodes[id].children.front();
    }
  }
}

}  // namespace
}  // namespace nucleus
