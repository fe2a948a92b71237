#include "src/local/dynamic.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/graph/builder.h"
#include "src/graph/generators.h"
#include "src/peel/kcore.h"
#include "tests/testlib/maintained_graph.h"

namespace nucleus {
namespace {

using Core = testlib::MaintainedGraph<DynamicCoreMaintainer>;

TEST(DynamicCore, StartsFromExactCoreNumbers) {
  const Graph g = GenerateBarabasiAlbert(100, 3, 1);
  Core m(g);
  EXPECT_EQ(m.maintainer().CoreNumbersView(), CoreNumbers(g));
  EXPECT_EQ(m.NumEdges(), g.NumEdges());
}

TEST(DynamicCore, InsertBuildTriangle) {
  Core m(BuildGraphFromEdges(3, {}));
  EXPECT_TRUE(m.InsertEdge(0, 1));
  EXPECT_TRUE(m.InsertEdge(1, 2));
  EXPECT_EQ(m.maintainer().CoreNumbersView(), (std::vector<Degree>{1, 1, 1}));
  EXPECT_TRUE(m.InsertEdge(0, 2));
  EXPECT_EQ(m.maintainer().CoreNumbersView(), (std::vector<Degree>{2, 2, 2}));
}

TEST(DynamicCore, RemoveBreaksTriangle) {
  Core m(BuildGraphFromEdges(3, {}));
  m.InsertEdge(0, 1);
  m.InsertEdge(1, 2);
  m.InsertEdge(0, 2);
  EXPECT_TRUE(m.RemoveEdge(0, 1));
  EXPECT_EQ(m.maintainer().CoreNumbersView(), (std::vector<Degree>{1, 1, 1}));
  EXPECT_EQ(m.NumEdges(), 2u);
}

TEST(DynamicCore, RejectsInvalidOperations) {
  Core m(BuildGraphFromEdges(3, {}));
  EXPECT_FALSE(m.InsertEdge(0, 0));     // loop
  EXPECT_FALSE(m.InsertEdge(0, 9));     // out of range
  EXPECT_TRUE(m.InsertEdge(0, 1));
  EXPECT_FALSE(m.InsertEdge(1, 0));     // duplicate
  EXPECT_FALSE(m.RemoveEdge(1, 2));     // absent
  EXPECT_FALSE(m.RemoveEdge(2, 2));     // loop
}

TEST(DynamicCore, InsertionSequenceMatchesRecompute) {
  // Build a graph edge by edge; after every insertion the maintained core
  // numbers must equal a fresh decomposition.
  const Graph target = GenerateErdosRenyi(40, 200, 7);
  Core m(BuildGraphFromEdges(target.NumVertices(), {}));
  for (VertexId u = 0; u < target.NumVertices(); ++u) {
    for (VertexId v : target.Neighbors(u)) {
      if (v < u) continue;
      ASSERT_TRUE(m.InsertEdge(u, v));
      EXPECT_EQ(m.maintainer().CoreNumbersView(), CoreNumbers(m.ToGraph()))
          << "after inserting (" << u << "," << v << ")";
    }
  }
  EXPECT_EQ(m.maintainer().CoreNumbersView(), CoreNumbers(target));
}

TEST(DynamicCore, MixedChurnMatchesRecompute) {
  Rng rng(3);
  const std::size_t n = 30;
  Core m(BuildGraphFromEdges(n, {}));
  for (int step = 0; step < 400; ++step) {
    const VertexId u = static_cast<VertexId>(rng.UniformInt(0, n - 1));
    const VertexId v = static_cast<VertexId>(rng.UniformInt(0, n - 1));
    if (rng.Flip(0.7)) {
      m.InsertEdge(u, v);
    } else {
      m.RemoveEdge(u, v);
    }
    ASSERT_EQ(m.maintainer().CoreNumbersView(), CoreNumbers(m.ToGraph()))
        << "step " << step;
  }
}

TEST(DynamicCore, DeletionSequenceMatchesRecompute) {
  const Graph g = GenerateBarabasiAlbert(35, 3, 13);
  Core m(g);
  Rng rng(5);
  // Delete edges in random order, checking after each.
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    for (VertexId v : g.Neighbors(u)) {
      if (u < v) edges.emplace_back(u, v);
    }
  }
  rng.Shuffle(&edges);
  for (const auto& [u, v] : edges) {
    ASSERT_TRUE(m.RemoveEdge(u, v));
    ASSERT_EQ(m.maintainer().CoreNumbersView(), CoreNumbers(m.ToGraph()));
  }
  EXPECT_EQ(m.NumEdges(), 0u);
}

TEST(DynamicCore, RepairWorkLocalOnKappaDiverseGraphs) {
  // Locality of the repair is bounded by the subcore (the connected region
  // of equal kappa around the endpoints). On kappa-diverse graphs such as
  // nested cliques the subcores are small, so single-edge repair touches a
  // small fraction of the graph. (On near-regular graphs — sparse ER, WS —
  // the subcore is a giant component and no single-edge algorithm can be
  // sublinear; that is a property of the data, not the algorithm.)
  const Graph g = GenerateNestedCliques(8, 5, 4, 11);
  Core m(g);
  std::size_t total_work = 0;
  Rng rng(17);
  int inserted = 0;
  const std::size_t n = g.NumVertices();
  for (int i = 0; i < 30; ++i) {
    const VertexId u = static_cast<VertexId>(rng.UniformInt(0, n - 1));
    const VertexId v = static_cast<VertexId>(rng.UniformInt(0, n - 1));
    if (m.InsertEdge(u, v)) {
      ++inserted;
      total_work += m.LastRepairWork();
      // Work may never exceed the graph plus its boundary.
      EXPECT_LE(m.LastRepairWork(), n);
    }
  }
  ASSERT_GT(inserted, 0);
  EXPECT_LT(total_work / inserted, n / 2);
}

TEST(DynamicCore, ToGraphRoundTrip) {
  const Graph g = GenerateWattsStrogatz(60, 4, 0.2, 9);
  Core m(g);
  const Graph back = m.ToGraph();
  EXPECT_EQ(back.Offsets(), g.Offsets());
  EXPECT_EQ(back.NeighborArray(), g.NeighborArray());
}

TEST(DynamicCore, InsertIntoEmptyGraph) {
  Core m(BuildGraphFromEdges(5, {}));
  EXPECT_EQ(m.NumEdges(), 0u);
  for (Degree k : m.maintainer().CoreNumbersView()) EXPECT_EQ(k, 0u);
  m.InsertEdge(0, 1);
  EXPECT_EQ(m.maintainer().CoreNumbersView()[0], 1u);
  EXPECT_EQ(m.maintainer().CoreNumbersView()[4], 0u);
}

}  // namespace
}  // namespace nucleus
