#include "src/local/query.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <queue>
#include <unordered_map>

#include "src/clique/spaces.h"
#include "src/common/h_index.h"
#include "src/common/rng.h"
#include "src/core/session.h"
#include "src/graph/builder.h"
#include "src/graph/generators.h"
#include "src/peel/generic_peel.h"

namespace nucleus {
namespace {

// Reference: the synchronous (Jacobi) iteration over hashed tau, generic
// over the clique space and sharing neither the estimators' region arena
// nor the AND engine. Region ids iterate from their S-degree; every other
// id reads its S-degree. Each sweep computes from a copy of the previous
// one.
template <typename Space>
QueryEstimate JacobiReference(const Space& space,
                              const std::vector<CliqueId>& region,
                              std::span<const CliqueId> queries,
                              int max_iterations) {
  const std::vector<Degree> d = space.InitialDegrees();
  std::unordered_map<CliqueId, Degree> tau;
  for (CliqueId r : region) tau[r] = d[r];
  QueryEstimate result;
  result.region_size = region.size();
  HIndexScratch scratch;
  for (int iter = 0; max_iterations == 0 || iter < max_iterations; ++iter) {
    const std::unordered_map<CliqueId, Degree> prev = tau;
    auto prev_of = [&](CliqueId c) {
      const auto it = prev.find(c);
      return it == prev.end() ? d[c] : it->second;
    };
    std::size_t updates = 0;
    for (CliqueId r : region) {
      auto& rhos = scratch.values();
      rhos.clear();
      space.ForEachSClique(r, [&](std::span<const CliqueId> co) {
        Degree rho = prev_of(co[0]);
        for (CliqueId c : co) rho = std::min(rho, prev_of(c));
        rhos.push_back(rho);
      });
      const Degree next = std::min(scratch.Compute(), prev_of(r));
      if (next != prev_of(r)) {
        tau[r] = next;
        ++updates;
      }
    }
    ++result.iterations;
    if (updates == 0) {
      result.converged = true;
      break;
    }
  }
  for (CliqueId q : queries) result.estimates.push_back(tau.at(q));
  return result;
}

// Vertices within `radius` hops of the seeds, as flags.
std::vector<char> InBall(const Graph& g, const std::vector<VertexId>& seeds,
                         int radius) {
  std::vector<int> dist(g.NumVertices(), -1);
  std::queue<VertexId> frontier;
  for (VertexId s : seeds) {
    if (dist[s] < 0) frontier.push(s);
    dist[s] = 0;
  }
  while (!frontier.empty()) {
    const VertexId v = frontier.front();
    frontier.pop();
    if (dist[v] == radius) continue;
    for (VertexId u : g.Neighbors(v)) {
      if (dist[u] < 0) {
        dist[u] = dist[v] + 1;
        frontier.push(u);
      }
    }
  }
  std::vector<char> in(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) in[v] = dist[v] >= 0;
  return in;
}

// The library estimate and the Jacobi reference over the same region, for
// each kind: the region is every live r-clique whose vertices all lie in
// the ball around the queries' vertices.
struct EstimatePair {
  QueryEstimate got;
  QueryEstimate want;
};

EstimatePair CoreCase(const Graph& g, std::span<const CliqueId> q,
                      const QueryOptions& opt) {
  const auto in = InBall(g, {q.begin(), q.end()}, opt.radius);
  std::vector<CliqueId> region;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (in[v]) region.push_back(v);
  }
  return {EstimateCoreNumbers(g, q, opt),
          JacobiReference(CoreSpace(g), region, q, opt.max_iterations)};
}

EstimatePair TrussCase(const Graph& g, const EdgeIndex& edges,
                       std::span<const CliqueId> q, const QueryOptions& opt) {
  std::vector<VertexId> seeds;
  for (CliqueId e : q) {
    seeds.push_back(edges.Endpoints(e).first);
    seeds.push_back(edges.Endpoints(e).second);
  }
  const auto in = InBall(g, seeds, opt.radius);
  std::vector<CliqueId> region;
  for (EdgeId e = 0; e < edges.NumEdges(); ++e) {
    const auto [u, v] = edges.Endpoints(e);
    if (edges.IsLive(e) && in[u] && in[v]) region.push_back(e);
  }
  return {EstimateTrussNumbers(g, edges, q, opt),
          JacobiReference(TrussSpace(g, edges), region, q,
                          opt.max_iterations)};
}

EstimatePair Nucleus34Case(const Graph& g, const TriangleIndex& tris,
                           std::span<const CliqueId> q,
                           const QueryOptions& opt) {
  std::vector<VertexId> seeds;
  for (CliqueId t : q) {
    for (VertexId v : tris.Vertices(t)) seeds.push_back(v);
  }
  const auto in = InBall(g, seeds, opt.radius);
  std::vector<CliqueId> region;
  for (TriangleId t = 0; t < tris.NumTriangles(); ++t) {
    const auto& tri = tris.Vertices(t);
    if (tris.IsLive(t) && in[tri[0]] && in[tri[1]] && in[tri[2]]) {
      region.push_back(t);
    }
  }
  return {EstimateNucleus34Numbers(g, tris, q, opt),
          JacobiReference(Nucleus34Space(g, tris), region, q,
                          opt.max_iterations)};
}

// Four sampled ids plus a duplicate of the first.
std::vector<CliqueId> SampleWithDuplicate(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<CliqueId> ids;
  for (auto i : rng.SampleWithoutReplacement(n, 4)) {
    ids.push_back(static_cast<CliqueId>(i));
  }
  ids.push_back(ids.front());
  return ids;
}

TEST(QueryCore, EstimateIsAlwaysUpperBound) {
  const Graph g = GenerateBarabasiAlbert(200, 3, 5);
  const auto kappa = PeelCore(g).kappa;
  Rng rng(1);
  std::vector<VertexId> queries;
  for (auto i : rng.SampleWithoutReplacement(g.NumVertices(), 20)) {
    queries.push_back(static_cast<VertexId>(i));
  }
  for (int radius = 0; radius <= 3; ++radius) {
    QueryOptions opt;
    opt.radius = radius;
    const auto est = EstimateCoreNumbers(g, queries, opt);
    ASSERT_EQ(est.estimates.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_GE(est.estimates[i], kappa[queries[i]]) << "radius " << radius;
    }
  }
}

TEST(QueryCore, LargeRadiusIsExact) {
  const Graph g = GenerateErdosRenyi(60, 180, 3);
  const auto kappa = PeelCore(g).kappa;
  std::vector<VertexId> queries = {0, 5, 10, 30, 59};
  QueryOptions opt;
  opt.radius = 1000;  // covers the whole graph
  const auto est = EstimateCoreNumbers(g, queries, opt);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(est.estimates[i], kappa[queries[i]]);
  }
}

TEST(QueryCore, RadiusZeroIsHIndexOfDegrees) {
  // Radius 0: only the query vertex iterates; its fixed point is
  // H(neighbor degrees) (one update) -- still an upper bound of kappa.
  const Graph g = GenerateStar(10);
  std::vector<VertexId> queries = {0};
  QueryOptions opt;
  opt.radius = 0;
  const auto est = EstimateCoreNumbers(g, queries, opt);
  // Hub of a star: neighbors all have degree 1 -> estimate 1 == kappa.
  EXPECT_EQ(est.estimates[0], 1u);
}

TEST(QueryCore, EstimatesImproveWithRadius) {
  const Graph g = GeneratePlantedPartition(3, 20, 0.6, 0.03, 9);
  std::vector<VertexId> queries = {0, 25, 45};
  Degree prev_sum = kInvalidClique;
  for (int radius = 0; radius <= 4; ++radius) {
    QueryOptions opt;
    opt.radius = radius;
    const auto est = EstimateCoreNumbers(g, queries, opt);
    Degree sum = 0;
    for (Degree e : est.estimates) sum += e;
    EXPECT_LE(sum, prev_sum) << "radius " << radius;
    prev_sum = sum;
  }
}

TEST(QueryCore, RegionGrowsWithRadius) {
  const Graph g = GenerateBarabasiAlbert(300, 3, 13);
  std::vector<VertexId> queries = {7};
  std::size_t prev = 0;
  for (int radius = 0; radius <= 3; ++radius) {
    QueryOptions opt;
    opt.radius = radius;
    const auto est = EstimateCoreNumbers(g, queries, opt);
    EXPECT_GE(est.region_size, prev);
    prev = est.region_size;
  }
  EXPECT_LT(prev, g.NumVertices());  // still local at radius 3? (hub graphs
                                     // may cover everything; just sanity)
}

TEST(QueryCore, MaxIterationsCaps) {
  const Graph g = GenerateErdosRenyi(80, 240, 21);
  std::vector<VertexId> queries = {1, 2, 3};
  QueryOptions opt;
  opt.radius = 2;
  opt.max_iterations = 1;
  const auto est = EstimateCoreNumbers(g, queries, opt);
  EXPECT_EQ(est.iterations, 1);
}

TEST(QueryTruss, EstimateIsUpperBoundAndConvergesWithRadius) {
  const Graph g = GeneratePlantedPartition(2, 18, 0.7, 0.05, 31);
  const EdgeIndex edges(g);
  const auto kappa = PeelTruss(g, edges).kappa;
  std::vector<EdgeId> queries = {0, 5, 11, 40};
  for (int radius = 0; radius <= 2; ++radius) {
    QueryOptions opt;
    opt.radius = radius;
    const auto est = EstimateTrussNumbers(g, edges, queries, opt);
    ASSERT_EQ(est.estimates.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_GE(est.estimates[i], kappa[queries[i]]) << "radius " << radius;
    }
  }
  QueryOptions full;
  full.radius = 100;
  const auto est = EstimateTrussNumbers(g, edges, queries, full);
  EXPECT_TRUE(est.converged);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(est.estimates[i], kappa[queries[i]]);
  }
}

TEST(QueryTruss, TriangleFreeEdgesAreZero) {
  const Graph g = GenerateGrid(6, 6);
  const EdgeIndex edges(g);
  std::vector<EdgeId> queries = {0, 1, 2};
  const auto est = EstimateTrussNumbers(g, edges, queries, {});
  for (Degree e : est.estimates) EXPECT_EQ(e, 0u);
}

TEST(QueryNucleus34, EstimateIsUpperBoundAndMonotoneInRadius) {
  // Property sweep across seeds: every estimate upper-bounds the exact
  // kappa_4 at every radius, and estimates tighten monotonically per
  // query as the radius grows.
  for (std::uint64_t seed : {3u, 11u, 27u}) {
    const Graph g = GeneratePlantedPartition(3, 14, 0.6, 0.05, seed);
    const TriangleIndex tris(g);
    ASSERT_GT(tris.NumTriangles(), 8u) << "seed " << seed;
    const auto kappa = PeelNucleus34(g, tris).kappa;
    Rng rng(seed);
    std::vector<TriangleId> queries;
    for (auto i : rng.SampleWithoutReplacement(tris.NumTriangles(), 8)) {
      queries.push_back(static_cast<TriangleId>(i));
    }
    std::vector<Degree> prev;
    for (int radius = 0; radius <= 3; ++radius) {
      QueryOptions opt;
      opt.radius = radius;
      const auto est = EstimateNucleus34Numbers(g, tris, queries, opt);
      ASSERT_EQ(est.estimates.size(), queries.size());
      for (std::size_t i = 0; i < queries.size(); ++i) {
        EXPECT_GE(est.estimates[i], kappa[queries[i]])
            << "seed " << seed << " radius " << radius;
        if (!prev.empty()) {
          EXPECT_LE(est.estimates[i], prev[i])
              << "seed " << seed << " radius " << radius;
        }
      }
      prev = est.estimates;
    }
  }
}

TEST(QueryNucleus34, LargeRadiusIsExact) {
  const Graph g = GeneratePlantedPartition(2, 15, 0.7, 0.05, 41);
  const TriangleIndex tris(g);
  ASSERT_GT(tris.NumTriangles(), 4u);
  const auto kappa = PeelNucleus34(g, tris).kappa;
  std::vector<TriangleId> queries = {0, 1, 2, 3};
  QueryOptions opt;
  opt.radius = 1000;  // covers the whole graph
  const auto est = EstimateNucleus34Numbers(g, tris, queries, opt);
  EXPECT_TRUE(est.converged);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(est.estimates[i], kappa[queries[i]]);
  }
}

TEST(QueryNucleus34, RegionGrowsWithRadiusAndStaysLocal) {
  const Graph g = GeneratePlantedPartition(6, 15, 0.6, 0.01, 53);
  const TriangleIndex tris(g);
  ASSERT_GT(tris.NumTriangles(), 0u);
  std::vector<TriangleId> queries = {0};
  std::size_t prev = 0;
  for (int radius = 0; radius <= 2; ++radius) {
    QueryOptions opt;
    opt.radius = radius;
    const auto est = EstimateNucleus34Numbers(g, tris, queries, opt);
    EXPECT_GE(est.region_size, prev);
    prev = est.region_size;
  }
  // With 6 weakly-connected blocks, radius 0 should not reach them all.
  QueryOptions r0;
  r0.radius = 0;
  EXPECT_LT(EstimateNucleus34Numbers(g, tris, queries, r0).region_size,
            tris.NumTriangles());
}

TEST(QueryNucleus34, MaxIterationsCaps) {
  const Graph g = GeneratePlantedPartition(2, 14, 0.7, 0.05, 61);
  const TriangleIndex tris(g);
  ASSERT_GT(tris.NumTriangles(), 2u);
  std::vector<TriangleId> queries = {0, 1};
  QueryOptions opt;
  opt.radius = 2;
  opt.max_iterations = 1;
  const auto est = EstimateNucleus34Numbers(g, tris, queries, opt);
  EXPECT_EQ(est.iterations, 1);
}

// The in-place AND sweeps reach the same greatest fixed point as the
// Jacobi iteration: converged estimates are identical, over all three
// kinds, radii 0-2 and multi-id queries with a duplicate id.
TEST(QueryReference, ConvergedEstimatesMatchJacobi) {
  for (std::uint64_t seed : {3u, 11u, 27u}) {
    const Graph g = GeneratePlantedPartition(3, 14, 0.6, 0.05, seed);
    const EdgeIndex edges(g);
    const TriangleIndex tris(g);
    ASSERT_GT(tris.NumTriangles(), 8u);
    const auto vq = SampleWithDuplicate(g.NumVertices(), seed);
    const auto eq = SampleWithDuplicate(edges.NumEdges(), seed + 1);
    const auto tq = SampleWithDuplicate(tris.NumTriangles(), seed + 2);
    for (int radius = 0; radius <= 2; ++radius) {
      QueryOptions opt;
      opt.radius = radius;
      for (const EstimatePair& p : {CoreCase(g, vq, opt),
                                    TrussCase(g, edges, eq, opt),
                                    Nucleus34Case(g, tris, tq, opt)}) {
        EXPECT_TRUE(p.got.status.ok());
        EXPECT_TRUE(p.got.converged);
        ASSERT_TRUE(p.want.converged);
        EXPECT_EQ(p.got.region_size, p.want.region_size)
            << "seed " << seed << " radius " << radius;
        EXPECT_EQ(p.got.estimates, p.want.estimates)
            << "seed " << seed << " radius " << radius;
        EXPECT_EQ(p.got.estimates.front(), p.got.estimates.back());
      }
    }
  }
}

// A run capped at k sweeps is still >= kappa, and never above k Jacobi
// sweeps: an in-place sweep of a monotone update never lags.
TEST(QueryReference, CappedEstimatesLieBetweenKappaAndJacobi) {
  for (std::uint64_t seed : {5u, 17u}) {
    const Graph g = GeneratePlantedPartition(3, 16, 0.6, 0.05, seed);
    const EdgeIndex edges(g);
    const TriangleIndex tris(g);
    const auto core = PeelCore(g).kappa;
    const auto truss = PeelTruss(g, edges).kappa;
    const auto n34 = PeelNucleus34(g, tris).kappa;
    const auto vq = SampleWithDuplicate(g.NumVertices(), seed);
    const auto eq = SampleWithDuplicate(edges.NumEdges(), seed + 1);
    const auto tq = SampleWithDuplicate(tris.NumTriangles(), seed + 2);
    for (int cap = 1; cap <= 3; ++cap) {
      QueryOptions opt;
      opt.radius = 2;
      opt.max_iterations = cap;
      const EstimatePair pairs[] = {CoreCase(g, vq, opt),
                                    TrussCase(g, edges, eq, opt),
                                    Nucleus34Case(g, tris, tq, opt)};
      const std::vector<Degree>* kappas[] = {&core, &truss, &n34};
      const std::vector<CliqueId>* ids[] = {&vq, &eq, &tq};
      for (int k = 0; k < 3; ++k) {
        const EstimatePair& p = pairs[k];
        EXPECT_LE(p.got.iterations, cap);
        if (!p.got.converged) {
          EXPECT_EQ(p.got.iterations, cap);
        }
        for (std::size_t i = 0; i < ids[k]->size(); ++i) {
          const Degree kappa = (*kappas[k])[(*ids[k])[i]];
          EXPECT_GE(p.got.estimates[i], kappa)
              << "seed " << seed << " kind " << k << " cap " << cap;
          EXPECT_LE(p.got.estimates[i], p.want.estimates[i])
              << "seed " << seed << " kind " << k << " cap " << cap;
        }
      }
    }
  }
}

// iterations counts the sweeps executed, the confirming one included: a
// run capped at that many sweeps repeats the uncapped run and converges,
// and one sweep fewer does not.
TEST(QueryReference, IterationsCountTheConfirmingSweep) {
  const Graph g = GeneratePlantedPartition(3, 16, 0.6, 0.05, 5);
  const EdgeIndex edges(g);
  const TriangleIndex tris(g);
  const auto vq = SampleWithDuplicate(g.NumVertices(), 5);
  const auto eq = SampleWithDuplicate(edges.NumEdges(), 6);
  const auto tq = SampleWithDuplicate(tris.NumTriangles(), 7);
  using Run = std::function<QueryEstimate(const QueryOptions&)>;
  const Run runs[] = {
      [&](const QueryOptions& o) { return EstimateCoreNumbers(g, vq, o); },
      [&](const QueryOptions& o) {
        return EstimateTrussNumbers(g, edges, eq, o);
      },
      [&](const QueryOptions& o) {
        return EstimateNucleus34Numbers(g, tris, tq, o);
      }};
  for (const Run& run : runs) {
    QueryOptions opt;
    opt.radius = 2;
    const QueryEstimate full = run(opt);
    ASSERT_TRUE(full.converged);
    ASSERT_GE(full.iterations, 2);
    opt.max_iterations = full.iterations;
    const QueryEstimate capped = run(opt);
    EXPECT_TRUE(capped.converged);
    EXPECT_EQ(capped.iterations, full.iterations);
    EXPECT_EQ(capped.estimates, full.estimates);
    opt.max_iterations = full.iterations - 1;
    EXPECT_FALSE(run(opt).converged);
  }
}

TEST(QueryTruss, EstimatesMonotoneInRadius) {
  for (std::uint64_t seed : {3u, 11u, 27u}) {
    const Graph g = GeneratePlantedPartition(3, 14, 0.6, 0.05, seed);
    const EdgeIndex edges(g);
    const auto kappa = PeelTruss(g, edges).kappa;
    const auto queries = SampleWithDuplicate(edges.NumEdges(), seed);
    std::vector<Degree> prev;
    for (int radius = 0; radius <= 3; ++radius) {
      QueryOptions opt;
      opt.radius = radius;
      const auto est = EstimateTrussNumbers(g, edges, queries, opt);
      for (std::size_t i = 0; i < queries.size(); ++i) {
        EXPECT_GE(est.estimates[i], kappa[queries[i]]);
        if (!prev.empty()) {
          EXPECT_LE(est.estimates[i], prev[i])
              << "seed " << seed << " radius " << radius;
        }
      }
      prev = est.estimates;
    }
  }
}

// After a commit the session's indices carry tombstones; queries through
// the session still match the reference over the patched index and
// converge to the session's exact kappa on the whole graph.
TEST(QuerySession, QueryAfterCommitMatchesReference) {
  const Graph g = GeneratePlantedPartition(3, 14, 0.6, 0.05, 7);
  NucleusSession session(g);
  // Build both indices first, so the commit patches them in place.
  ASSERT_GT(session.Edges().NumEdges(), 0u);
  ASSERT_GT(session.Triangles().NumTriangles(), 8u);
  auto batch = session.BeginUpdates();
  int removed = 0;
  for (VertexId u = 0; u < g.NumVertices() && removed < 5; u += 7) {
    const auto nbrs = g.Neighbors(u);
    if (!nbrs.empty() && batch.RemoveEdge(u, nbrs.front())) ++removed;
  }
  ASSERT_EQ(removed, 5);
  ASSERT_TRUE(batch.Commit().ok());
  const Graph& h = session.graph();
  const EdgeIndex& edges = session.Edges();
  const TriangleIndex& tris = session.Triangles();
  ASSERT_LT(edges.NumLiveEdges(), edges.NumEdges());
  ASSERT_LT(tris.NumLiveTriangles(), tris.NumTriangles());

  auto live = [](std::size_t n, auto is_live) {
    std::vector<CliqueId> ids;
    for (CliqueId id = 0; id < n && ids.size() < 4; id += 3) {
      if (is_live(id)) ids.push_back(id);
    }
    return ids;
  };
  const auto eq = live(edges.NumEdges(),
                       [&](CliqueId e) { return edges.IsLive(e); });
  const auto tq = live(tris.NumTriangles(),
                       [&](CliqueId t) { return tris.IsLive(t); });
  for (int radius : {1, 100}) {
    QueryOptions opt;
    opt.radius = radius;
    const auto truss =
        session.EstimateQueries(DecompositionKind::kTruss, eq, opt);
    const auto n34 =
        session.EstimateQueries(DecompositionKind::kNucleus34, tq, opt);
    ASSERT_TRUE(truss.ok() && n34.ok());
    EXPECT_EQ(truss->estimates, TrussCase(h, edges, eq, opt).want.estimates);
    EXPECT_EQ(n34->estimates,
              Nucleus34Case(h, tris, tq, opt).want.estimates);
    if (radius < 100) continue;
    const auto exact_truss = session.Decompose(DecompositionKind::kTruss);
    const auto exact_n34 = session.Decompose(DecompositionKind::kNucleus34);
    ASSERT_TRUE(exact_truss.ok() && exact_n34.ok());
    for (std::size_t i = 0; i < eq.size(); ++i) {
      EXPECT_EQ(truss->estimates[i], exact_truss->kappa[eq[i]]);
    }
    for (std::size_t i = 0; i < tq.size(); ++i) {
      EXPECT_EQ(n34->estimates[i], exact_n34->kappa[tq[i]]);
    }
  }
}

TEST(Query, StoppedRunReportsItsStatus) {
  const Graph g = GeneratePlantedPartition(3, 14, 0.6, 0.05, 3);
  const TriangleIndex tris(g);
  CancelToken token;
  token.RequestCancel();
  const std::vector<TriangleId> queries = {0, 1};
  const auto est = EstimateNucleus34Numbers(
      g, tris, queries, {}, RunControl(&token, Deadline::Infinite()));
  EXPECT_EQ(est.status.code(), StatusCode::kCancelled);
  EXPECT_TRUE(est.estimates.empty());
}

TEST(Query, EmptyQueriesOk) {
  const Graph g = GenerateCycle(10);
  const auto est = EstimateCoreNumbers(g, {}, {});
  EXPECT_TRUE(est.estimates.empty());
  EXPECT_EQ(est.region_size, 0u);
}

}  // namespace
}  // namespace nucleus
