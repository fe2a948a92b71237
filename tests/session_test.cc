#include "src/core/session.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "src/graph/builder.h"
#include "src/graph/generators.h"
#include "src/peel/generic_peel.h"

namespace nucleus {
namespace {

TEST(Session, MatchesPeelingForAllKindsAndMethods) {
  const Graph graphs[] = {
      GenerateErdosRenyi(40, 170, 2), GenerateBarabasiAlbert(120, 3, 1),
      GenerateErdosRenyi(50, 200, 2), GenerateErdosRenyi(25, 110, 3),
      GenerateRmat(8, 6, 7)};
  for (const Graph& g : graphs) {
    for (auto kind : {DecompositionKind::kCore, DecompositionKind::kTruss,
                      DecompositionKind::kNucleus34}) {
      NucleusSession session(g);  // borrowing
      const auto peel =
          session.Decompose(kind, {.method = Method::kPeeling});
      ASSERT_TRUE(peel.ok());
      EXPECT_TRUE(peel->exact);
      EXPECT_EQ(peel->num_r_cliques, session.NumRCliques(kind));
      if (kind == DecompositionKind::kCore) {
        EXPECT_EQ(peel->num_r_cliques, g.NumVertices());
        EXPECT_EQ(peel->index_seconds, 0.0);  // the core space needs none
      }
      for (auto method : {Method::kSnd, Method::kAnd}) {
        for (int threads : {1, 4}) {
          DecomposeOptions opt;
          opt.method = method;
          opt.threads = threads;
          opt.use_result_cache = false;  // force real engine runs
          const auto r = session.Decompose(kind, opt);
          ASSERT_TRUE(r.ok());
          EXPECT_EQ(r->kappa, peel->kappa);
          EXPECT_TRUE(r->exact);
          EXPECT_FALSE(r->served_from_cache);
        }
      }
    }
  }
}

TEST(Session, IndexAndArenaBuiltExactlyOnce) {
  const Graph g = GeneratePlantedPartition(4, 30, 0.5, 0.02, 7);
  NucleusSession session(g);
  DecomposeOptions opt;
  opt.method = Method::kAnd;
  opt.use_result_cache = false;  // repeats must still reuse index + arena
  for (int i = 0; i < 3; ++i) {
    const auto r = session.Decompose(DecompositionKind::kTruss, opt);
    ASSERT_TRUE(r.ok());
    if (i == 0) {
      EXPECT_GT(r->arena_seconds, 0.0);
    } else {
      EXPECT_EQ(r->index_seconds, 0.0);
      EXPECT_EQ(r->arena_seconds, 0.0);
    }
  }
  for (int i = 0; i < 3; ++i) {
    const auto r = session.Decompose(DecompositionKind::kNucleus34, opt);
    ASSERT_TRUE(r.ok());
  }
  const SessionStats stats = session.stats();
  EXPECT_EQ(stats.edge_index_builds, 1);
  EXPECT_EQ(stats.triangle_index_builds, 1);
  EXPECT_EQ(stats.truss_arena_builds, 1);
  EXPECT_EQ(stats.nucleus34_arena_builds, 1);
  EXPECT_EQ(stats.decompose_calls, 6);
  EXPECT_EQ(stats.decompose_cache_hits, 0);
}

TEST(Session, WarmExactRepeatIsServedFromKappaCache) {
  const Graph g = GenerateBarabasiAlbert(200, 4, 3);
  NucleusSession session(g);
  const auto cold = session.Decompose(DecompositionKind::kTruss);
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold->served_from_cache);
  const auto warm = session.Decompose(DecompositionKind::kTruss);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->served_from_cache);
  EXPECT_EQ(warm->index_seconds, 0.0);
  EXPECT_EQ(warm->arena_seconds, 0.0);
  EXPECT_TRUE(warm->exact);
  EXPECT_EQ(warm->kappa, cold->kappa);
  // Any exact method is served from the same cache (kappa is unique).
  const auto warm_peel =
      session.Decompose(DecompositionKind::kTruss, {.method = Method::kPeeling});
  ASSERT_TRUE(warm_peel.ok());
  EXPECT_TRUE(warm_peel->served_from_cache);
  EXPECT_EQ(session.stats().decompose_cache_hits, 2);
}

TEST(Session, TruncatedRunsAreServedPerTauAndExactBeatsTruncated) {
  const Graph g = GenerateBarabasiAlbert(200, 4, 5);
  NucleusSession session(g);
  DecomposeOptions opt;
  opt.method = Method::kSnd;
  opt.max_iterations = 1;
  // Cold truncated run: real engine sweep, cached per (kind, tau).
  const auto r = session.Decompose(DecompositionKind::kCore, opt);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->served_from_cache);
  EXPECT_FALSE(r->exact);
  EXPECT_EQ(r->iterations, 1);
  // Repeat at the same truncation level: tau-cache hit with the same tau.
  const auto repeat = session.Decompose(DecompositionKind::kCore, opt);
  ASSERT_TRUE(repeat.ok());
  EXPECT_TRUE(repeat->served_from_cache);
  EXPECT_FALSE(repeat->exact);
  EXPECT_EQ(repeat->kappa, r->kappa);
  // A different truncation level is a different cache key: engine runs.
  opt.max_iterations = 2;
  const auto deeper = session.Decompose(DecompositionKind::kCore, opt);
  ASSERT_TRUE(deeper.ok());
  EXPECT_FALSE(deeper->served_from_cache);
  // So is a different method at the same level — truncated tau, unlike
  // kappa, is engine-specific.
  DecomposeOptions and_opt = opt;
  and_opt.max_iterations = 1;
  and_opt.method = Method::kAnd;
  const auto other_method =
      session.Decompose(DecompositionKind::kCore, and_opt);
  ASSERT_TRUE(other_method.ok());
  EXPECT_FALSE(other_method->served_from_cache);
  // The inexact tau must not poison the exact cache.
  const auto exact = session.Decompose(DecompositionKind::kCore);
  ASSERT_TRUE(exact.ok());
  EXPECT_FALSE(exact->served_from_cache);
  EXPECT_EQ(exact->kappa, PeelCore(g).kappa);
  // Exact beats truncated: with kappa cached, a truncated request is
  // served the converged answer (at least as converged as requested).
  opt.max_iterations = 1;
  const auto clamped = session.Decompose(DecompositionKind::kCore, opt);
  ASSERT_TRUE(clamped.ok());
  EXPECT_TRUE(clamped->served_from_cache);
  EXPECT_TRUE(clamped->exact);
  EXPECT_EQ(clamped->kappa, exact->kappa);
  // use_result_cache = false forces the real truncated engine run.
  opt.use_result_cache = false;
  const auto forced = session.Decompose(DecompositionKind::kCore, opt);
  ASSERT_TRUE(forced.ok());
  EXPECT_FALSE(forced->served_from_cache);
  EXPECT_EQ(forced->iterations, 1);
  EXPECT_EQ(forced->kappa, r->kappa);  // SND is deterministic
}

TEST(Session, TracedRunsBypassTheResultCache) {
  const Graph g = GenerateErdosRenyi(50, 160, 9);
  NucleusSession session(g);
  ASSERT_TRUE(session.Decompose(DecompositionKind::kCore).ok());
  ConvergenceTrace trace;
  trace.record_snapshots = true;
  DecomposeOptions opt;
  opt.method = Method::kSnd;
  opt.trace = &trace;
  const auto r = session.Decompose(DecompositionKind::kCore, opt);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->served_from_cache);
  EXPECT_FALSE(trace.snapshots.empty());
}

TEST(Session, ConcurrentQueriesMatchSequential) {
  const Graph g = GeneratePlantedPartition(4, 30, 0.5, 0.02, 11);
  // Sequential reference from one session.
  NucleusSession ref_session(g);
  std::vector<std::vector<CliqueId>> id_sets(8);
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 5; ++j) {
      id_sets[i].push_back(static_cast<CliqueId>((i * 17 + j * 5) %
                                                 g.NumVertices()));
    }
  }
  QueryOptions qopt;
  qopt.radius = 2;
  std::vector<std::vector<Degree>> expected;
  for (const auto& ids : id_sets) {
    const auto est =
        ref_session.EstimateQueries(DecompositionKind::kCore, ids, qopt);
    ASSERT_TRUE(est.ok());
    expected.push_back(est->estimates);
  }

  // Concurrent runs against a fresh session (first touch builds indices
  // under contention).
  NucleusSession session(g);
  std::vector<std::vector<Degree>> got(8);
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int i = 0; i < 8; ++i) {
    workers.emplace_back([&, i] {
      const auto est =
          session.EstimateQueries(DecompositionKind::kCore, id_sets[i], qopt);
      if (!est.ok()) {
        ++failures;
        return;
      }
      got[i] = est->estimates;
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(got[i], expected[i]) << "caller thread " << i;
  }
}

TEST(Session, ConcurrentQueriesAcrossAllKinds) {
  const Graph g = GeneratePlantedPartition(3, 20, 0.6, 0.03, 13);
  NucleusSession session(g);
  const std::vector<CliqueId> ids = {0, 1, 2};
  QueryOptions qopt;
  qopt.radius = 1;
  // Reference estimates per kind, computed sequentially first.
  std::vector<std::vector<Degree>> expected(3);
  const DecompositionKind kinds[] = {DecompositionKind::kCore,
                                     DecompositionKind::kTruss,
                                     DecompositionKind::kNucleus34};
  {
    NucleusSession ref(g);
    for (int k = 0; k < 3; ++k) {
      const auto est = ref.EstimateQueries(kinds[k], ids, qopt);
      ASSERT_TRUE(est.ok());
      expected[k] = est->estimates;
    }
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      for (int k = 0; k < 3; ++k) {
        const auto est = session.EstimateQueries(kinds[(t + k) % 3], ids,
                                                 qopt);
        if (!est.ok() || est->estimates != expected[(t + k) % 3]) ++failures;
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  // All that concurrency still built each index exactly once.
  const SessionStats stats = session.stats();
  EXPECT_EQ(stats.edge_index_builds, 1);
  EXPECT_EQ(stats.triangle_index_builds, 1);
}

// Several threads query all three kinds on one session at once, at
// different radii and caps. Queries run under the session's shared lock,
// so any per-session scratch they wrote would race (the TSAN job runs this
// suite) or cross-contaminate estimates; each must match the library
// estimator run alone.
TEST(Session, ConcurrentQueriesOfAllKindsMatchLibrary) {
  const Graph g = GeneratePlantedPartition(3, 20, 0.6, 0.03, 19);
  NucleusSession session(g);
  const EdgeIndex& edges = session.Edges();
  const TriangleIndex& tris = session.Triangles();
  const DecompositionKind kinds[] = {DecompositionKind::kCore,
                                     DecompositionKind::kTruss,
                                     DecompositionKind::kNucleus34};
  const std::size_t sizes[] = {g.NumVertices(), edges.NumEdges(),
                               tris.NumTriangles()};
  constexpr int kThreads = 6;
  struct Job {
    DecompositionKind kind;
    std::vector<CliqueId> ids;
    QueryOptions options;
    std::vector<Degree> expected;
  };
  std::vector<Job> jobs;
  for (int t = 0; t < kThreads; ++t) {
    for (int k = 0; k < 3; ++k) {
      Job job;
      job.kind = kinds[k];
      for (int j = 0; j < 3; ++j) {
        job.ids.push_back(
            static_cast<CliqueId>((t * 37 + j * 11 + k) % sizes[k]));
      }
      job.options.radius = 1 + (t % 2);
      job.options.max_iterations = t % 3;
      switch (k) {
        case 0:
          job.expected = EstimateCoreNumbers(g, job.ids, job.options).estimates;
          break;
        case 1:
          job.expected =
              EstimateTrussNumbers(g, edges, job.ids, job.options).estimates;
          break;
        default:
          job.expected =
              EstimateNucleus34Numbers(g, tris, job.ids, job.options)
                  .estimates;
      }
      jobs.push_back(std::move(job));
    }
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        for (int k = 0; k < 3; ++k) {
          const Job& job = jobs[3 * t + (t + k + round) % 3];
          const auto est =
              session.EstimateQueries(job.kind, job.ids, job.options);
          if (!est.ok() || est->estimates != job.expected) ++failures;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(Session, StoppedQueryReturnsStopStatusAndSessionStillAnswers) {
  const Graph g = GeneratePlantedPartition(3, 20, 0.6, 0.03, 23);
  NucleusSession session(g);
  // A warm index leaves the sweeps as the only work the token can stop.
  ASSERT_GT(session.Triangles().NumTriangles(), 9u);
  const std::vector<CliqueId> ids = {0, 4, 9};
  QueryOptions opt;
  opt.radius = 2;
  CancelToken token;
  token.RequestCancel();
  const auto stopped =
      session.EstimateQueries(DecompositionKind::kNucleus34, ids, opt,
                              RunControl(&token, Deadline::Infinite()));
  ASSERT_FALSE(stopped.ok());
  EXPECT_EQ(stopped.status().code(), StatusCode::kCancelled);
  const auto est =
      session.EstimateQueries(DecompositionKind::kNucleus34, ids, opt);
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(est->estimates,
            EstimateNucleus34Numbers(g, session.Triangles(), ids, opt)
                .estimates);
}

TEST(Session, ConcurrentDecomposeAgrees) {
  const Graph g = GenerateErdosRenyi(60, 240, 17);
  NucleusSession session(g);
  const auto expected = PeelTruss(g, EdgeIndex(g)).kappa;
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      const auto r = session.Decompose(DecompositionKind::kTruss);
      if (!r.ok() || r->kappa != expected) ++failures;
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(session.stats().edge_index_builds, 1);
}

TEST(Session, MalformedGivenOrderReturnsInvalidArgument) {
  const Graph g = GenerateCycle(10);
  NucleusSession session(g);
  DecomposeOptions opt;
  opt.method = Method::kAnd;
  opt.order = AndOrder::kGiven;
  opt.given_order = {0, 1, 2};  // wrong size
  const auto r = session.Decompose(DecompositionKind::kCore, opt);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);

  opt.given_order.assign(g.NumVertices(), 0);  // not a permutation
  const auto r2 = session.Decompose(DecompositionKind::kCore, opt);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kInvalidArgument);

  // A warm session must reject the same malformed input a cold one does —
  // the kappa-cache fast path may not skip validation.
  ASSERT_TRUE(session.Decompose(DecompositionKind::kCore).ok());
  opt.given_order = {0, 1, 2};
  const auto warm = session.Decompose(DecompositionKind::kCore, opt);
  ASSERT_FALSE(warm.ok());
  EXPECT_EQ(warm.status().code(), StatusCode::kInvalidArgument);
}

TEST(Session, KindNamesParseEveryAlias) {
  const std::pair<const char*, DecompositionKind> aliases[] = {
      {"core", DecompositionKind::kCore},
      {"(1,2)", DecompositionKind::kCore},
      {"12", DecompositionKind::kCore},
      {"truss", DecompositionKind::kTruss},
      {"(2,3)", DecompositionKind::kTruss},
      {"23", DecompositionKind::kTruss},
      {"nucleus34", DecompositionKind::kNucleus34},
      {"nucleus", DecompositionKind::kNucleus34},
      {"(3,4)", DecompositionKind::kNucleus34},
      {"34", DecompositionKind::kNucleus34}};
  for (const auto& [name, kind] : aliases) {
    const auto parsed = ParseKindName(name);
    ASSERT_TRUE(parsed.ok()) << name;
    EXPECT_EQ(*parsed, kind) << name;
  }
  EXPECT_STREQ(KindName(DecompositionKind::kCore), "core");
  EXPECT_STREQ(KindName(DecompositionKind::kTruss), "truss");
  EXPECT_STREQ(KindName(DecompositionKind::kNucleus34), "nucleus34");
  const auto unknown = ParseKindName("clique");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(unknown.status().message(),
            "unknown kind 'clique' (want core | truss | nucleus34)");
}

TEST(Session, InvalidOptionsAndIdsAreStatusNotThrow) {
  const Graph g = GenerateCycle(12);
  NucleusSession session(g);
  DecomposeOptions opt;
  opt.threads = -1;
  EXPECT_EQ(session.Decompose(DecompositionKind::kCore, opt).status().code(),
            StatusCode::kInvalidArgument);
  opt.threads = 1;
  opt.max_iterations = -3;
  EXPECT_EQ(session.Decompose(DecompositionKind::kCore, opt).status().code(),
            StatusCode::kInvalidArgument);

  const std::vector<CliqueId> bad = {999};
  for (auto kind : {DecompositionKind::kCore, DecompositionKind::kTruss,
                    DecompositionKind::kNucleus34}) {
    const auto est = session.EstimateQueries(kind, bad);
    ASSERT_FALSE(est.ok());
    EXPECT_EQ(est.status().code(), StatusCode::kInvalidArgument);
  }
  QueryOptions qopt;
  qopt.radius = -1;
  EXPECT_EQ(session.EstimateQueries(DecompositionKind::kCore, {}, qopt)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(Session, PreCancelledTokenStopsEveryEntryPoint) {
  const Graph g = GeneratePlantedPartition(2, 20, 0.6, 0.05, 11);
  NucleusSession session(g);
  CancelToken token;
  token.RequestCancel();
  DecomposeOptions opt;
  opt.cancel_token = &token;
  for (auto kind : {DecompositionKind::kCore, DecompositionKind::kTruss,
                    DecompositionKind::kNucleus34}) {
    const auto r = session.Decompose(kind, opt);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
    const auto h = session.Hierarchy(kind, opt);
    ASSERT_FALSE(h.ok());
    EXPECT_EQ(h.status().code(), StatusCode::kCancelled);
  }
  {
    auto batch = session.BeginUpdates();
    batch.InsertEdge(0, 25);
    const Status s = batch.Commit(RunControl(&token, Deadline::Infinite()));
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kCancelled);
    // The cancelled commit left the batch uncommitted and the session
    // untouched; retrying without the token succeeds.
    EXPECT_TRUE(batch.Commit().ok());
    EXPECT_TRUE(session.graph().HasEdge(0, 25));
  }
}

TEST(Session, CancelledBuildLeavesSessionRetryable) {
  // A cancelled cold request must not poison any cache: the immediate
  // retry (no token) rebuilds from scratch and matches an untouched
  // oracle session bit for bit.
  const Graph g = GenerateBarabasiAlbert(300, 6, 17);
  NucleusSession oracle(g);
  const auto want = oracle.Decompose(DecompositionKind::kNucleus34);
  ASSERT_TRUE(want.ok());

  NucleusSession session(g);
  CancelToken token;
  token.RequestCancel();
  DecomposeOptions opt;
  opt.cancel_token = &token;
  ASSERT_FALSE(session.Decompose(DecompositionKind::kNucleus34, opt).ok());
  const auto retry = session.Decompose(DecompositionKind::kNucleus34);
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry->kappa, want->kappa);
  EXPECT_FALSE(retry->served_from_cache);
}

TEST(Session, TinyDeadlineReturnsDeadlineExceeded) {
  // Large enough that triangle enumeration + the (3,4) engine cannot
  // finish inside 1 ms; the request must come back as a clean Status.
  const Graph g = GenerateBarabasiAlbert(4000, 10, 3);
  NucleusSession session(g);
  DecomposeOptions opt;
  opt.deadline_ms = 1;
  const auto r = session.Decompose(DecompositionKind::kNucleus34, opt);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(Session, WarmCacheServedDespiteCancelledToken) {
  // Answering from memory is the one thing a bounded request can always
  // afford: a cache hit is served even when the token is already
  // cancelled or the deadline long gone.
  const Graph g = GenerateCycle(30);
  NucleusSession session(g);
  ASSERT_TRUE(session.Decompose(DecompositionKind::kCore).ok());
  CancelToken token;
  token.RequestCancel();
  DecomposeOptions opt;
  opt.cancel_token = &token;
  opt.deadline_ms = 1;
  const auto warm = session.Decompose(DecompositionKind::kCore, opt);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->served_from_cache);
}

TEST(Session, QueriesRejectTombstonedIds) {
  // Remove an edge via a commit, then query its (dead) edge id: the id is
  // still addressable in the id space but must be rejected, not estimated.
  const Graph g = GenerateErdosRenyi(30, 120, 9);
  NucleusSession session(g);
  const EdgeIndex& edges = session.Edges();
  VertexId u = 0, v = 0;
  EdgeId dead_id = kInvalidClique;
  for (VertexId a = 0; a < g.NumVertices() && dead_id == kInvalidClique;
       ++a) {
    for (VertexId b : g.Neighbors(a)) {
      if (a < b) {
        u = a;
        v = b;
        dead_id = edges.EdgeIdOf(a, b);
        break;
      }
    }
  }
  ASSERT_NE(dead_id, kInvalidClique);
  auto batch = session.BeginUpdates();
  ASSERT_TRUE(batch.RemoveEdge(u, v));
  ASSERT_TRUE(batch.Commit().ok());
  const std::vector<CliqueId> ids = {dead_id};
  const auto est = session.EstimateQueries(DecompositionKind::kTruss, ids);
  ASSERT_FALSE(est.ok());
  EXPECT_EQ(est.status().code(), StatusCode::kInvalidArgument);
}

TEST(Session, QueriesCoverAllThreeSpaces) {
  const Graph g = GeneratePlantedPartition(2, 18, 0.7, 0.05, 31);
  NucleusSession session(g);
  QueryOptions opt;
  opt.radius = 100;  // whole graph: estimates converge to exact kappa
  {
    const std::vector<CliqueId> ids = {0, 5, 17};
    const auto est =
        session.EstimateQueries(DecompositionKind::kCore, ids, opt);
    ASSERT_TRUE(est.ok());
    const auto kappa = PeelCore(g).kappa;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(est->estimates[i], kappa[ids[i]]);
    }
  }
  {
    const std::vector<CliqueId> ids = {0, 3, 11};
    const auto est =
        session.EstimateQueries(DecompositionKind::kTruss, ids, opt);
    ASSERT_TRUE(est.ok());
    const auto kappa = PeelTruss(g, session.Edges()).kappa;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(est->estimates[i], kappa[ids[i]]);
    }
  }
  {
    ASSERT_GT(session.NumRCliques(DecompositionKind::kNucleus34), 3u);
    const std::vector<CliqueId> ids = {0, 1, 2};
    const auto est =
        session.EstimateQueries(DecompositionKind::kNucleus34, ids, opt);
    ASSERT_TRUE(est.ok());
    const auto kappa = PeelNucleus34(g, session.Triangles()).kappa;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(est->estimates[i], kappa[ids[i]]);
    }
  }
}

TEST(Session, HierarchyIsCachedAndMatchesUncached) {
  const Graph g = GenerateErdosRenyi(30, 120, 13);
  NucleusSession session(g);
  for (auto kind : {DecompositionKind::kCore, DecompositionKind::kTruss,
                    DecompositionKind::kNucleus34}) {
    const auto h1 = session.Hierarchy(kind);
    ASSERT_TRUE(h1.ok());
    const auto h2 = session.Hierarchy(kind);
    ASSERT_TRUE(h2.ok());
    EXPECT_EQ(*h1, *h2);  // same cached object
    // The uncached path: kappa from a fresh session, then HierarchyFor.
    NucleusSession fresh(g);
    const auto r = fresh.Decompose(kind, {.method = Method::kPeeling});
    ASSERT_TRUE(r.ok());
    const auto ref = fresh.HierarchyFor(kind, r->kappa);
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ((*h1)->nodes.size(), ref->nodes.size());
    EXPECT_EQ((*h1)->roots.size(), ref->roots.size());
    EXPECT_EQ((*h1)->Depth(), ref->Depth());
    // The forest covers every r-clique exactly once.
    std::size_t total = 0;
    for (int root : ref->roots) total += ref->nodes[root].size;
    EXPECT_EQ(total, r->num_r_cliques);
  }
  // Hierarchy seeded each kind's kappa cache: repeats are cache hits.
  const auto r = session.Decompose(DecompositionKind::kTruss);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->served_from_cache);
}

TEST(Session, HierarchyForRejectsWrongSizedKappa) {
  const Graph g = GenerateCycle(8);
  NucleusSession session(g);
  const std::vector<Degree> wrong(3, 1);
  const auto h = session.HierarchyFor(DecompositionKind::kCore, wrong);
  ASSERT_FALSE(h.ok());
  EXPECT_EQ(h.status().code(), StatusCode::kInvalidArgument);
}

TEST(Session, UpdateBatchCommitServesMutatedGraph) {
  const Graph g = GeneratePlantedPartition(3, 15, 0.6, 0.04, 19);
  NucleusSession session(g);
  // Warm up every space, then mutate.
  ASSERT_TRUE(session.Decompose(DecompositionKind::kCore).ok());
  ASSERT_TRUE(session.Decompose(DecompositionKind::kTruss).ok());
  const SessionStats before = session.stats();
  EXPECT_EQ(before.edge_index_builds, 1);

  NucleusSession::UpdateBatch batch = session.BeginUpdates();
  EXPECT_TRUE(batch.MaintainsTruss());  // (2,3) kappa was cached
  int inserted = 0;
  for (VertexId u = 0; u < 10 && inserted < 12; ++u) {
    for (VertexId v = 20; v < 25 && inserted < 12; ++v) {
      if (batch.InsertEdge(u, v)) ++inserted;
    }
  }
  ASSERT_GT(inserted, 0);
  EXPECT_TRUE(batch.RemoveEdge(0, 20));
  ASSERT_TRUE(batch.Commit().ok());

  // (1,2): served with zero rebuild — the repaired core numbers seeded the
  // cache, so this is a cache hit that matches a fresh recompute.
  const auto core = session.Decompose(DecompositionKind::kCore);
  ASSERT_TRUE(core.ok());
  EXPECT_TRUE(core->served_from_cache);
  EXPECT_EQ(core->kappa, PeelCore(session.graph()).kappa);

  // (2,3): the commit propagated the delta through the cached EdgeIndex
  // in place and re-seeded the kappa cache from the truss maintainer, so
  // this too is a cache hit with ZERO rebuilds. Ids are stable across the
  // commit (fresh-index ids differ), so compare per endpoint pair.
  const auto truss = session.Decompose(DecompositionKind::kTruss);
  ASSERT_TRUE(truss.ok());
  EXPECT_TRUE(truss->served_from_cache);
  const EdgeIndex fresh(session.graph());
  const auto expected = PeelTruss(session.graph(), fresh).kappa;
  const EdgeIndex& patched = session.Edges();
  EXPECT_EQ(patched.NumLiveEdges(), session.graph().NumEdges());
  for (EdgeId e = 0; e < fresh.NumEdges(); ++e) {
    const auto [u, v] = fresh.Endpoints(e);
    const EdgeId pe = patched.EdgeIdOf(u, v);
    ASSERT_NE(pe, kInvalidEdge);
    EXPECT_EQ(truss->kappa[pe], expected[e]) << "edge {" << u << "," << v
                                             << "}";
  }
  const SessionStats after = session.stats();
  EXPECT_EQ(after.edge_index_builds, before.edge_index_builds);  // no rebuild
  EXPECT_EQ(after.truss_kappa_seeds, 1);
  EXPECT_EQ(after.incremental_commits, 1);
}

TEST(Session, UpdateBatchDoubleCommitFails) {
  const Graph g = GenerateCycle(6);
  NucleusSession session(g);
  auto batch = session.BeginUpdates();
  batch.InsertEdge(0, 3);
  ASSERT_TRUE(batch.Commit().ok());
  const Status second = batch.Commit();
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.code(), StatusCode::kFailedPrecondition);
}

TEST(Session, StaleUpdateBatchCannotDropNewerCommit) {
  const Graph g = GenerateCycle(8);
  NucleusSession session(g);
  auto b1 = session.BeginUpdates();
  auto b2 = session.BeginUpdates();  // branches from the same graph
  ASSERT_TRUE(b1.InsertEdge(0, 4));
  ASSERT_TRUE(b1.Commit().ok());
  ASSERT_TRUE(b2.InsertEdge(1, 5));
  // b2's snapshot predates b1's commit; publishing it would silently drop
  // edge {0,4}.
  const Status stale = b2.Commit();
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.graph().NumEdges(), g.NumEdges() + 1);
  // A stale batch with no mutations is equally rejected; only a batch
  // branched from the current graph commits.
  auto b3 = session.BeginUpdates();
  ASSERT_TRUE(b3.InsertEdge(1, 5));
  EXPECT_TRUE(b3.Commit().ok());
  EXPECT_EQ(session.graph().NumEdges(), g.NumEdges() + 2);
}

TEST(Session, MovedFromUpdateBatchCannotCommit) {
  const Graph g = GenerateCycle(6);
  NucleusSession session(g);
  auto b1 = session.BeginUpdates();
  ASSERT_TRUE(b1.InsertEdge(0, 2));
  NucleusSession::UpdateBatch b2 = std::move(b1);
  const Status moved = b1.Commit();  // NOLINT(bugprone-use-after-move)
  ASSERT_FALSE(moved.ok());
  EXPECT_EQ(moved.code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(b2.Commit().ok());
  EXPECT_EQ(session.graph().NumEdges(), g.NumEdges() + 1);
}

TEST(Session, MovedBatchCarriesItsGraphForEveryKind) {
  // The batch owns the one adjacency its three maintainers repair over, so
  // a move must carry it: mutations before and after the move both land,
  // and the committed kappa of every kind equals a fresh session's on the
  // expected graph, compared by vertex, vertex pair and vertex triple.
  const Graph g = GeneratePlantedPartition(3, 12, 0.6, 0.05, 41);
  NucleusSession session(g);
  for (const auto kind : {DecompositionKind::kCore, DecompositionKind::kTruss,
                          DecompositionKind::kNucleus34}) {
    ASSERT_TRUE(session.Decompose(kind).ok());
  }
  std::set<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    for (VertexId v : g.Neighbors(u)) {
      if (u < v) edges.emplace(u, v);
    }
  }

  auto b1 = session.BeginUpdates();
  ASSERT_TRUE(b1.MaintainsTruss());
  ASSERT_TRUE(b1.MaintainsNucleus34());
  // Before the move: removals that kill triangles and 4-cliques.
  const EdgeIndex pre(g);
  for (EdgeId e = 0; e < pre.NumEdges(); e += 5) {
    const auto [u, v] = pre.Endpoints(e);
    ASSERT_TRUE(b1.RemoveEdge(u, v));
    edges.erase({u, v});
  }
  NucleusSession::UpdateBatch b2 = std::move(b1);
  ASSERT_TRUE(b2.MaintainsTruss());
  ASSERT_TRUE(b2.MaintainsNucleus34());
  // After it: absent pairs come in, one removed edge among them, and a
  // pair removed before the move is still absent in the moved-to batch.
  const auto [ru, rv] = pre.Endpoints(5);
  EXPECT_FALSE(b2.RemoveEdge(ru, rv));
  ASSERT_TRUE(b2.InsertEdge(ru, rv));
  edges.emplace(ru, rv);
  int inserted = 0;
  for (VertexId u = 0; u < g.NumVertices() && inserted < 20; ++u) {
    for (VertexId v = u + 1; v < g.NumVertices() && inserted < 20; v += 3) {
      if (edges.count({u, v}) != 0) continue;
      ASSERT_TRUE(b2.InsertEdge(u, v));
      edges.emplace(u, v);
      ++inserted;
    }
  }
  ASSERT_TRUE(b2.Commit().ok());

  const Graph expected = BuildGraphFromEdges(
      g.NumVertices(), {edges.begin(), edges.end()});
  EXPECT_EQ(session.graph().NeighborArray(), expected.NeighborArray());
  NucleusSession fresh(expected);
  const auto read = [](NucleusSession& s, DecompositionKind kind) {
    auto r = s.Decompose(kind);
    EXPECT_TRUE(r.ok());
    return r.ok() ? r->kappa : std::vector<Degree>{};
  };
  const auto core = session.Decompose(DecompositionKind::kCore);
  ASSERT_TRUE(core.ok());
  EXPECT_TRUE(core->served_from_cache);
  EXPECT_EQ(core->kappa, read(fresh, DecompositionKind::kCore));

  const auto truss = read(session, DecompositionKind::kTruss);
  const auto truss_want = read(fresh, DecompositionKind::kTruss);
  const EdgeIndex& want_edges = fresh.Edges();
  ASSERT_GT(want_edges.NumEdges(), 0u);
  for (EdgeId e = 0; e < want_edges.NumEdges(); ++e) {
    const auto [u, v] = want_edges.Endpoints(e);
    ASSERT_EQ(truss[session.Edges().EdgeIdOf(u, v)], truss_want[e])
        << "edge {" << u << "," << v << "}";
  }
  const auto n34 = read(session, DecompositionKind::kNucleus34);
  const auto n34_want = read(fresh, DecompositionKind::kNucleus34);
  const TriangleIndex& want_tris = fresh.Triangles();
  ASSERT_GT(want_tris.NumTriangles(), 0u);
  for (TriangleId t = 0; t < want_tris.NumTriangles(); ++t) {
    const auto& tri = want_tris.Vertices(t);
    ASSERT_EQ(n34[session.Triangles().TriangleIdOf(tri[0], tri[1], tri[2])],
              n34_want[t])
        << "triangle {" << tri[0] << "," << tri[1] << "," << tri[2] << "}";
  }
  EXPECT_EQ(session.stats().truss_kappa_seeds, 1);
  EXPECT_EQ(session.stats().nucleus34_kappa_seeds, 1);
}

TEST(Session, EmptyCommitKeepsCaches) {
  const Graph g = GenerateErdosRenyi(40, 120, 23);
  NucleusSession session(g);
  ASSERT_TRUE(session.Decompose(DecompositionKind::kTruss).ok());
  auto batch = session.BeginUpdates();
  EXPECT_FALSE(batch.InsertEdge(0, 0));  // self loop: no-op
  ASSERT_TRUE(batch.Commit().ok());
  const auto r = session.Decompose(DecompositionKind::kTruss);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->served_from_cache);
  EXPECT_EQ(session.stats().edge_index_builds, 1);
}

TEST(Session, BeginUpdatesReusesCachedCoreKappa) {
  const Graph g = GenerateBarabasiAlbert(150, 3, 29);
  NucleusSession session(g);
  ASSERT_TRUE(session.Decompose(DecompositionKind::kCore).ok());
  auto batch = session.BeginUpdates();
  // The maintainer starts from the cached exact kappa.
  EXPECT_EQ(batch.CoreNumbers(), PeelCore(g).kappa);
}

TEST(Session, InvalidateDerivedStateForcesRebuild) {
  const Graph g = GenerateErdosRenyi(30, 100, 31);
  NucleusSession session(g);
  ASSERT_TRUE(session.Decompose(DecompositionKind::kTruss).ok());
  session.InvalidateDerivedState();
  const auto r = session.Decompose(DecompositionKind::kTruss);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->served_from_cache);
  EXPECT_EQ(session.stats().edge_index_builds, 2);
}

TEST(Session, ColdNucleus34BuildDoesNotBlockCoreReads) {
  // Per-kind state cells: a cold (3,4) triangle-index + arena build holds
  // only its own cell locks, so (1,2) cache hits keep flowing while it
  // runs. Warm the core cache first, then count how many core reads
  // complete while the (3,4) cold call is in flight.
  const Graph g = GeneratePlantedPartition(6, 45, 0.55, 0.02, 99);
  NucleusSession session(g);
  ASSERT_TRUE(session.Decompose(DecompositionKind::kCore).ok());

  std::atomic<bool> n34_started{false};
  std::atomic<bool> n34_done{false};
  std::thread n34([&] {
    DecomposeOptions opt;
    opt.method = Method::kAnd;
    opt.materialize = Materialize::kOn;
    n34_started = true;
    const auto r = session.Decompose(DecompositionKind::kNucleus34, opt);
    n34_done = true;
    ASSERT_TRUE(r.ok());
  });
  while (!n34_started) std::this_thread::yield();
  int core_reads_during_build = 0;
  while (!n34_done) {
    const auto r = session.Decompose(DecompositionKind::kCore);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->served_from_cache);
    if (!n34_done) ++core_reads_during_build;
  }
  n34.join();
  // The (3,4) cold call takes orders of magnitude longer than one cache
  // hit; under the old single-mutex session this loop could not complete
  // a single read until the build finished.
  EXPECT_GT(core_reads_during_build, 0);
}

TEST(Session, ConcurrentReadsDuringCommitAreSerialized) {
  // Readers hold the session lock shared, a commit holds it exclusively:
  // reads interleaved with a commit observe either the old or the new
  // state, never a torn one. (The TSAN CI job runs this test to prove the
  // locking, not just the outcome.)
  const Graph g = GeneratePlantedPartition(4, 25, 0.5, 0.03, 7);
  NucleusSession session(g);
  ASSERT_TRUE(session.Decompose(DecompositionKind::kCore).ok());
  ASSERT_TRUE(session.Decompose(DecompositionKind::kTruss).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop) {
        const auto core = session.Decompose(DecompositionKind::kCore);
        const auto truss = session.Decompose(DecompositionKind::kTruss);
        if (!core.ok() || !truss.ok()) ++failures;
        std::this_thread::yield();  // give the committing writer a window
      }
    });
  }
  for (int round = 0; round < 6; ++round) {
    auto batch = session.BeginUpdates();
    const VertexId u = static_cast<VertexId>(round);
    const VertexId v = static_cast<VertexId>(50 + round);
    if (round % 2 == 0) {
      batch.InsertEdge(u, v);
    } else {
      batch.RemoveEdge(static_cast<VertexId>(round - 1),
                       static_cast<VertexId>(49 + round));
    }
    const Status s = batch.Commit();
    if (!s.ok()) ++failures;
  }
  stop = true;
  for (auto& r : readers) r.join();
  EXPECT_EQ(failures.load(), 0);
  // Every post-commit answer matches a from-scratch session.
  const auto final_core = session.Decompose(DecompositionKind::kCore);
  ASSERT_TRUE(final_core.ok());
  EXPECT_EQ(final_core->kappa, PeelCore(session.graph()).kappa);
}

TEST(Session, FailedBudgetMemoClearedByCommit) {
  // A budget that cannot fit the initial graph is memoized; after a
  // commit shrinks the graph the memo must be cleared so the build is
  // retried (and can now succeed).
  Graph g = GeneratePlantedPartition(3, 16, 0.7, 0.02, 61);
  NucleusSession session(std::move(g));
  DecomposeOptions opt;
  opt.method = Method::kAnd;
  opt.materialize = Materialize::kAuto;
  opt.use_result_cache = false;
  // Budget below even the COMPRESSED arena need (so the whole ladder
  // degrades to the fly space) but above the post-shrink need: measure
  // the current needs first via unbudgeted probes.
  const Graph& cur = session.graph();
  std::uint64_t compressed_bytes = 0;
  {
    const EdgeIndex edges(cur);
    const TrussSpace space(cur, edges);
    compressed_bytes = CompressedCsrSpace<TrussSpace>(space).MemoryBytes();
  }
  opt.materialize_budget_bytes = compressed_bytes - 1;
  const auto r = session.Decompose(DecompositionKind::kTruss, opt);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(session.stats().truss_arena_builds, 0);
  // Same budget, no mutation: the memos suppress retries of both
  // representations.
  const auto r2 = session.Decompose(DecompositionKind::kTruss, opt);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(session.stats().truss_arena_builds, 0);
  // Remove a batch of edges (shrinking triangles), then retry: the memo
  // was cleared by the commit and the smaller arena now fits.
  auto batch = session.BeginUpdates();
  std::size_t removed = 0;
  const EdgeIndex pre(session.graph());
  for (EdgeId e = 0; e < pre.NumEdges() && removed < pre.NumEdges() / 3;
       ++e) {
    const auto [u, v] = pre.Endpoints(e);
    if (batch.RemoveEdge(u, v)) ++removed;
  }
  ASSERT_GT(removed, 0u);
  ASSERT_TRUE(batch.Commit().ok());
  const auto r3 = session.Decompose(DecompositionKind::kTruss, opt);
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(session.stats().truss_arena_builds, 1);
}

TEST(Session, HeavyChurnTriggersCompaction) {
  // Remove well past the dead-fraction threshold in one commit: the edge
  // layer re-densifies (one counted compaction + fresh EdgeIndex build)
  // and the re-seeded (2,3) kappa matches a from-scratch decomposition
  // bitwise (fresh ids are lexicographic again).
  const Graph g = GenerateErdosRenyi(60, 600, 5);
  NucleusSession session(g);
  ASSERT_TRUE(session.Decompose(DecompositionKind::kTruss).ok());
  auto batch = session.BeginUpdates();
  const EdgeIndex pre(session.graph());
  std::size_t removed = 0;
  for (EdgeId e = 0; e < pre.NumEdges(); e += 2) {
    const auto [u, v] = pre.Endpoints(e);
    if (batch.RemoveEdge(u, v)) ++removed;
  }
  ASSERT_GT(removed, 64u);  // past kMinDeadForCompaction
  ASSERT_TRUE(batch.Commit().ok());
  const SessionStats stats = session.stats();
  EXPECT_GE(stats.compactions, 1);
  const EdgeIndex& idx = session.Edges();
  EXPECT_EQ(idx.NumEdges(), session.graph().NumEdges());  // re-densified
  EXPECT_EQ(idx.NumLiveEdges(), idx.NumEdges());
  const auto truss = session.Decompose(DecompositionKind::kTruss);
  ASSERT_TRUE(truss.ok());
  EXPECT_TRUE(truss->served_from_cache);  // seed survived compaction
  EXPECT_EQ(truss->kappa,
            PeelTruss(session.graph(), EdgeIndex(session.graph())).kappa);
}

TEST(Session, CommitAfterCompactionKeepsMaintainerSeeds) {
  // Regression: a compacting commit re-densifies the edge AND triangle id
  // spaces while the (2,3)/(3,4) kappa caches are live. The maintainers
  // key state structurally (endpoint pairs / vertex triples), so the seeds
  // must be re-exported in the fresh index order — and the NEXT commit
  // must still maintain both kinds incrementally and produce exact values.
  const Graph g = GenerateErdosRenyi(40, 350, 19);
  NucleusSession session(g);
  ASSERT_TRUE(session.Decompose(DecompositionKind::kTruss).ok());
  ASSERT_TRUE(session.Decompose(DecompositionKind::kNucleus34).ok());
  ASSERT_GT(session.Triangles().NumTriangles(), 2 * std::size_t{64});

  // Commit 1: remove every other edge — far past the dead-fraction
  // threshold for both the edge and the triangle layer.
  {
    auto batch = session.BeginUpdates();
    ASSERT_TRUE(batch.MaintainsNucleus34());
    const EdgeIndex pre(session.graph());
    for (EdgeId e = 0; e < pre.NumEdges(); e += 2) {
      const auto [u, v] = pre.Endpoints(e);
      batch.RemoveEdge(u, v);
    }
    ASSERT_TRUE(batch.Commit().ok());
  }
  ASSERT_GE(session.stats().compactions, 1);
  // Re-densified: no tombstones left in either id space.
  EXPECT_EQ(session.Triangles().NumLiveTriangles(),
            session.Triangles().NumTriangles());

  // The re-exported seeds serve from cache and match a fresh peel
  // bitwise (fresh ids are lexicographic again after compaction).
  const auto n34 = session.Decompose(DecompositionKind::kNucleus34);
  ASSERT_TRUE(n34.ok());
  EXPECT_TRUE(n34->served_from_cache);
  EXPECT_EQ(n34->kappa,
            PeelNucleus34(session.graph(), TriangleIndex(session.graph()))
                .kappa);

  // Commit 2 — the regression proper: mutate again after the compaction.
  {
    auto batch = session.BeginUpdates();
    ASSERT_TRUE(batch.MaintainsTruss());
    ASSERT_TRUE(batch.MaintainsNucleus34());
    ASSERT_TRUE(batch.InsertEdge(0, 1) || batch.RemoveEdge(0, 1));
    ASSERT_TRUE(batch.InsertEdge(2, 3) || batch.RemoveEdge(2, 3));
    ASSERT_TRUE(batch.Commit().ok());
  }
  const Graph& cur = session.graph();
  const auto truss2 = session.Decompose(DecompositionKind::kTruss);
  ASSERT_TRUE(truss2.ok());
  EXPECT_TRUE(truss2->served_from_cache);
  const EdgeIndex fresh_edges(cur);
  const auto truss_ref = PeelTruss(cur, fresh_edges).kappa;
  for (EdgeId e = 0; e < fresh_edges.NumEdges(); ++e) {
    const auto [u, v] = fresh_edges.Endpoints(e);
    ASSERT_EQ(truss2->kappa[session.Edges().EdgeIdOf(u, v)], truss_ref[e]);
  }
  const auto n34_2 = session.Decompose(DecompositionKind::kNucleus34);
  ASSERT_TRUE(n34_2.ok());
  EXPECT_TRUE(n34_2->served_from_cache);
  const TriangleIndex fresh_tris(cur);
  const auto n34_ref = PeelNucleus34(cur, fresh_tris).kappa;
  for (TriangleId t = 0; t < fresh_tris.NumTriangles(); ++t) {
    const auto& tri = fresh_tris.Vertices(t);
    ASSERT_EQ(
        n34_2->kappa[session.Triangles().TriangleIdOf(tri[0], tri[1],
                                                      tri[2])],
        n34_ref[t]);
  }
  // Hierarchies were dropped by the compaction (node members referenced
  // the retired id space); a rebuild works over the compacted indices.
  ASSERT_TRUE(session.Hierarchy(DecompositionKind::kNucleus34).ok());
}

TEST(Session, BatchesStayIsolatedFromAnotherBatchsCommit) {
  // Each batch's truss / (3,4) maintainer works on its own copy of the
  // session's index and kappa. b1's commit patches the session's indices
  // in place and then compacts them (the triangle index is freed); b2,
  // branched before it, must go on computing exactly what standalone
  // maintainers replaying its mutations from the branch graph compute,
  // and must still be refused at commit as stale.
  const Graph g = GenerateErdosRenyi(40, 350, 19);
  NucleusSession session(g);
  ASSERT_TRUE(session.Decompose(DecompositionKind::kTruss).ok());
  ASSERT_TRUE(session.Decompose(DecompositionKind::kNucleus34).ok());
  auto b1 = session.BeginUpdates();
  auto b2 = session.BeginUpdates();
  ASSERT_TRUE(b2.MaintainsTruss());
  ASSERT_TRUE(b2.MaintainsNucleus34());

  // b1 kills triangles (every other edge goes: past the compaction
  // threshold of both layers) and births some (absent pairs come in).
  const EdgeIndex pre(g);
  for (EdgeId e = 0; e < pre.NumEdges(); e += 2) {
    ASSERT_TRUE(b1.RemoveEdge(pre.Endpoints(e).first,
                              pre.Endpoints(e).second));
  }
  std::vector<std::pair<VertexId, VertexId>> absent;
  for (VertexId u = 0; u < g.NumVertices() && absent.size() < 16; ++u) {
    for (VertexId v = u + 1; v < g.NumVertices() && absent.size() < 16;
         ++v) {
      if (!g.HasEdge(u, v)) absent.emplace_back(u, v);
    }
  }
  for (std::size_t i = 0; i < absent.size(); i += 2) {
    ASSERT_TRUE(b1.InsertEdge(absent[i].first, absent[i].second));
  }
  const std::uint64_t compactions = session.stats().compactions;
  ASSERT_TRUE(b1.Commit().ok());
  ASSERT_EQ(session.stats().compactions, compactions + 2);  // both layers
  // Rebuild the triangle index, so freed and reused memory is in play.
  ASSERT_TRUE(session.Decompose(DecompositionKind::kNucleus34).ok());

  // b2 mutates afterwards: removals and insertions that kill and birth
  // triangles, a removal undone, and an insertion undone.
  // The reference maintainers share one graph, as a batch's do.
  WorkingGraph ref(g);
  DynamicTrussMaintainer truss_ref(g);
  DynamicNucleus34Maintainer n34_ref(g);
  const auto remove = [&](VertexId u, VertexId v) {
    ASSERT_TRUE(b2.RemoveEdge(u, v));
    ASSERT_TRUE(ref.Erase(u, v));
    truss_ref.EdgeErased(ref, u, v);
    n34_ref.EdgeErased(ref, u, v);
  };
  const auto insert = [&](VertexId u, VertexId v) {
    ASSERT_TRUE(b2.InsertEdge(u, v));
    ASSERT_TRUE(ref.Insert(u, v));
    truss_ref.EdgeInserted(ref, u, v);
    n34_ref.EdgeInserted(ref, u, v);
  };
  for (EdgeId e = 1; e < pre.NumEdges(); e += 9) {
    remove(pre.Endpoints(e).first, pre.Endpoints(e).second);
  }
  for (const auto& [u, v] : absent) insert(u, v);
  remove(absent[1].first, absent[1].second);
  insert(pre.Endpoints(1).first, pre.Endpoints(1).second);

  const Graph after = ref.ToGraph();
  const EdgeIndex edges(after);
  for (EdgeId e = 0; e < edges.NumEdges(); ++e) {
    const auto [u, v] = edges.Endpoints(e);
    ASSERT_EQ(b2.TrussNumberOf(u, v), truss_ref.TrussNumberOf(ref, u, v))
        << "edge {" << u << "," << v << "}";
  }
  EXPECT_EQ(b2.TrussNumberOf(pre.Endpoints(10).first,
                             pre.Endpoints(10).second),
            kInvalidClique);
  const TriangleIndex tris(after);
  ASSERT_GT(tris.NumTriangles(), 0u);
  for (TriangleId t = 0; t < tris.NumTriangles(); ++t) {
    const auto& tri = tris.Vertices(t);
    ASSERT_EQ(b2.Nucleus34NumberOf(tri[0], tri[1], tri[2]),
              n34_ref.Nucleus34NumberOf(ref, tri[0], tri[1], tri[2]))
        << "triangle {" << tri[0] << "," << tri[1] << "," << tri[2] << "}";
  }
  const Status stale = b2.Commit();
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.code(), StatusCode::kFailedPrecondition);
}

TEST(Session, OverBudgetArenaFallsBackToOnTheFly) {
  const Graph g = GeneratePlantedPartition(3, 20, 0.5, 0.02, 37);
  NucleusSession session(g);
  DecomposeOptions opt;
  opt.method = Method::kAnd;
  opt.materialize = Materialize::kAuto;
  opt.materialize_budget_bytes = 1;  // nothing fits
  const auto r = session.Decompose(DecompositionKind::kTruss, opt);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->arena_seconds, 0.0);
  EXPECT_EQ(session.stats().truss_arena_builds, 0);
  EXPECT_EQ(r->kappa, PeelTruss(g, session.Edges()).kappa);
  // A bigger budget on a later call retries and succeeds.
  opt.materialize_budget_bytes = std::uint64_t{64} << 20;
  opt.use_result_cache = false;
  const auto r2 = session.Decompose(DecompositionKind::kTruss, opt);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(session.stats().truss_arena_builds, 1);
  EXPECT_EQ(r2->kappa, r->kappa);
}

TEST(Session, StatsSnapshotTracksCachedState) {
  const Graph g = GenerateErdosRenyi(60, 300, 9);
  NucleusSession session(g);

  const SessionStateStats cold = session.Stats();
  EXPECT_EQ(cold.num_vertices, g.NumVertices());
  EXPECT_EQ(cold.num_edges, g.NumEdges());
  EXPECT_GT(cold.graph_bytes, 0u);
  EXPECT_EQ(cold.edge_ids, 0u);
  EXPECT_EQ(cold.triangle_ids, 0u);
  EXPECT_EQ(cold.index_bytes, 0u);
  for (int k = 0; k < 3; ++k) {
    EXPECT_FALSE(cold.kappa_cached[k]);
    EXPECT_FALSE(cold.hierarchy_cached[k]);
    EXPECT_EQ(cold.arena_bytes[k], 0u);
  }
  EXPECT_EQ(cold.TotalBytes(), cold.graph_bytes);

  ASSERT_TRUE(session.Decompose(DecompositionKind::kTruss).ok());
  const SessionStateStats warm = session.Stats();
  EXPECT_TRUE(warm.kappa_cached[static_cast<int>(DecompositionKind::kTruss)]);
  EXPECT_FALSE(warm.kappa_cached[static_cast<int>(DecompositionKind::kCore)]);
  EXPECT_GT(warm.edge_ids, 0u);
  EXPECT_EQ(warm.live_edges, warm.edge_ids);  // no churn yet
  EXPECT_GT(warm.index_bytes, 0u);
  EXPECT_GT(warm.TotalBytes(), cold.TotalBytes());
  EXPECT_EQ(warm.counters.decompose_calls, session.stats().decompose_calls);

  // The triangle id space only materializes for the (3,4) space.
  ASSERT_TRUE(session.Decompose(DecompositionKind::kNucleus34).ok());
  const SessionStateStats n34 = session.Stats();
  EXPECT_GT(n34.triangle_ids, 0u);
  EXPECT_EQ(n34.live_triangles, n34.triangle_ids);

  ASSERT_TRUE(session.Hierarchy(DecompositionKind::kTruss).ok());
  const SessionStateStats h = session.Stats();
  EXPECT_TRUE(h.hierarchy_cached[static_cast<int>(DecompositionKind::kTruss)]);
  EXPECT_FALSE(h.hierarchy_cached[static_cast<int>(DecompositionKind::kCore)]);

  // The snapshot is a copy: it must not change as the session moves on.
  session.InvalidateDerivedState();
  EXPECT_TRUE(h.hierarchy_cached[static_cast<int>(DecompositionKind::kTruss)]);
  const SessionStateStats reset = session.Stats();
  EXPECT_FALSE(
      reset.kappa_cached[static_cast<int>(DecompositionKind::kTruss)]);
  EXPECT_EQ(reset.index_bytes, 0u);
}

TEST(Session, StatsIsSafeDuringConcurrentDecompose) {
  // Stats() takes the session lock and copies — poll it from another
  // thread while decompositions run (the TSAN job validates this is
  // race-free, which is what /metricz relies on).
  const Graph g = GenerateErdosRenyi(80, 500, 13);
  NucleusSession session(g);
  std::atomic<bool> stop{false};
  std::thread poller([&] {
    while (!stop.load()) {
      const SessionStateStats s = session.Stats();
      ASSERT_EQ(s.num_vertices, 80u);
      ASSERT_LE(s.graph_bytes, s.TotalBytes());
    }
  });
  for (auto kind : {DecompositionKind::kCore, DecompositionKind::kTruss,
                    DecompositionKind::kNucleus34}) {
    ASSERT_TRUE(session.Decompose(kind).ok());
    ASSERT_TRUE(session.Hierarchy(kind).ok());
  }
  stop.store(true);
  poller.join();
  const SessionStateStats done = session.Stats();
  for (int k = 0; k < 3; ++k) {
    EXPECT_TRUE(done.kappa_cached[k]);
    EXPECT_TRUE(done.hierarchy_cached[k]);
  }
}

}  // namespace
}  // namespace nucleus
