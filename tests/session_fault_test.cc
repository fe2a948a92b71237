// Randomized fault + cancellation battery for NucleusSession.
//
// The resilience contract under test: any entry point may come back
// non-OK — an injected fault (kResourceExhausted), a fired CancelToken
// (kCancelled), or an expired deadline (kDeadlineExceeded) — and when it
// does the session must be bitwise as-if-never-attempted: every
// observable (the graph, all three kappa vectors, the hierarchies, the
// commit counter) matches an untouched oracle session, and retrying the
// same call succeeds. No trial may crash, hang, or throw.
//
// The fault-dependent tests arm the process-wide FaultRegistry and skip
// themselves when the build compiled the points out (CMake option
// NUCLEUS_FAULT_INJECTION=OFF); the cancellation trials run in every
// configuration.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "src/common/cancel.h"
#include "src/common/fault_injection.h"
#include "src/core/session.h"
#include "src/graph/generators.h"

namespace nucleus {
namespace {

constexpr DecompositionKind kKinds[] = {DecompositionKind::kCore,
                                        DecompositionKind::kTruss,
                                        DecompositionKind::kNucleus34};

// splitmix64: deterministic, seedable, no global state.
std::uint64_t NextRand(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// The trial graph: small enough that a full three-kind decomposition is
// milliseconds, dense enough that every layer (triangles, 4-cliques,
// arenas, hierarchies) has real work to do.
Graph TrialGraph() { return GeneratePlantedPartition(3, 16, 0.6, 0.08, 5); }

// Disarms every fault point on scope exit so a failed ASSERT in one test
// cannot leak an armed point into the next.
struct DisarmGuard {
  ~DisarmGuard() { FaultRegistry::Get().DisarmAll(); }
};

// Everything a caller can observe about a session's derived state.
struct Observables {
  std::vector<std::size_t> offsets;
  std::vector<VertexId> neighbors;
  std::vector<std::vector<Degree>> kappa;       // per kind
  std::vector<std::vector<int>> node_of_clique;  // per kind
  std::uint64_t commits = 0;

  bool operator==(const Observables&) const = default;
};

// Reads the full observable state. All reads must succeed (no faults
// armed, no cancellation): the battery only calls this on quiescent
// sessions.
Observables Observe(NucleusSession* s, int threads) {
  Observables o;
  o.offsets = s->graph().Offsets();
  o.neighbors = s->graph().NeighborArray();
  DecomposeOptions opt;
  opt.threads = threads;
  for (auto kind : kKinds) {
    auto r = s->Decompose(kind, opt);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    o.kappa.push_back(r.ok() ? r->kappa : std::vector<Degree>{});
    auto h = s->Hierarchy(kind, opt);
    EXPECT_TRUE(h.ok()) << h.status().ToString();
    o.node_of_clique.push_back(h.ok() ? (*h)->node_of_clique
                                      : std::vector<int>{});
  }
  o.commits = s->stats().commits;
  return o;
}

// One random operation against the session. Returns the operation's
// Status; never throws, never crashes — that IS the assertion.
Status RandomOp(NucleusSession* s, std::uint64_t* rng, int threads) {
  DecomposeOptions opt;
  opt.threads = threads;
  const auto kind = kKinds[NextRand(rng) % 3];
  switch (NextRand(rng) % 4) {
    case 0:
      return s->Decompose(kind, opt).status();
    case 1:
      return s->Hierarchy(kind, opt).status();
    case 2: {
      auto batch = s->BeginUpdates();
      const VertexId n = static_cast<VertexId>(s->graph().NumVertices());
      const VertexId u = static_cast<VertexId>(NextRand(rng) % n);
      const VertexId v = static_cast<VertexId>(NextRand(rng) % n);
      if (NextRand(rng) % 2 == 0) {
        batch.InsertEdge(u, v);
      } else {
        batch.RemoveEdge(u, v);
      }
      return batch.Commit();
    }
    default: {
      const std::vector<CliqueId> ids = {0};
      return s->EstimateQueries(kind, ids).status();
    }
  }
}

TEST(SessionFault, RegisteredPointsCoverEveryLayer) {
  if (!FaultInjectionEnabled()) {
    GTEST_SKIP() << "built without NUCLEUS_FAULT_INJECTION";
  }
  DisarmGuard guard;
  // A warm-up pass over every entry point self-registers the points.
  const Graph g = TrialGraph();
  NucleusSession s(g);
  for (auto kind : kKinds) {
    ASSERT_TRUE(s.Decompose(kind).ok());
    ASSERT_TRUE(s.Hierarchy(kind).ok());
  }
  {
    auto batch = s.BeginUpdates();
    batch.InsertEdge(0, 30);
    ASSERT_TRUE(batch.Commit().ok());
  }
  const auto points = FaultRegistry::Get().RegisteredPoints();
  for (const char* want :
       {"edge_index_build", "triangle_index_build", "arena_build",
        "commit_begin", "commit_enumerate", "commit_stage"}) {
    EXPECT_NE(std::find(points.begin(), points.end(), want), points.end())
        << "fault point never executed: " << want;
  }
}

// The core battery: hundreds of trials, each arming one random fault
// point and running random operations until the fault fires (or the
// trial's op budget runs out). After every failure the session must match
// the oracle that executed the same successful operations, and the failed
// operation retried fault-free must succeed.
TEST(SessionFault, RandomizedFaultBatteryLeavesStateUntouched) {
  if (!FaultInjectionEnabled()) {
    GTEST_SKIP() << "built without NUCLEUS_FAULT_INJECTION";
  }
  DisarmGuard guard;
  const Graph g = TrialGraph();

  // Register every reachable point once.
  {
    NucleusSession warmup(g);
    for (auto kind : kKinds) ASSERT_TRUE(warmup.Decompose(kind).ok());
    auto batch = warmup.BeginUpdates();
    batch.InsertEdge(0, 40);
    ASSERT_TRUE(batch.Commit().ok());
  }
  const std::vector<std::string> points =
      FaultRegistry::Get().RegisteredPoints();
  ASSERT_FALSE(points.empty());

  int fired_failures = 0;
  for (const int threads : {1, 4, 8}) {
    for (int trial = 0; trial < 72; ++trial) {
      std::uint64_t rng = 0x5eed0000ull + trial * 1000003ull + threads;
      NucleusSession session(g);
      NucleusSession oracle(g);
      const std::string& point = points[NextRand(&rng) % points.size()];
      FaultRegistry::Get().ArmAfter(point, 1 + NextRand(&rng) % 3);

      for (int op = 0; op < 6; ++op) {
        std::uint64_t oracle_rng = rng;  // oracle replays the same op
        const Status s = RandomOp(&session, &rng, threads);
        if (s.ok()) {
          // Mirror the successful op into the oracle so both sessions
          // saw the same committed history. The oracle must not consume
          // the armed countdown, so the point is quiet while it replays
          // and re-armed (fresh draw) afterwards.
          FaultRegistry::Get().Disarm(point);
          ASSERT_TRUE(RandomOp(&oracle, &oracle_rng, threads).ok());
          FaultRegistry::Get().ArmAfter(point, 1 + NextRand(&rng) % 3);
          continue;
        }
        ASSERT_EQ(s.code(), StatusCode::kResourceExhausted)
            << s.ToString() << " (point " << point << ")";
        ++fired_failures;
        // Failure atomicity: with the registry quiet, the failed session
        // is observably identical to the oracle...
        FaultRegistry::Get().DisarmAll();
        EXPECT_EQ(Observe(&session, threads), Observe(&oracle, threads))
            << "point " << point << " trial " << trial;
        // ...and the exact op that failed now succeeds.
        std::uint64_t retry_rng = oracle_rng;
        EXPECT_TRUE(RandomOp(&session, &retry_rng, threads).ok());
        break;
      }
      FaultRegistry::Get().DisarmAll();
    }
  }
  // The battery is only meaningful if faults actually fired; with 216
  // trials over a handful of points this is astronomically certain.
  EXPECT_GT(fired_failures, 20);
}

TEST(SessionFault, ProbabilisticFaultsNeverCrash) {
  if (!FaultInjectionEnabled()) {
    GTEST_SKIP() << "built without NUCLEUS_FAULT_INJECTION";
  }
  DisarmGuard guard;
  const Graph g = TrialGraph();
  const std::vector<std::string> points =
      FaultRegistry::Get().RegisteredPoints();
  std::uint64_t rng = 0xabcdef12345ull;
  for (int round = 0; round < 30; ++round) {
    for (const auto& p : points) {
      FaultRegistry::Get().ArmProbabilistic(p, 0.3, NextRand(&rng));
    }
    NucleusSession session(g);
    for (int op = 0; op < 8; ++op) {
      const Status s = RandomOp(&session, &rng, 1 + (round % 4));
      EXPECT_TRUE(s.ok() || s.code() == StatusCode::kResourceExhausted)
          << s.ToString();
    }
    // With the registry quiet the session always recovers fully.
    FaultRegistry::Get().DisarmAll();
    for (auto kind : kKinds) {
      EXPECT_TRUE(session.Decompose(kind).ok());
    }
  }
}

TEST(SessionFault, CommitFaultsAreAtomicPerStage) {
  if (!FaultInjectionEnabled()) {
    GTEST_SKIP() << "built without NUCLEUS_FAULT_INJECTION";
  }
  DisarmGuard guard;
  const Graph g = TrialGraph();
  // Pick a mutation with a real net delta — one present edge to drop and
  // one absent pair to add — so the commit reaches every fallible stage
  // instead of early-returning on an empty delta.
  const VertexId n = static_cast<VertexId>(g.NumVertices());
  VertexId add_u = 0, add_v = 0, del_u = 0, del_v = 0;
  bool have_add = false, have_del = false;
  for (VertexId u = 0; u < n && !(have_add && have_del); ++u) {
    for (VertexId v = u + 1; v < n && !(have_add && have_del); ++v) {
      if (g.HasEdge(u, v)) {
        if (!have_del) del_u = u, del_v = v, have_del = true;
      } else if (!have_add) {
        add_u = u, add_v = v, have_add = true;
      }
    }
  }
  ASSERT_TRUE(have_add && have_del);
  for (const char* stage :
       {"commit_begin", "commit_enumerate", "commit_stage"}) {
    NucleusSession session(g);
    // Warm every cache so the commit has real state to endanger.
    for (auto kind : kKinds) {
      ASSERT_TRUE(session.Decompose(kind).ok());
      ASSERT_TRUE(session.Hierarchy(kind).ok());
    }
    const Observables before = Observe(&session, 2);

    auto batch = session.BeginUpdates();
    batch.InsertEdge(add_u, add_v);
    batch.RemoveEdge(del_u, del_v);
    FaultRegistry::Get().ArmAfter(stage, 1);
    const Status s = batch.Commit();
    FaultRegistry::Get().DisarmAll();
    ASSERT_FALSE(s.ok()) << stage;
    EXPECT_EQ(s.code(), StatusCode::kResourceExhausted) << stage;

    // Nothing moved: same graph, same kappa, same hierarchies, same
    // commit count.
    EXPECT_EQ(Observe(&session, 2), before) << stage;

    // The batch is still alive; the retry publishes the mutation.
    ASSERT_TRUE(batch.Commit().ok()) << stage;
    EXPECT_TRUE(session.graph().HasEdge(add_u, add_v));
    EXPECT_FALSE(session.graph().HasEdge(del_u, del_v));
  }
}

// The query and HierarchyFor paths build their indices through the same
// fallible builders as Decompose: an armed index fault surfaces as a
// Status, installs nothing, and a quiet retry succeeds.
TEST(SessionFault, QueryAndHierarchyForIndexBuildsAreFaultable) {
  if (!FaultInjectionEnabled()) {
    GTEST_SKIP() << "built without NUCLEUS_FAULT_INJECTION";
  }
  DisarmGuard guard;
  const Graph g = TrialGraph();
  NucleusSession oracle(g);
  const auto n34 = oracle.Decompose(DecompositionKind::kNucleus34);
  ASSERT_TRUE(n34.ok());
  const std::vector<CliqueId> ids = {0, 1};
  const struct {
    const char* point;
    DecompositionKind kind;
    bool hierarchy_for;
  } cases[] = {
      {"edge_index_build", DecompositionKind::kTruss, false},
      {"triangle_index_build", DecompositionKind::kNucleus34, false},
      {"triangle_index_build", DecompositionKind::kNucleus34, true},
  };
  for (const auto& c : cases) {
    const std::string tag = std::string(c.point) + " " + KindName(c.kind) +
                            (c.hierarchy_for ? " HierarchyFor" : " query");
    NucleusSession session(g);
    const auto run = [&]() -> Status {
      if (c.hierarchy_for) {
        return session.HierarchyFor(c.kind, n34->kappa).status();
      }
      return session.EstimateQueries(c.kind, ids).status();
    };
    FaultRegistry::Get().ArmAfter(c.point, 1);
    const Status failed = run();
    FaultRegistry::Get().DisarmAll();
    EXPECT_EQ(failed.code(), StatusCode::kResourceExhausted) << tag;
    const SessionStateStats state = session.Stats();
    EXPECT_EQ(state.edge_ids, 0u) << tag;  // nothing installed
    EXPECT_EQ(state.triangle_ids, 0u) << tag;
    EXPECT_TRUE(run().ok()) << tag;
  }
}

// Cancellation trials run in every build configuration (no registry
// involved). A canceller thread fires the token at a random point during
// a cold (3,4) build; whatever the race outcome, the session must either
// finish cleanly or report kCancelled and then rebuild identically.
TEST(SessionFault, RandomizedCancelBatteryLeavesSessionRetryable) {
  const Graph g = GenerateBarabasiAlbert(600, 7, 23);
  NucleusSession oracle(g);
  const auto want = oracle.Decompose(DecompositionKind::kNucleus34);
  ASSERT_TRUE(want.ok());
  const auto want_h = oracle.Hierarchy(DecompositionKind::kNucleus34);
  ASSERT_TRUE(want_h.ok());

  std::uint64_t rng = 0xca9ce1ull;
  for (const int threads : {1, 4, 8}) {
    for (int trial = 0; trial < 12; ++trial) {
      NucleusSession session(g);
      CancelToken token;
      std::atomic<bool> done{false};
      const int delay_us = static_cast<int>(NextRand(&rng) % 3000);
      std::thread canceller([&] {
        std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
        if (!done.load()) token.RequestCancel();
      });
      DecomposeOptions opt;
      opt.threads = threads;
      opt.cancel_token = &token;
      const auto r = session.Decompose(DecompositionKind::kNucleus34, opt);
      done.store(true);
      canceller.join();
      ASSERT_TRUE(r.ok() || r.status().code() == StatusCode::kCancelled)
          << r.status().ToString();
      if (r.ok()) {
        EXPECT_EQ(r->kappa, want->kappa);
        continue;
      }
      // Cancelled: nothing partial may survive. The retry (token quiet)
      // rebuilds from scratch and matches the oracle exactly.
      token.Reset();
      const auto retry =
          session.Decompose(DecompositionKind::kNucleus34, opt);
      ASSERT_TRUE(retry.ok()) << retry.status().ToString();
      EXPECT_EQ(retry->kappa, want->kappa);
      const auto h = session.Hierarchy(DecompositionKind::kNucleus34, opt);
      ASSERT_TRUE(h.ok());
      EXPECT_EQ((*h)->node_of_clique, (*want_h)->node_of_clique);
    }
  }
}

TEST(SessionFault, DeadlineBatteryNeverHangs) {
  const Graph g = GenerateBarabasiAlbert(600, 7, 23);
  NucleusSession oracle(g);
  const auto want = oracle.Decompose(DecompositionKind::kNucleus34);
  ASSERT_TRUE(want.ok());
  // Sweep deadlines from "hopeless" to "comfortable"; every outcome must
  // be a clean Status, and a success must be the exact answer.
  for (const std::int64_t ms : {1, 2, 5, 20, 100, 10000}) {
    NucleusSession session(g);
    DecomposeOptions opt;
    opt.threads = 4;
    opt.deadline_ms = ms;
    const auto r = session.Decompose(DecompositionKind::kNucleus34, opt);
    if (r.ok()) {
      EXPECT_EQ(r->kappa, want->kappa) << "deadline_ms=" << ms;
    } else {
      EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
          << r.status().ToString();
      // Unbounded retry always lands.
      DecomposeOptions retry_opt;
      retry_opt.threads = 4;
      const auto retry =
          session.Decompose(DecompositionKind::kNucleus34, retry_opt);
      ASSERT_TRUE(retry.ok());
      EXPECT_EQ(retry->kappa, want->kappa);
    }
  }
}

TEST(SessionFault, ConcurrentRequestsOneSharedCancel) {
  // Several threads issue cold decompositions against one session while
  // the main thread fires a token shared by all of them. Every call must
  // return a clean Status; afterwards the session still serves exact
  // answers to everyone.
  const Graph g = GenerateBarabasiAlbert(400, 6, 29);
  NucleusSession oracle(g);
  std::vector<std::vector<Degree>> want;
  for (auto kind : kKinds) {
    auto r = oracle.Decompose(kind);
    ASSERT_TRUE(r.ok());
    want.push_back(r->kappa);
  }

  NucleusSession session(g);
  CancelToken token;
  std::atomic<int> clean{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 6; ++t) {
    workers.emplace_back([&, t] {
      DecomposeOptions opt;
      opt.threads = 2;
      opt.cancel_token = &token;
      const auto kind = kKinds[t % 3];
      const auto r = session.Decompose(kind, opt);
      if (r.ok() || r.status().code() == StatusCode::kCancelled) {
        clean.fetch_add(1);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::microseconds(500));
  token.RequestCancel();
  for (auto& w : workers) w.join();
  EXPECT_EQ(clean.load(), 6);

  // The shared cancel is over; the session is intact and exact.
  for (std::size_t i = 0; i < 3; ++i) {
    const auto r = session.Decompose(kKinds[i]);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->kappa, want[i]);
  }
}

}  // namespace
}  // namespace nucleus
