// Concurrent battery for the serving layer (ServerCore + GraphRegistry).
// The serving contract under test:
//   - coalescing: N concurrent cold requests for the same (graph, kind)
//     cost exactly ONE session build — riders share the leader's response
//     and never reach the session;
//   - admission control: a full queue sheds immediately with
//     kResourceExhausted, it never blocks the caller behind unschedulable
//     work;
//   - deadlines: an expired request comes back kDeadlineExceeded (whether
//     it expired queued or mid-compute) and the session stays bitwise
//     reusable — the retry matches an untouched oracle;
//   - multi-tenancy: reads racing commits and evictions racing reads are
//     safe at 1, 4, and 8 workers (the TSAN job runs this suite).
// The wire transport over real sockets is reactor_test's battery.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/core/session.h"
#include "src/graph/generators.h"
#include "src/server/http.h"
#include "src/server/json.h"
#include "src/server/registry.h"
#include "src/server/server_core.h"

namespace nucleus {
namespace {

// Dense enough that a cold (3,4) build takes real wall-clock (~millions of
// K4 visits) — the window the coalescing and shedding tests rely on.
Graph SlowGraph() { return GenerateErdosRenyi(400, 16000, 11); }

// Small and fast, for the racing/eviction loops.
Graph FastGraph() { return GenerateErdosRenyi(150, 1200, 5); }

ServerConfig Config(int workers, std::size_t queue_capacity = 64) {
  ServerConfig config;
  config.workers = workers;
  config.queue_capacity = queue_capacity;
  return config;
}

bool WaitFor(const std::function<bool()>& pred, int timeout_ms = 10000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

std::uint64_t CounterValue(ServerCore& server, const std::string& name) {
  for (const auto& [key, value] : server.metrics().CounterValues()) {
    if (key == name) return value;
  }
  return 0;
}

class StringSink : public ChunkSink {
 public:
  bool Write(std::string_view chunk) override {
    data.append(chunk);
    return true;
  }
  std::string data;
};

TEST(ServerCore, EndpointsRoundTrip) {
  ServerCore server(Config(2));
  ASSERT_TRUE(server.registry().Add("g", FastGraph()).ok());

  for (const char* kind : {"core", "truss", "nucleus34"}) {
    const ServerResponse r = server.Handle(
        {"decompose", std::string("{\"graph\":\"g\",\"kind\":\"") + kind +
                          "\",\"method\":\"peel\"}"});
    ASSERT_TRUE(r.status.ok()) << kind << ": " << r.status.ToString();
    auto body = JsonValue::Parse(r.body);
    ASSERT_TRUE(body.ok());
    EXPECT_EQ(body->GetString("kind").value(), kind);
    EXPECT_GT(body->GetInt("num_r_cliques").value(), 0);
    EXPECT_TRUE(body->GetBool("exact").value());
  }

  const ServerResponse q = server.Handle(
      {"query", R"({"graph":"g","kind":"core","ids":[0,1,2],"radius":2})"});
  ASSERT_TRUE(q.status.ok()) << q.status.ToString();
  auto q_body = JsonValue::Parse(q.body);
  ASSERT_TRUE(q_body.ok());
  EXPECT_EQ(q_body->Find("estimates")->AsArray().size(), 3u);

  const ServerResponse h =
      server.Handle({"hierarchy", R"({"graph":"g","kind":"truss"})"});
  ASSERT_TRUE(h.status.ok()) << h.status.ToString();
  auto h_body = JsonValue::Parse(h.body);
  ASSERT_TRUE(h_body.ok());
  EXPECT_GT(h_body->GetInt("nodes").value(), 0);

  const ServerResponse d =
      server.Handle({"densest", R"({"graph":"g","mode":"triangle"})"});
  ASSERT_TRUE(d.status.ok()) << d.status.ToString();

  const ServerResponse s = server.Handle({"stats", R"({"graph":"g"})"});
  ASSERT_TRUE(s.status.ok());
  auto s_body = JsonValue::Parse(s.body);
  ASSERT_TRUE(s_body.ok());
  EXPECT_TRUE(s_body->Find("kappa_cached")->Find("truss")->AsBool());
  EXPECT_GT(s_body->GetInt("total_bytes").value(), 0);

  const ServerResponse m = server.Handle({"metricz", ""});
  ASSERT_TRUE(m.status.ok());
  auto m_body = JsonValue::Parse(m.body);
  ASSERT_TRUE(m_body.ok()) << m.body;
  EXPECT_EQ(m_body->Find("registry")->Find("resident")->AsInt(), 1);

  const ServerResponse list = server.Handle({"graphs", ""});
  ASSERT_TRUE(list.status.ok());
  EXPECT_EQ(JsonValue::Parse(list.body)->Find("graphs")->AsArray().size(),
            1u);
}

TEST(ServerCore, MalformedRequestsAreStatusNotCrash) {
  ServerCore server(Config(1));
  ASSERT_TRUE(server.registry().Add("g", FastGraph()).ok());
  EXPECT_EQ(server.Handle({"decompose", "{not json"}).status.code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(server.Handle({"decompose", "{}"}).status.code(),
            StatusCode::kInvalidArgument);  // missing graph
  EXPECT_EQ(
      server.Handle({"decompose", R"({"graph":"g","kind":"quux"})"})
          .status.code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(server.Handle({"decompose", R"({"graph":"absent"})"})
                .status.code(),
            StatusCode::kNotFound);
  EXPECT_EQ(server.Handle({"frobnicate", "{}"}).status.code(),
            StatusCode::kNotFound);
  EXPECT_EQ(
      server
          .Handle({"update",
                   R"({"graph":"g","insert":[[0,999999]]})"})
          .status.code(),
      StatusCode::kInvalidArgument);
}

// The process-wide pool never shrinks, so a request's `threads` is capped
// at the host's hardware threads: an uncapped 1000 would grow the pool to
// min(1000, n) - 1 workers. A 48-vertex graph bounds what a broken cap can
// start at 47 threads.
TEST(ServerCore, RequestThreadsAreCappedAtHardwareThreads) {
  ServerCore server(Config(1));
  ASSERT_TRUE(server.registry().Add("g", GenerateComplete(48)).ok());
  const std::size_t before = ThreadPool::Get().ThreadsCreated();
  for (const auto& [endpoint, body] :
       std::vector<std::pair<std::string, std::string>>{
           {"decompose",
            R"({"graph":"g","kind":"core","threads":1000,"no_cache":true})"},
           {"hierarchy", R"({"graph":"g","kind":"core","threads":1000})"},
           {"query",
            R"({"graph":"g","kind":"core","ids":[0],"radius":1,)"
            R"("threads":1000})"}}) {
    const ServerResponse r = server.Handle({endpoint, body});
    ASSERT_TRUE(r.status.ok()) << endpoint << ": " << r.status.ToString();
  }
  EXPECT_LE(ThreadPool::Get().ThreadsCreated(),
            std::max(before, static_cast<std::size_t>(HardwareThreads() - 1)));
}

// The tentpole proof: 8 concurrent cold (3,4) requests, one arena/index
// build. Riders never reach the session (decompose_calls == 1) and the
// server counts exactly one coalesced build with 7 riders.
TEST(ServerCore, ConcurrentColdRequestsCoalesceIntoOneBuild) {
  ServerCore server(Config(8));
  auto entry = server.registry().Add("g", SlowGraph());
  ASSERT_TRUE(entry.ok());

  constexpr int kClients = 8;
  std::barrier barrier(kClients);
  std::vector<ServerResponse> responses(kClients);
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      barrier.arrive_and_wait();
      responses[i] = server.Handle(
          {"decompose", R"({"graph":"g","kind":"nucleus34"})"});
    });
  }
  for (std::thread& t : clients) t.join();

  std::string first_body;
  for (int i = 0; i < kClients; ++i) {
    ASSERT_TRUE(responses[i].status.ok()) << responses[i].status.ToString();
    if (first_body.empty()) first_body = responses[i].body;
    // Riders share the leader's response verbatim.
    EXPECT_EQ(responses[i].body, first_body);
  }

  const SessionStats stats = (*entry)->session.stats();
  EXPECT_EQ(stats.decompose_calls, 1);
  EXPECT_EQ(stats.triangle_index_builds, 1);
  EXPECT_LE(stats.nucleus34_arena_builds, 1);
  EXPECT_EQ(CounterValue(server, "coalesce.builds"), 1u);
  EXPECT_EQ(CounterValue(server, "coalesce.riders"),
            static_cast<std::uint64_t>(kClients - 1));
}

// Two concurrent requests for the same canonical work, spelled differently
// (threads is an execution hint, not part of the result), still coalesce
// into one build — and the differing raw signature is counted as a
// normalization win in coalesce.norm_hits.
TEST(ServerCore, DifferentSpellingsCoalesceViaNormalization) {
  ServerCore server(Config(8));
  auto entry = server.registry().Add("g", SlowGraph());
  ASSERT_TRUE(entry.ok());

  std::barrier barrier(2);
  ServerResponse a, b;
  std::thread t1([&] {
    barrier.arrive_and_wait();
    a = server.Handle(
        {"decompose", R"({"graph":"g","kind":"nucleus34","threads":1})"});
  });
  std::thread t2([&] {
    barrier.arrive_and_wait();
    b = server.Handle(
        {"decompose", R"({"graph":"g","kind":"nucleus34","threads":2})"});
  });
  t1.join();
  t2.join();

  ASSERT_TRUE(a.status.ok()) << a.status.ToString();
  ASSERT_TRUE(b.status.ok()) << b.status.ToString();
  EXPECT_EQ(a.body, b.body);  // the rider shares the leader's bytes
  EXPECT_EQ((*entry)->session.stats().decompose_calls, 1);
  EXPECT_EQ(CounterValue(server, "coalesce.builds"), 1u);
  EXPECT_EQ(CounterValue(server, "coalesce.riders"), 1u);
  EXPECT_EQ(CounterValue(server, "coalesce.norm_hits"), 1u);
}

// A deterministic failure (unknown graph) is answered from the negative-
// result cache on repeat — and an update commit clears the cache, because
// cached rejections may be stale once the world changes.
TEST(ServerCore, NegativeResultsAreCachedAndClearedByUpdates) {
  ServerConfig config = Config(2);
  config.negative_cache_ttl_ms = 60000;
  ServerCore server(config);
  ASSERT_TRUE(server.registry().Add("g", FastGraph()).ok());

  const ServerRequest bad{"decompose", R"({"graph":"absent"})"};
  EXPECT_EQ(server.Handle(bad).status.code(), StatusCode::kNotFound);
  EXPECT_EQ(CounterValue(server, "negcache.stores"), 1u);
  EXPECT_EQ(CounterValue(server, "negcache.hits"), 0u);

  EXPECT_EQ(server.Handle(bad).status.code(), StatusCode::kNotFound);
  EXPECT_EQ(CounterValue(server, "negcache.hits"), 1u);

  // A committed update may have changed what is and is not an error; the
  // next identical request misses the cache and is stored afresh.
  const ServerResponse up =
      server.Handle({"update", R"({"graph":"g","insert":[[0,1]]})"});
  ASSERT_TRUE(up.status.ok()) << up.status.ToString();
  EXPECT_EQ(server.Handle(bad).status.code(), StatusCode::kNotFound);
  EXPECT_EQ(CounterValue(server, "negcache.stores"), 2u);
  EXPECT_EQ(CounterValue(server, "negcache.hits"), 1u);
}

// The negative cache is a TTL cache: entries expire on their own even when
// nothing mutates the world.
TEST(ServerCore, NegativeCacheEntriesExpire) {
  ServerConfig config = Config(2);
  config.negative_cache_ttl_ms = 100;
  ServerCore server(config);

  const ServerRequest bad{"decompose", R"({"graph":"absent"})"};
  EXPECT_EQ(server.Handle(bad).status.code(), StatusCode::kNotFound);
  EXPECT_EQ(CounterValue(server, "negcache.stores"), 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_EQ(server.Handle(bad).status.code(), StatusCode::kNotFound);
  EXPECT_EQ(CounterValue(server, "negcache.hits"), 0u);
  EXPECT_EQ(CounterValue(server, "negcache.stores"), 2u);
}

TEST(ServerCore, FullQueueShedsWithResourceExhausted) {
  ServerCore server(Config(/*workers=*/1, /*queue_capacity=*/1));
  ASSERT_TRUE(server.registry().Add("g", SlowGraph()).ok());

  // Occupy the only worker with a cold (3,4) build...
  std::thread active([&] {
    const ServerResponse r = server.Handle(
        {"decompose", R"({"graph":"g","kind":"nucleus34"})"});
    EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  });
  ASSERT_TRUE(WaitFor([&] { return server.ActiveRequests() == 1; }));

  // ...fill the queue's single slot...
  std::thread queued([&] {
    const ServerResponse r =
        server.Handle({"decompose", R"({"graph":"g","kind":"truss"})"});
    EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  });
  ASSERT_TRUE(WaitFor([&] { return server.QueueDepth() == 1; }));

  // ...and the next arrival sheds immediately.
  const ServerResponse shed = server.Handle({"healthz", ""});
  EXPECT_EQ(shed.status.code(), StatusCode::kResourceExhausted);
  EXPECT_GE(CounterValue(server, "server.shed"), 1u);

  active.join();
  queued.join();
}

// An expired request returns kDeadlineExceeded and leaves the session
// bitwise reusable: the retry's kappa matches an oracle session that never
// saw a failure.
TEST(ServerCore, DeadlineExpiredRequestLeavesSessionReusable) {
  ServerCore server(Config(2));
  ASSERT_TRUE(server.registry().Add("g", SlowGraph()).ok());

  const ServerResponse expired = server.Handle(
      {"decompose",
       R"({"graph":"g","kind":"nucleus34","deadline_ms":1})"});
  EXPECT_EQ(expired.status.code(), StatusCode::kDeadlineExceeded)
      << expired.status.ToString();

  const ServerResponse retry = server.Handle(
      {"decompose",
       R"({"graph":"g","kind":"nucleus34","include_kappa":true})"});
  ASSERT_TRUE(retry.status.ok()) << retry.status.ToString();
  auto body = JsonValue::Parse(retry.body);
  ASSERT_TRUE(body.ok());
  const auto& kappa_json = body->Find("kappa")->AsArray();

  NucleusSession oracle(SlowGraph());
  auto expected = oracle.Decompose(DecompositionKind::kNucleus34);
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(kappa_json.size(), expected->kappa.size());
  for (std::size_t i = 0; i < kappa_json.size(); ++i) {
    ASSERT_EQ(static_cast<Degree>(kappa_json[i].AsInt()),
              expected->kappa[i])
        << "kappa diverges at id " << i;
  }
}

// A query polls the request's deadline in its sweeps: a (3,4) radius-2
// query over most of the graph, run inline as the reactor runs reads,
// comes back 504 instead of holding the loop thread, and the session then
// answers the same query correctly.
TEST(ServerCore, QueryHonoursDeadlineAndSessionStillAnswers) {
  ServerCore server(Config(1));
  ASSERT_TRUE(server.registry().Add("g", SlowGraph()).ok());
  // Warm the triangle index so the deadline has only the query to stop.
  ASSERT_TRUE(server
                  .HandleDirect({"query",
                                 R"({"graph":"g","kind":"nucleus34",)"
                                 R"("ids":[0],"radius":0})"})
                  .status.ok());
  const std::string query =
      R"({"graph":"g","kind":"nucleus34","ids":[0,7],"radius":2)";
  const ServerResponse expired =
      server.HandleDirect({"query", query + R"(,"deadline_ms":1})"});
  EXPECT_EQ(expired.status.code(), StatusCode::kDeadlineExceeded)
      << expired.status.ToString();
  EXPECT_EQ(HttpStatusFor(expired.status.code()), 504);

  const ServerResponse retry = server.HandleDirect({"query", query + "}"});
  ASSERT_TRUE(retry.status.ok()) << retry.status.ToString();
  auto body = JsonValue::Parse(retry.body);
  ASSERT_TRUE(body.ok());
  const auto& served = body->Find("estimates")->AsArray();
  NucleusSession oracle(SlowGraph());
  QueryOptions opt;
  opt.radius = 2;
  const std::vector<CliqueId> ids = {0, 7};
  const auto expected =
      oracle.EstimateQueries(DecompositionKind::kNucleus34, ids, opt);
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(served.size(), expected->estimates.size());
  for (std::size_t i = 0; i < served.size(); ++i) {
    EXPECT_EQ(static_cast<Degree>(served[i].AsInt()), expected->estimates[i]);
  }
}

TEST(ServerCore, DeadlineExpiredWhileQueuedIsNeverExecuted) {
  ServerCore server(Config(/*workers=*/1, /*queue_capacity=*/4));
  ASSERT_TRUE(server.registry().Add("g", SlowGraph()).ok());

  std::thread active([&] {
    (void)server.Handle(
        {"decompose", R"({"graph":"g","kind":"nucleus34"})"});
  });
  ASSERT_TRUE(WaitFor([&] { return server.ActiveRequests() == 1; }));

  // Queued behind the slow build with a deadline far shorter than it: the
  // caller unblocks at ~its deadline (not the build's completion) and the
  // worker later skips the abandoned job.
  const auto t0 = std::chrono::steady_clock::now();
  const ServerResponse r = server.Handle(
      {"stats", R"({"graph":"g","deadline_ms":2})"});
  const double waited_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(waited_ms, 5000.0);
  active.join();
  EXPECT_GE(CounterValue(server, "server.deadline_abandoned") +
                CounterValue(server, "server.expired_in_queue"),
            1u);
}

// Readers (decompose / stats / streamed hierarchy) racing an updater that
// commits mutations, across worker-pool widths. Every response must be
// OK — the registry's graph_mu plus the session's internal locking make
// commits invisible to in-flight reads.
TEST(ServerCore, ReadsRacingCommitsAreSafeAcrossWorkerCounts) {
  for (const int workers : {1, 4, 8}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ServerCore server(Config(workers));
    ASSERT_TRUE(server.registry().Add("g", FastGraph()).ok());

    std::atomic<int> failures{0};
    auto check = [&](const ServerResponse& r) {
      if (!r.status.ok()) {
        failures.fetch_add(1);
        ADD_FAILURE() << r.status.ToString();
      }
    };

    std::vector<std::thread> threads;
    threads.emplace_back([&] {
      for (int i = 0; i < 8; ++i) {
        check(server.Handle(
            {"decompose", R"({"graph":"g","kind":"core"})"}));
        check(server.Handle(
            {"decompose", R"({"graph":"g","kind":"truss"})"}));
      }
    });
    threads.emplace_back([&] {
      for (int i = 0; i < 8; ++i) {
        check(server.Handle({"stats", R"({"graph":"g"})"}));
        check(server.Handle({"densest", R"({"graph":"g"})"}));
      }
    });
    threads.emplace_back([&] {
      for (int i = 0; i < 4; ++i) {
        StringSink sink;
        const ServerResponse r = server.HandleStreaming(
            {"hierarchy", R"({"graph":"g","kind":"core"})"}, &sink);
        check(r);
        EXPECT_FALSE(sink.data.empty());
      }
    });
    threads.emplace_back([&] {
      for (int i = 0; i < 8; ++i) {
        check(server.Handle(
            {"update", R"({"graph":"g","insert":[[0,140],[1,141]]})"}));
        check(server.Handle(
            {"update", R"({"graph":"g","remove":[[0,140],[1,141]]})"}));
      }
    });
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(failures.load(), 0);
  }
}

// The streamed dump, line by line, against an independent encoding of the
// session's hierarchy: a header, then one object per node.
TEST(ServerCore, HierarchyStreamIsOneLinePerNode) {
  ServerCore server(Config(1));
  ASSERT_TRUE(server.registry().Add("g", SlowGraph()).ok());
  StringSink sink;
  ASSERT_TRUE(server
                  .HandleStreaming(
                      {"hierarchy", R"({"graph":"g","kind":"truss"})"}, &sink)
                  .status.ok());

  auto entry = server.registry().Get("g");
  ASSERT_TRUE(entry.ok());
  auto hierarchy = (*entry)->session.Hierarchy(DecompositionKind::kTruss);
  ASSERT_TRUE(hierarchy.ok());
  const NucleusHierarchy& h = **hierarchy;
  std::string expected = R"({"graph":"g","kind":"truss","nodes":)" +
                         std::to_string(h.nodes.size()) + R"(,"roots":)" +
                         std::to_string(h.roots.size()) + R"(,"depth":)" +
                         std::to_string(h.Depth()) + "}\n";
  for (std::size_t i = 0; i < h.nodes.size(); ++i) {
    const NucleusHierarchy::Node& node = h.nodes[i];
    expected += R"({"id":)" + std::to_string(i) + R"(,"k":)" +
                std::to_string(node.k) + R"(,"parent":)" +
                std::to_string(node.parent) + R"(,"size":)" +
                std::to_string(node.size) + R"(,"new_members":[)";
    for (std::size_t m = 0; m < node.new_members.size(); ++m) {
      if (m > 0) expected += ",";
      expected += std::to_string(node.new_members[m]);
    }
    expected += "]}\n";
  }
  ASSERT_GT(h.nodes.size(), 1u);
  ASSERT_GT(expected.size(), 64u * 1024);  // spans several 32 KB chunks
  EXPECT_EQ(sink.data, expected);
}

// Evicting a graph while requests are in flight: requests that already
// resolved the entry finish against the still-pinned session; later
// requests get kNotFound. Never UB, never a crash (TSAN-checked).
TEST(ServerCore, EvictUnderLoadReturnsNotFound) {
  ServerCore server(Config(4));
  ASSERT_TRUE(server.registry().Add("g", FastGraph()).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> not_found{0};
  std::atomic<int> bad{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        const ServerResponse r =
            server.Handle({"stats", R"({"graph":"g"})"});
        if (r.status.code() == StatusCode::kNotFound) {
          not_found.fetch_add(1);
        } else if (!r.status.ok()) {
          bad.fetch_add(1);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const ServerResponse evict =
      server.Handle({"unload", R"({"name":"g"})"});
  EXPECT_TRUE(evict.status.ok()) << evict.status.ToString();
  ASSERT_TRUE(WaitFor([&] { return not_found.load() > 0; }));
  stop.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(server.Handle({"stats", R"({"graph":"g"})"}).status.code(),
            StatusCode::kNotFound);
  EXPECT_EQ(server.registry().NumResident(), 0u);
}

TEST(GraphRegistryTest, LruEvictionUnderGlobalBudget) {
  // Measure one resident session's footprint, then budget for two.
  std::uint64_t one_graph_bytes = 0;
  {
    GraphRegistry probe(GraphRegistry::Config{0, 0});
    auto e = probe.Add("p", FastGraph());
    ASSERT_TRUE(e.ok());
    one_graph_bytes = (*e)->session.Stats().TotalBytes();
    ASSERT_GT(one_graph_bytes, 0u);
  }
  GraphRegistry::Config config;
  config.global_budget_bytes = 2 * one_graph_bytes + one_graph_bytes / 2;
  GraphRegistry registry(config);
  ASSERT_TRUE(registry.Add("a", FastGraph()).ok());
  ASSERT_TRUE(registry.Add("b", FastGraph()).ok());
  EXPECT_EQ(registry.NumResident(), 2u);

  // Touch "a" so "b" is the LRU victim when "c" pushes past the budget.
  ASSERT_TRUE(registry.Get("a").ok());
  ASSERT_TRUE(registry.Add("c", FastGraph()).ok());
  EXPECT_EQ(registry.NumResident(), 2u);
  EXPECT_TRUE(registry.Get("a").ok());
  EXPECT_TRUE(registry.Get("c").ok());
  EXPECT_EQ(registry.Get("b").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(registry.Evictions(), 1u);

  // An in-hand entry handle survives its own eviction (shared_ptr pin).
  auto pinned = registry.Get("a");
  ASSERT_TRUE(pinned.ok());
  ASSERT_TRUE(registry.Evict("a").ok());
  EXPECT_EQ((*pinned)->session.graph().NumVertices(),
            FastGraph().NumVertices());
  EXPECT_EQ(registry.Evict("a").code(), StatusCode::kNotFound);
}

TEST(GraphRegistryTest, DuplicateNameIsFailedPrecondition) {
  GraphRegistry registry(GraphRegistry::Config{0, 0});
  ASSERT_TRUE(registry.Add("g", FastGraph()).ok());
  EXPECT_EQ(registry.Add("g", FastGraph()).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(registry.Load("", "/nonexistent").status().code(),
            StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Encoded kappa fragments. An include_kappa decompose of exact kappa
// splices the kind's `[...]` array, encoded once per session epoch, into
// its per-request envelope. Every case checks the served array against a
// fresh no_cache read or the peel reference.

std::string DecomposeBody(const std::string& kind, const std::string& extra = "") {
  return R"({"graph":"g","kind":")" + kind + R"(","include_kappa":true)" +
         extra + "}";
}

// The body from its kappa field on: the part a fragment supplies.
std::string KappaTail(const std::string& body) {
  const std::size_t at = body.find("\"kappa\":");
  return at == std::string::npos ? std::string() : body.substr(at);
}

std::string Read(ServerCore& server, const std::string& body) {
  const ServerResponse r = server.HandleDirect({"decompose", body});
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  return r.body;
}

std::uint64_t FragmentBytes(ServerCore& server) {
  const auto doc = JsonValue::Parse(server.MetricsJson());
  if (!doc.ok()) return ~std::uint64_t{0};
  return static_cast<std::uint64_t>(
      doc->Find("registry")->GetInt("kappa_fragment_bytes").value());
}

// Edges of a clique on vertices [0, n) that `g` lacks: inserting them and
// removing them again toggles between exactly two graphs.
std::vector<std::pair<VertexId, VertexId>> MissingCliqueEdges(const Graph& g,
                                                             VertexId n) {
  std::vector<std::pair<VertexId, VertexId>> out;
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) {
      if (!g.HasEdge(u, v)) out.emplace_back(u, v);
    }
  }
  return out;
}

std::string EdgeList(const std::vector<std::pair<VertexId, VertexId>>& edges) {
  std::string out = "[";
  for (const auto& [u, v] : edges) {
    if (out.size() > 1) out += ",";
    out += "[" + std::to_string(u) + "," + std::to_string(v) + "]";
  }
  return out + "]";
}

TEST(KappaFragment, CommitServesTheNewKappa) {
  ServerCore server(Config(2));
  const Graph graph = FastGraph();
  const std::string clique = EdgeList(MissingCliqueEdges(graph, 20));
  ASSERT_TRUE(server.registry().Add("g", FastGraph()).ok());

  for (const std::string kind : {"core", "truss"}) {
    SCOPED_TRACE(kind);
    const std::string before = Read(server, DecomposeBody(kind));
    const std::string admitted = Read(server, DecomposeBody(kind));
    EXPECT_EQ(KappaTail(admitted), KappaTail(before));
    EXPECT_EQ(Read(server, DecomposeBody(kind)), admitted);  // a hit
  }
  EXPECT_GE(CounterValue(server, "decompose.kappa_fragment_hits"), 2u);
  EXPECT_GT(FragmentBytes(server), 0u);

  const std::string old_truss = Read(server, DecomposeBody("truss"));
  const ServerResponse u = server.HandleDirect(
      {"update", R"({"graph":"g","insert":)" + clique + "}"});
  ASSERT_TRUE(u.status.ok()) << u.status.ToString();
  EXPECT_EQ(FragmentBytes(server), 0u);  // the commit dropped them

  for (const std::string kind : {"core", "truss"}) {
    SCOPED_TRACE(kind);
    const std::string fresh =
        Read(server, DecomposeBody(kind, R"(,"no_cache":true)"));
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(KappaTail(Read(server, DecomposeBody(kind))),
                KappaTail(fresh));
    }
  }
  EXPECT_NE(KappaTail(Read(server, DecomposeBody("truss"))),
            KappaTail(old_truss));
}

// A commit made on the session itself, not through the update endpoint,
// leaves the slots in place; the epoch the session stamps on every result
// still keeps their stale bytes out of a body.
TEST(KappaFragment, DirectSessionCommitInvalidatesByEpoch) {
  ServerCore server(Config(2));
  const auto clique = MissingCliqueEdges(FastGraph(), 20);
  ASSERT_TRUE(server.registry().Add("g", FastGraph()).ok());
  const std::string old_tail = KappaTail(Read(server, DecomposeBody("truss")));
  Read(server, DecomposeBody("truss"));  // admits
  ASSERT_GT(FragmentBytes(server), 0u);

  auto entry = server.registry().Get("g");
  ASSERT_TRUE(entry.ok());
  {
    std::lock_guard<std::mutex> ul((*entry)->update_mu);
    auto batch = (*entry)->session.BeginUpdates();
    for (const auto& [u, v] : clique) batch.InsertEdge(u, v);
    std::unique_lock<std::shared_mutex> gl((*entry)->graph_mu);
    ASSERT_TRUE(batch.Commit().ok());
  }
  const std::string fresh =
      Read(server, DecomposeBody("truss", R"(,"no_cache":true)"));
  ASSERT_NE(KappaTail(fresh), old_tail);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(KappaTail(Read(server, DecomposeBody("truss"))),
              KappaTail(fresh));
  }
}

TEST(KappaFragment, TruncatedReadsNeverTouchTheSlot) {
  ServerCore server(Config(2));
  ASSERT_TRUE(server.registry().Add("g", FastGraph()).ok());
  const std::string truncated = DecomposeBody("truss", R"(,"max_iterations":1)");

  // No exact kappa yet: the capped run answers with tau, twice.
  for (int i = 0; i < 2; ++i) {
    const std::string body = Read(server, truncated);
    ASSERT_FALSE(JsonValue::Parse(body)->GetBool("exact").value());
  }
  EXPECT_EQ(CounterValue(server, "decompose.kappa_fragment_hits"), 0u);
  EXPECT_EQ(CounterValue(server, "decompose.kappa_fragment_misses"), 0u);
  EXPECT_EQ(FragmentBytes(server), 0u);

  const std::string exact = Read(server, DecomposeBody("truss"));
  EXPECT_EQ(KappaTail(Read(server, DecomposeBody("truss"))), KappaTail(exact));
  const std::uint64_t bytes = FragmentBytes(server);
  EXPECT_GT(bytes, 0u);

  // A forced fresh capped run returns its own tau, not the slot's kappa.
  const std::uint64_t hits =
      CounterValue(server, "decompose.kappa_fragment_hits");
  const std::string forced = Read(
      server,
      DecomposeBody("truss", R"(,"max_iterations":1,"no_cache":true)"));
  EXPECT_FALSE(JsonValue::Parse(forced)->GetBool("exact").value());
  EXPECT_NE(KappaTail(forced), KappaTail(exact));
  EXPECT_EQ(CounterValue(server, "decompose.kappa_fragment_hits"), hits);
  EXPECT_EQ(FragmentBytes(server), bytes);
}

TEST(KappaFragment, ReloadUnderTheSameNameServesTheNewGraph) {
  ServerCore server(Config(2));
  ASSERT_TRUE(server.registry().Add("g", FastGraph()).ok());
  const std::string old_body = Read(server, DecomposeBody("truss"));
  Read(server, DecomposeBody("truss"));  // admits
  ASSERT_GT(FragmentBytes(server), 0u);

  ASSERT_TRUE(server.HandleDirect({"unload", R"({"name":"g"})"}).status.ok());
  ASSERT_TRUE(
      server.registry().Add("g", GenerateErdosRenyi(150, 1400, 6)).ok());
  const std::string fresh =
      Read(server, DecomposeBody("truss", R"(,"no_cache":true)"));
  ASSERT_NE(KappaTail(fresh), KappaTail(old_body));
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(KappaTail(Read(server, DecomposeBody("truss"))),
              KappaTail(fresh));
  }
}

TEST(KappaFragment, OneReadPerEpochAdmitsNothing) {
  ServerCore server(Config(2));
  const std::string clique = EdgeList(MissingCliqueEdges(FastGraph(), 12));
  ASSERT_TRUE(server.registry().Add("g", FastGraph()).ok());
  for (int epoch = 0; epoch < 4; ++epoch) {
    Read(server, DecomposeBody("truss"));
    EXPECT_EQ(FragmentBytes(server), 0u) << "epoch " << epoch;
    const std::string edges = epoch % 2 == 0 ? R"("insert":)" : R"("remove":)";
    ASSERT_TRUE(server
                    .HandleDirect({"update", R"({"graph":"g",)" + edges +
                                                 clique + "}"})
                    .status.ok());
  }
  EXPECT_EQ(CounterValue(server, "decompose.kappa_fragment_hits"), 0u);
  EXPECT_EQ(CounterValue(server, "decompose.kappa_fragment_misses"), 4u);

  // The second read of an epoch admits, and its fragment is exact-size.
  const std::string tail = KappaTail(Read(server, DecomposeBody("truss")));
  EXPECT_EQ(KappaTail(Read(server, DecomposeBody("truss"))), tail);
  // "kappa": precedes the array, "}" closes the envelope.
  EXPECT_EQ(FragmentBytes(server), tail.size() - 9);
}

TEST(KappaFragment, ReadersRacingCommitsSeeOneStateEach) {
  // Reference kappa of the two graph states the updater toggles between,
  // by the peel engine on a separate session.
  const Graph base = FastGraph();
  const auto clique = MissingCliqueEdges(base, 25);
  NucleusSession oracle{FastGraph()};
  DecomposeOptions peel;
  peel.method = Method::kPeeling;
  peel.use_result_cache = false;
  std::vector<std::vector<Degree>> refs;
  refs.push_back(oracle.Decompose(DecompositionKind::kCore, peel)->kappa);
  {
    auto batch = oracle.BeginUpdates();
    for (const auto& [u, v] : clique) batch.InsertEdge(u, v);
    ASSERT_TRUE(batch.Commit().ok());
  }
  refs.push_back(oracle.Decompose(DecompositionKind::kCore, peel)->kappa);
  ASSERT_NE(refs[0], refs[1]);

  ServerCore server(Config(4));
  ASSERT_TRUE(server.registry().Add("g", FastGraph()).ok());
  Read(server, DecomposeBody("core"));  // warm: kappa cached at state 0

  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 60 || !stop.load(); ++i) {
        if (i >= 2000) break;
        const ServerResponse r = server.Handle({"decompose", DecomposeBody("core")});
        const auto doc = JsonValue::Parse(r.body);
        if (!r.status.ok() || !doc.ok()) {
          bad.fetch_add(1);
          continue;
        }
        std::vector<Degree> kappa;
        for (const JsonValue& k : doc->Find("kappa")->AsArray()) {
          kappa.push_back(static_cast<Degree>(k.AsInt()));
        }
        const std::int64_t n = doc->GetInt("num_r_cliques").value();
        const std::int64_t max_kappa = doc->GetInt("max_kappa").value();
        bool matched = false;
        for (const std::vector<Degree>& ref : refs) {
          const Degree ref_max = *std::max_element(ref.begin(), ref.end());
          matched |= n == static_cast<std::int64_t>(ref.size()) &&
                     max_kappa == static_cast<std::int64_t>(ref_max) &&
                     kappa == ref;
        }
        if (!matched) bad.fetch_add(1);
      }
    });
  }
  threads.emplace_back([&] {
    const std::string edges = EdgeList(clique);
    for (int i = 0; i < 12; ++i) {
      const std::string op = i % 2 == 0 ? R"("insert":)" : R"("remove":)";
      if (!server.Handle({"update", R"({"graph":"g",)" + op + edges + "}"})
               .status.ok()) {
        bad.fetch_add(1);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    stop.store(true);
  });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_GT(CounterValue(server, "decompose.kappa_fragment_hits"), 0u);
}

TEST(KappaFragment, FragmentBytesCountTowardTheGlobalBudget) {
  // Footprints of "a" after two include_kappa reads (session and
  // fragment) and of a freshly added "b", measured on an unbounded server.
  std::uint64_t session_bytes = 0, fragment_bytes = 0, newcomer_bytes = 0;
  {
    ServerCore probe(Config(1));
    ASSERT_TRUE(probe.registry().Add("g", FastGraph()).ok());
    Read(probe, DecomposeBody("truss"));
    Read(probe, DecomposeBody("truss"));
    auto a = probe.registry().Get("g");
    session_bytes = (*a)->session.Stats().TotalBytes();
    fragment_bytes = (*a)->KappaFragmentBytes();
    auto b = probe.registry().Add("b", GenerateErdosRenyi(150, 1400, 6));
    newcomer_bytes = (*b)->FootprintBytes();
  }
  ASSERT_GT(fragment_bytes, 0u);

  // Room for both sessions, not for the fragment on top.
  for (const int reads : {1, 2}) {
    SCOPED_TRACE("reads=" + std::to_string(reads));
    ServerConfig config = Config(1);
    config.global_memory_budget_bytes =
        session_bytes + fragment_bytes + newcomer_bytes - 1;
    ServerCore server(config);
    ASSERT_TRUE(server.registry().Add("g", FastGraph()).ok());
    for (int i = 0; i < reads; ++i) Read(server, DecomposeBody("truss"));
    ASSERT_TRUE(
        server.registry().Add("b", GenerateErdosRenyi(150, 1400, 6)).ok());
    const bool evicted = reads == 2;
    EXPECT_EQ(server.registry().Get("g").ok(), !evicted);
    EXPECT_EQ(server.registry().Evictions(), evicted ? 1u : 0u);
    EXPECT_TRUE(server.registry().Get("b").ok());
  }
}

TEST(ServerCore, SessionCountersAboveInt32RoundTrip) {
  // A long-lived server's counters outgrow 32 bits; the stats body (shared
  // by /api/stats and /metricz) must carry them without wrapping.
  SessionStateStats s;
  const std::uint64_t past_int32 = std::uint64_t{INT32_MAX} + 1;
  const std::uint64_t past_uint32 = (std::uint64_t{1} << 33) + 5;
  s.counters.commits = past_int32;
  s.counters.decompose_calls = past_uint32;
  s.counters.hierarchy_repairs = past_uint32 + 1;
  JsonWriter w;
  w.BeginObject();
  WriteSessionStats(w, s);
  w.EndObject();
  EXPECT_NE(w.str().find("\"commits\":2147483648"), std::string::npos);
  EXPECT_NE(w.str().find("\"decompose_calls\":8589934597"),
            std::string::npos);
  const auto doc = JsonValue::Parse(w.str());
  ASSERT_TRUE(doc.ok());
  const JsonValue* counters = doc->Find("counters");
  ASSERT_NE(counters, nullptr);
  const auto commits = counters->GetInt("commits");
  const auto calls = counters->GetInt("decompose_calls");
  const auto repairs = counters->GetInt("hierarchy_repairs");
  ASSERT_TRUE(commits.ok() && calls.ok() && repairs.ok());
  EXPECT_EQ(static_cast<std::uint64_t>(*commits), past_int32);
  EXPECT_EQ(static_cast<std::uint64_t>(*calls), past_uint32);
  EXPECT_EQ(static_cast<std::uint64_t>(*repairs), past_uint32 + 1);
}

}  // namespace
}  // namespace nucleus
