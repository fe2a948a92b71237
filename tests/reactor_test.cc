// Battery for the epoll reactor, the server's wire transport. The
// contract under test:
//   - every response is exactly ServerCore's answer for the same request
//     in the shared http.h framing — byte-identical for every timing-free
//     endpoint, and semantically identical where responses carry
//     wall-clock fields;
//   - the event loops parse incrementally: a request delivered one byte
//     at a time, or many requests pipelined in one segment, both work at
//     1, 4, and 8 loops (the TSAN job runs this suite);
//   - buffered writes survive tiny socket buffers: a chunked hierarchy
//     stream to a slow, small-window client arrives complete;
//   - admission semantics surface through the wire: concurrent cold
//     builds coalesce, a full queue answers 429 while inline reads keep
//     answering 200, an expired deadline answers 504;
//   - connection hygiene: idle connections and mid-request stalls are
//     swept (408 for the latter), accepts beyond the cap get a clean 503,
//     and every event is counted in /metricz.
// Skipped wholesale where the reactor is unsupported (non-Linux).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/graph/generators.h"
#include "src/server/http.h"
#include "src/server/json.h"
#include "src/server/reactor.h"
#include "src/server/registry.h"
#include "src/server/server_core.h"

namespace nucleus {
namespace {

#define SKIP_IF_NO_REACTOR()                            \
  if (!ReactorServer::Supported()) {                    \
    GTEST_SKIP() << "reactor transport unsupported on this platform"; \
  }

// Dense enough that a cold (3,4) build takes real wall-clock — the window
// the coalescing/shedding tests rely on (same graph as server_test).
Graph SlowGraph() { return GenerateErdosRenyi(400, 16000, 11); }
Graph FastGraph() { return GenerateErdosRenyi(150, 1200, 5); }

ServerConfig Config(int workers, std::size_t queue_capacity = 64) {
  ServerConfig config;
  config.workers = workers;
  config.queue_capacity = queue_capacity;
  return config;
}

ReactorConfig RConfig(int loops) {
  ReactorConfig config;
  config.loops = loops;
  return config;
}

std::uint64_t CounterValue(ServerCore& server, const std::string& name) {
  for (const auto& [key, value] : server.metrics().CounterValues()) {
    if (key == name) return value;
  }
  return 0;
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

// A raw blocking client socket, for the wire-level tests HttpFetch is too
// polite for (fragmented sends, pipelining, deliberate stalls).
int RawConnect(int port, int rcvbuf_bytes = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (rcvbuf_bytes > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes,
                 sizeof(rcvbuf_bytes));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool SendAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

// Reads until the peer closes (or timeout). Returns everything received.
std::string RecvUntilClosed(int fd, int timeout_ms = 10000) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  std::string out;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      out.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;  // closed, timeout, or error — caller inspects what arrived
  }
  return out;
}

// Reads exactly one Content-Length-framed response off fd. `buffer` is the
// caller's receive buffer, carried across calls: pipelined responses can
// arrive many-per-segment, and surplus bytes belong to the next response.
bool RecvOneResponse(int fd, std::string* buffer, std::string* out) {
  timeval tv{};
  tv.tv_sec = 30;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  char chunk[4096];
  for (;;) {
    const std::size_t head_end = buffer->find("\r\n\r\n");
    if (head_end != std::string::npos) {
      const std::string head = buffer->substr(0, head_end);
      const std::size_t cl = head.find("Content-Length: ");
      if (cl == std::string::npos) return false;
      const std::size_t len = static_cast<std::size_t>(
          std::strtoull(head.c_str() + cl + 16, nullptr, 10));
      if (buffer->size() >= head_end + 4 + len) {
        *out = buffer->substr(0, head_end + 4 + len);
        buffer->erase(0, head_end + 4 + len);
        return true;
      }
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    buffer->append(chunk, static_cast<std::size_t>(n));
  }
}

// Reads exactly `n` bytes off fd through the same carried `buffer` — for
// chunked responses, whose expected length the caller already knows.
bool RecvExactly(int fd, std::size_t n, std::string* buffer,
                 std::string* out) {
  char chunk[4096];
  while (buffer->size() < n) {
    const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got <= 0) {
      if (got < 0 && errno == EINTR) continue;
      return false;
    }
    buffer->append(chunk, static_cast<std::size_t>(got));
  }
  *out = buffer->substr(0, n);
  buffer->erase(0, n);
  return true;
}

int StatusOfRaw(const std::string& response) {
  const std::size_t sp = response.find(' ');
  if (sp == std::string::npos) return 0;
  return std::atoi(response.c_str() + sp + 1);
}

// De-chunks a raw HTTP chunked body (head already stripped). Returns false
// if the framing is malformed or unterminated.
bool Dechunk(std::string_view raw, std::string* out) {
  out->clear();
  std::size_t pos = 0;
  for (;;) {
    const std::size_t eol = raw.find("\r\n", pos);
    if (eol == std::string_view::npos) return false;
    const std::size_t size = std::strtoull(
        std::string(raw.substr(pos, eol - pos)).c_str(), nullptr, 16);
    pos = eol + 2;
    if (size == 0) return true;  // terminator
    if (pos + size + 2 > raw.size()) return false;
    out->append(raw.substr(pos, size));
    pos += size + 2;  // payload + CRLF
  }
}

// The full endpoint battery over real loopback sockets at 1, 4, and 8
// loops: status mapping, JSON bodies, chunked hierarchy streaming.
TEST(ReactorServerTest, SocketRoundTripAcrossLoopCounts) {
  SKIP_IF_NO_REACTOR();
  for (const int loops : {1, 4, 8}) {
    SCOPED_TRACE("loops=" + std::to_string(loops));
    ServerCore core(Config(2));
    ASSERT_TRUE(core.registry().Add("g", FastGraph()).ok());
    ReactorServer server(&core, RConfig(loops));
    ASSERT_TRUE(server.Start().ok());
    const int port = server.port();
    ASSERT_GT(port, 0);

    auto health = HttpFetch("127.0.0.1", port, "GET", "/healthz", "");
    ASSERT_TRUE(health.ok()) << health.status().ToString();
    EXPECT_EQ(health->status, 200);
    EXPECT_TRUE(JsonValue::Parse(health->body)->GetBool("ok").value());

    auto decompose = HttpFetch(
        "127.0.0.1", port, "POST", "/api/decompose",
        R"({"graph":"g","kind":"truss","method":"peel"})");
    ASSERT_TRUE(decompose.ok()) << decompose.status().ToString();
    EXPECT_EQ(decompose->status, 200);
    auto d_body = JsonValue::Parse(decompose->body);
    ASSERT_TRUE(d_body.ok());
    EXPECT_TRUE(d_body->GetBool("exact").value());
    EXPECT_EQ(d_body->GetString("method").value(), "peel");

    auto get_form = HttpFetch("127.0.0.1", port, "GET",
                              "/api/decompose?graph=g&kind=core&threads=2",
                              "");
    ASSERT_TRUE(get_form.ok());
    EXPECT_EQ(get_form->status, 200);

    auto stream = HttpFetch("127.0.0.1", port, "GET",
                            "/api/hierarchy?graph=g&kind=core", "");
    ASSERT_TRUE(stream.ok()) << stream.status().ToString();
    EXPECT_EQ(stream->status, 200);
    EXPECT_EQ(stream->headers["transfer-encoding"], "chunked");
    std::size_t lines = 0;
    std::size_t pos = 0;
    while (pos < stream->body.size()) {
      std::size_t eol = stream->body.find('\n', pos);
      if (eol == std::string::npos) eol = stream->body.size();
      ASSERT_TRUE(
          JsonValue::Parse(stream->body.substr(pos, eol - pos)).ok());
      ++lines;
      pos = eol + 1;
    }
    EXPECT_GE(lines, 2u);

    auto missing = HttpFetch("127.0.0.1", port, "POST", "/api/decompose",
                             R"({"graph":"absent"})");
    ASSERT_TRUE(missing.ok());
    EXPECT_EQ(missing->status, 404);

    auto bad_route = HttpFetch("127.0.0.1", port, "GET", "/nope", "");
    ASSERT_TRUE(bad_route.ok());
    EXPECT_EQ(bad_route->status, 404);

    auto update = HttpFetch("127.0.0.1", port, "POST", "/api/update",
                            R"({"graph":"g","insert":[[0,100]]})");
    ASSERT_TRUE(update.ok());
    EXPECT_EQ(update->status, 200);

    auto metricz = HttpFetch("127.0.0.1", port, "GET", "/metricz", "");
    ASSERT_TRUE(metricz.ok());
    EXPECT_EQ(metricz->status, 200);
    auto m_body = JsonValue::Parse(metricz->body);
    ASSERT_TRUE(m_body.ok()) << metricz->body;
    EXPECT_GE(m_body->Find("counters")->AsObject().size(), 1u);

    server.Stop();
    core.Shutdown();
    EXPECT_EQ(server.OpenConnections(), 0);
  }
}

// Collects what a streaming handler writes, in order.
class StringSink : public ChunkSink {
 public:
  bool Write(std::string_view chunk) override {
    chunks.emplace_back(chunk);
    return true;
  }
  std::vector<std::string> chunks;
};

// The same deterministic request sequence goes to a reactor-fronted core
// over one socket and, in process, to a twin core: every timing-free
// response must be exactly the twin's answer in the shared framing (head
// + body, or stream head + chunk frames + terminator); decompose (which
// reports wall-clock) must match on every stable field including the full
// kappa array.
TEST(ReactorServerTest, ResponsesMatchServerCoreBytewise) {
  SKIP_IF_NO_REACTOR();
  ServerCore twin(Config(2));
  ServerCore reactor_core(Config(2));
  ASSERT_TRUE(twin.registry().Add("g", FastGraph()).ok());
  ASSERT_TRUE(reactor_core.registry().Add("g", FastGraph()).ok());
  ReactorServer reactor(&reactor_core, RConfig(2));
  ASSERT_TRUE(reactor.Start().ok());

  struct Case {
    const char* method;
    const char* target;
    const char* body;
    bool byte_identical;  // false for responses carrying wall-clock fields
  };
  const Case battery[] = {
      {"GET", "/healthz", "", true},
      {"GET", "/api/graphs", "", true},
      {"POST", "/api/decompose",
       R"({"graph":"g","kind":"truss","method":"peeling",)"
       R"("include_kappa":true})",
       false},
      {"POST", "/api/query",
       R"({"graph":"g","kind":"truss","ids":[0,1,2],"radius":2})", true},
      {"POST", "/api/densest", R"({"graph":"g","mode":"triangle"})", true},
      {"GET", "/api/stats?graph=g", "", true},
      {"GET", "/api/hierarchy?graph=g&kind=truss", "", true},
      {"POST", "/api/update", R"({"graph":"g","insert":[[0,140]]})", true},
      {"GET", "/api/stats?graph=g", "", true},
      {"POST", "/api/decompose", R"({"graph":"absent"})", true},
      {"GET", "/nope", "", true},
      {"POST", "/api/decompose", R"({"graph":"g","kind":"quux"})", true},
  };
  const int fd = RawConnect(reactor.port());
  ASSERT_GE(fd, 0);
  std::string buffer;
  for (const Case& c : battery) {
    SCOPED_TRACE(std::string(c.method) + " " + c.target + " " + c.body);
    const std::string body = c.body;
    std::string head = std::string(c.method) + " " + c.target +
                       " HTTP/1.1\r\nHost: t\r\n";
    if (!body.empty()) {
      head += "Content-Length: " + std::to_string(body.size()) + "\r\n";
    }
    ASSERT_TRUE(SendAll(fd, head + "\r\n" + body));

    auto parsed = ParseHttpRequestHead(head);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    parsed->body = body;
    const auto routed = RouteHttpRequest(*parsed);
    std::string expected;
    std::string got;
    if (!routed.ok()) {
      const std::string error = HttpErrorBody(routed.status());
      expected = BuildHttpResponseHead(HttpStatusFor(routed.status().code()),
                                       error.size(), /*keep_alive=*/true) +
                 error;
    } else if (routed->endpoint == "hierarchy") {
      StringSink sink;
      const ServerResponse resp = twin.HandleStreaming(*routed, &sink);
      ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
      expected = BuildChunkedStreamHead(/*keep_alive=*/true);
      for (const std::string& chunk : sink.chunks) {
        AppendChunkFrame(expected, chunk);
      }
      expected += "0\r\n\r\n";
      ASSERT_TRUE(RecvExactly(fd, expected.size(), &buffer, &got));
      EXPECT_EQ(got, expected);
      continue;
    } else {
      const ServerResponse resp = twin.Handle(*routed);
      expected = BuildHttpResponseHead(HttpStatusFor(resp.status.code()),
                                       resp.body.size(), /*keep_alive=*/true) +
                 resp.body;
    }
    ASSERT_TRUE(RecvOneResponse(fd, &buffer, &got));
    if (c.byte_identical) {
      EXPECT_EQ(got, expected);
      continue;
    }
    EXPECT_EQ(StatusOfRaw(got), StatusOfRaw(expected));
    auto got_json = JsonValue::Parse(got.substr(got.find("\r\n\r\n") + 4));
    auto want_json =
        JsonValue::Parse(expected.substr(expected.find("\r\n\r\n") + 4));
    ASSERT_TRUE(got_json.ok() && want_json.ok());
    for (const char* key : {"graph", "kind", "method"}) {
      EXPECT_EQ(got_json->GetString(key).value(),
                want_json->GetString(key).value());
    }
    for (const char* key : {"num_r_cliques", "max_kappa", "iterations"}) {
      EXPECT_EQ(got_json->GetInt(key).value(),
                want_json->GetInt(key).value());
    }
    const auto& got_kappa = got_json->Find("kappa")->AsArray();
    const auto& want_kappa = want_json->Find("kappa")->AsArray();
    ASSERT_EQ(got_kappa.size(), want_kappa.size());
    for (std::size_t i = 0; i < got_kappa.size(); ++i) {
      ASSERT_EQ(got_kappa[i].AsInt(), want_kappa[i].AsInt());
    }
  }
  ::close(fd);
  reactor.Stop();
  reactor_core.Shutdown();
  twin.Shutdown();
}

// A request trickled in one byte per segment still parses: the loops keep
// per-connection scan state across arbitrarily fragmented deliveries.
TEST(ReactorServerTest, ByteAtATimeRequestIsParsed) {
  SKIP_IF_NO_REACTOR();
  ServerCore core(Config(2));
  ASSERT_TRUE(core.registry().Add("g", FastGraph()).ok());
  ReactorServer server(&core, RConfig(1));
  ASSERT_TRUE(server.Start().ok());

  const int fd = RawConnect(server.port());
  ASSERT_GE(fd, 0);
  const std::string body = R"({"graph":"g"})";
  const std::string request =
      "POST /api/stats HTTP/1.1\r\nHost: t\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\n\r\n" + body;
  for (std::size_t i = 0; i < request.size(); ++i) {
    ASSERT_TRUE(SendAll(fd, request.substr(i, 1)));
    if (i % 16 == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  std::string buffer;
  std::string response;
  ASSERT_TRUE(RecvOneResponse(fd, &buffer, &response));
  EXPECT_EQ(StatusOfRaw(response), 200);
  EXPECT_NE(response.find("num_vertices"), std::string::npos);
  ::close(fd);
  server.Stop();
  core.Shutdown();
}

// Many requests in one segment: the reactor answers each, in order, on
// one connection — across loop counts (pipelining is the reactor-only
// capability the load harness leans on).
TEST(ReactorServerTest, PipelinedRequestsAnswerInOrder) {
  SKIP_IF_NO_REACTOR();
  for (const int loops : {1, 4}) {
    SCOPED_TRACE("loops=" + std::to_string(loops));
    ServerCore core(Config(2));
    ASSERT_TRUE(core.registry().Add("g", FastGraph()).ok());
    ReactorServer server(&core, RConfig(loops));
    ASSERT_TRUE(server.Start().ok());

    const int fd = RawConnect(server.port());
    ASSERT_GE(fd, 0);
    // Reads and a build-class request interleaved: responses must come
    // back in request order even though the build detours through the
    // admission queue while reads run inline.
    const std::string reqs[] = {
        "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n",
        "GET /api/stats?graph=g HTTP/1.1\r\nHost: t\r\n\r\n",
        "POST /api/decompose HTTP/1.1\r\nHost: t\r\n"
        "Content-Length: 27\r\n\r\n"
        R"({"graph":"g","kind":"core"})",
        "GET /api/graphs HTTP/1.1\r\nHost: t\r\n\r\n",
        "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n",
    };
    std::string wire;
    for (const std::string& r : reqs) wire += r;
    ASSERT_TRUE(SendAll(fd, wire));

    const char* expect_marker[] = {"\"ok\":true", "num_vertices",
                                   "\"kind\":\"core\"", "\"graphs\"",
                                   "\"ok\":true"};
    std::string buffer;
    for (int i = 0; i < 5; ++i) {
      SCOPED_TRACE("response " + std::to_string(i));
      std::string response;
      ASSERT_TRUE(RecvOneResponse(fd, &buffer, &response));
      EXPECT_EQ(StatusOfRaw(response), 200);
      EXPECT_NE(response.find(expect_marker[i]), std::string::npos)
          << response;
    }
    ::close(fd);
    server.Stop();
    core.Shutdown();
  }
}

// A chunked hierarchy stream to a client with a deliberately tiny receive
// window, consumed slowly: the reactor's buffered writes + stream
// backpressure must deliver every byte, identical to a normal fetch.
TEST(ReactorServerTest, TinySocketBuffersStreamCompletely) {
  SKIP_IF_NO_REACTOR();
  ServerCore core(Config(2));
  ASSERT_TRUE(core.registry().Add("g", FastGraph()).ok());
  ReactorServer server(&core, RConfig(1));
  ASSERT_TRUE(server.Start().ok());

  auto reference = HttpFetch("127.0.0.1", server.port(), "GET",
                             "/api/hierarchy?graph=g&kind=truss", "");
  ASSERT_TRUE(reference.ok());
  ASSERT_EQ(reference->status, 200);
  ASSERT_FALSE(reference->body.empty());

  const int fd = RawConnect(server.port(), /*rcvbuf_bytes=*/1024);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendAll(fd,
                      "GET /api/hierarchy?graph=g&kind=truss HTTP/1.1\r\n"
                      "Host: t\r\nConnection: close\r\n\r\n"));
  // Slow consumption in small sips, so the server's out-buffer and the
  // stream gate actually fill.
  timeval tv{};
  tv.tv_sec = 30;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  std::string raw;
  char sip[512];
  for (;;) {
    const ssize_t n = ::recv(fd, sip, sizeof(sip), 0);
    if (n > 0) {
      raw.append(sip, static_cast<std::size_t>(n));
      std::this_thread::sleep_for(std::chrono::microseconds(500));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;
  }
  ::close(fd);

  const std::size_t head_end = raw.find("\r\n\r\n");
  ASSERT_NE(head_end, std::string::npos);
  EXPECT_EQ(StatusOfRaw(raw), 200);
  std::string streamed;
  ASSERT_TRUE(Dechunk(std::string_view(raw).substr(head_end + 4),
                      &streamed))
      << "unterminated or malformed chunked framing";
  EXPECT_EQ(streamed, reference->body);
  server.Stop();
  core.Shutdown();
}

// Eight concurrent cold (3,4) requests through real sockets cost ONE
// session build — the admission queue and coalescing sit behind the
// reactor exactly as they do behind in-process Handle calls.
TEST(ReactorServerTest, ConcurrentColdRequestsCoalesceIntoOneBuild) {
  SKIP_IF_NO_REACTOR();
  ServerCore core(Config(8));
  auto entry = core.registry().Add("g", SlowGraph());
  ASSERT_TRUE(entry.ok());
  ReactorServer server(&core, RConfig(2));
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 8;
  std::barrier barrier(kClients);
  std::vector<std::string> bodies(kClients);
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      barrier.arrive_and_wait();
      auto r = HttpFetch("127.0.0.1", server.port(), "POST",
                         "/api/decompose",
                         R"({"graph":"g","kind":"nucleus34"})", 120000);
      if (r.ok() && r->status == 200) bodies[i] = r->body;
    });
  }
  for (std::thread& t : clients) t.join();

  for (int i = 0; i < kClients; ++i) {
    ASSERT_FALSE(bodies[i].empty()) << "client " << i << " failed";
    EXPECT_EQ(bodies[i], bodies[0]);  // riders share the leader's bytes
  }
  const SessionStats stats = (*entry)->session.stats();
  EXPECT_EQ(stats.decompose_calls, 1);
  EXPECT_EQ(CounterValue(core, "coalesce.builds"), 1u);
  EXPECT_EQ(CounterValue(core, "coalesce.riders"),
            static_cast<std::uint64_t>(kClients - 1));
  server.Stop();
  core.Shutdown();
}

// With the one worker busy and the queue full, a further build-class
// request sheds as 429 — while inline reads keep answering 200, which is
// the reactor's reason to exist.
TEST(ReactorServerTest, FullQueueShedsAs429WhileReadsStayLive) {
  SKIP_IF_NO_REACTOR();
  ServerCore core(Config(/*workers=*/1, /*queue_capacity=*/1));
  ASSERT_TRUE(core.registry().Add("g", SlowGraph()).ok());
  ReactorServer server(&core, RConfig(1));
  ASSERT_TRUE(server.Start().ok());
  const int port = server.port();

  std::thread active([&] {
    auto r = HttpFetch("127.0.0.1", port, "POST", "/api/decompose",
                       R"({"graph":"g","kind":"nucleus34"})", 120000);
    EXPECT_TRUE(r.ok() && r->status == 200);
  });
  ASSERT_TRUE(WaitFor([&] { return core.ActiveRequests() == 1; }));
  std::thread queued([&] {
    auto r = HttpFetch("127.0.0.1", port, "POST", "/api/decompose",
                       R"({"graph":"g","kind":"truss"})", 120000);
    EXPECT_TRUE(r.ok() && r->status == 200);
  });
  ASSERT_TRUE(WaitFor([&] { return core.QueueDepth() == 1; }));

  auto shed = HttpFetch("127.0.0.1", port, "POST", "/api/decompose",
                        R"({"graph":"g","kind":"core"})");
  ASSERT_TRUE(shed.ok());
  EXPECT_EQ(shed->status, 429);

  // Reads execute inline on the loops: a saturated worker pool does not
  // take them down.
  auto health = HttpFetch("127.0.0.1", port, "GET", "/healthz", "");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->status, 200);
  auto stats = HttpFetch("127.0.0.1", port, "GET", "/api/stats?graph=g", "");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->status, 200);

  active.join();
  queued.join();
  server.Stop();
  core.Shutdown();
}

// An expired deadline surfaces as 504 over the reactor, and the session
// stays reusable for the retry.
TEST(ReactorServerTest, DeadlineExceededSurfacesAs504) {
  SKIP_IF_NO_REACTOR();
  ServerCore core(Config(2));
  ASSERT_TRUE(core.registry().Add("g", SlowGraph()).ok());
  ReactorServer server(&core, RConfig(1));
  ASSERT_TRUE(server.Start().ok());

  auto expired = HttpFetch(
      "127.0.0.1", server.port(), "POST", "/api/decompose",
      R"({"graph":"g","kind":"nucleus34","deadline_ms":1})", 120000);
  ASSERT_TRUE(expired.ok());
  EXPECT_EQ(expired->status, 504);

  auto retry = HttpFetch("127.0.0.1", server.port(), "POST",
                         "/api/decompose",
                         R"({"graph":"g","kind":"nucleus34"})", 120000);
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry->status, 200);
  server.Stop();
  core.Shutdown();
}

// Hygiene: an idle connection is swept, counted, and the gauge returns to
// zero.
TEST(ReactorServerTest, IdleConnectionsAreSweptAndCounted) {
  SKIP_IF_NO_REACTOR();
  ServerCore core(Config(1));
  ReactorConfig config = RConfig(1);
  config.idle_timeout_ms = 100;
  ReactorServer server(&core, config);
  ASSERT_TRUE(server.Start().ok());

  const int fd = RawConnect(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(WaitFor([&] { return server.OpenConnections() == 1; }));
  // No request: the sweep (every 250 ms) must close it for idleness.
  const std::string leftovers = RecvUntilClosed(fd, 5000);
  EXPECT_TRUE(leftovers.empty()) << leftovers;  // closed without a response
  ::close(fd);
  ASSERT_TRUE(WaitFor([&] { return server.OpenConnections() == 0; }));
  EXPECT_GE(CounterValue(core, "reactor.idle_closed"), 1u);
  server.Stop();
  core.Shutdown();
}

// Hygiene: a connection that stalls mid-request (slowloris) gets 408 and
// a close once the read deadline passes.
TEST(ReactorServerTest, StalledMidRequestGets408) {
  SKIP_IF_NO_REACTOR();
  ServerCore core(Config(1));
  ReactorConfig config = RConfig(1);
  config.read_deadline_ms = 100;
  ReactorServer server(&core, config);
  ASSERT_TRUE(server.Start().ok());

  const int fd = RawConnect(server.port());
  ASSERT_GE(fd, 0);
  // Head promises a body that never arrives.
  ASSERT_TRUE(SendAll(fd,
                      "POST /api/stats HTTP/1.1\r\nHost: t\r\n"
                      "Content-Length: 64\r\n\r\n{\"gra"));
  const std::string response = RecvUntilClosed(fd, 5000);
  EXPECT_EQ(StatusOfRaw(response), 408) << response;
  EXPECT_NE(response.find("read deadline expired"), std::string::npos);
  ::close(fd);
  EXPECT_GE(CounterValue(core, "reactor.read_timeout_closed"), 1u);
  server.Stop();
  core.Shutdown();
}

// Hygiene: bodies are framed by Content-Length only, so a chunked POST is
// refused with one 501 and a close. Its chunk bytes, here a whole second
// request, must never be parsed as a request of their own.
TEST(ReactorServerTest, ChunkedRequestGets501AndClose) {
  SKIP_IF_NO_REACTOR();
  ServerCore core(Config(1));
  ASSERT_TRUE(core.registry().Add("g", FastGraph()).ok());
  ReactorServer server(&core, RConfig(1));
  ASSERT_TRUE(server.Start().ok());

  const int fd = RawConnect(server.port());
  ASSERT_GE(fd, 0);
  const std::string smuggled =
      "POST /api/update HTTP/1.1\r\nHost: t\r\nContent-Length: 30\r\n\r\n"
      R"({"graph":"g","insert":[[0,1]]})";
  char size_line[16];
  std::snprintf(size_line, sizeof(size_line), "%zx\r\n", smuggled.size());
  ASSERT_TRUE(SendAll(fd, "POST /api/update HTTP/1.1\r\nHost: t\r\n"
                          "Transfer-Encoding: chunked\r\n\r\n" +
                              std::string(size_line) + smuggled +
                              "\r\n0\r\n\r\n"));
  const std::string response = RecvUntilClosed(fd, 5000);
  EXPECT_EQ(StatusOfRaw(response), 501) << response;
  EXPECT_NE(response.find("Connection: close"), std::string::npos);
  EXPECT_NE(response.find("Transfer-Encoding is not supported"),
            std::string::npos);
  // Exactly one response, then EOF.
  EXPECT_EQ(response.find("HTTP/1.1", 1), std::string::npos) << response;
  ::close(fd);
  EXPECT_EQ(CounterValue(core, "requests.update"), 0u);
  server.Stop();
  core.Shutdown();
}

// Hygiene: accepts beyond max_connections answer a clean 503 and close,
// without disturbing the connections already open.
TEST(ReactorServerTest, ConnectionCapRejectsWith503) {
  SKIP_IF_NO_REACTOR();
  ServerCore core(Config(1));
  ReactorConfig config = RConfig(1);
  config.max_connections = 2;
  ReactorServer server(&core, config);
  ASSERT_TRUE(server.Start().ok());

  const int c1 = RawConnect(server.port());
  const int c2 = RawConnect(server.port());
  ASSERT_GE(c1, 0);
  ASSERT_GE(c2, 0);
  ASSERT_TRUE(WaitFor([&] { return server.OpenConnections() == 2; }));

  const int c3 = RawConnect(server.port());
  ASSERT_GE(c3, 0);
  const std::string rejected = RecvUntilClosed(c3, 5000);
  EXPECT_EQ(StatusOfRaw(rejected), 503) << rejected;
  EXPECT_NE(rejected.find("connection limit"), std::string::npos);
  ::close(c3);
  EXPECT_GE(CounterValue(core, "reactor.rejected"), 1u);

  // The capped-out survivors still serve.
  ASSERT_TRUE(SendAll(c1, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"));
  std::string buffer;
  std::string response;
  ASSERT_TRUE(RecvOneResponse(c1, &buffer, &response));
  EXPECT_EQ(StatusOfRaw(response), 200);
  ::close(c1);
  ::close(c2);
  server.Stop();
  core.Shutdown();
}

TEST(ReactorServerTest, ShutdownWithInflightWorkIsClean) {
  SKIP_IF_NO_REACTOR();
  auto core = std::make_unique<ServerCore>(Config(2));
  ASSERT_TRUE(core->registry().Add("g", SlowGraph()).ok());
  ReactorServer server(core.get(), RConfig(2));
  ASSERT_TRUE(server.Start().ok());

  std::thread client([&, port = server.port()] {
    // May complete or be cut off by the shutdown — both are fine; what is
    // not fine is a hang or a crash.
    (void)HttpFetch("127.0.0.1", port, "POST", "/api/decompose",
                    R"({"graph":"g","kind":"nucleus34"})", 30000);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  core->Shutdown();  // fires the server-wide cancel; in-flight work unwinds
  server.Stop();
  client.join();
  core.reset();
}

}  // namespace
}  // namespace nucleus
