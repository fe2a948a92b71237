// Epoll reactor over ServerCore — the server's one wire transport. A
// small, fixed set of event-loop threads own every connection: sockets
// are non-blocking, request heads and bodies are parsed incrementally as
// bytes arrive, and responses are buffered and drained through
// write-readiness, so thousands of mostly-idle connections cost file
// descriptors, not threads.
//
// Division of labor per request class (see ClassifyEndpoint):
//   read/admin  — executed inline on the loop thread via HandleDirect
//                 (bounded-cost work; skipping the queue handoff is what
//                 makes warm reads fast at high connection counts).
//   build/update — submitted through ServerCore::HandleAsync; the loop
//                 thread never blocks on the admission queue, and the
//                 worker's completion callback posts the response bytes
//                 back to the owning loop. One request is in flight per
//                 connection at a time; further pipelined requests stay
//                 buffered until the response is queued, preserving
//                 response order.
//   streaming   — GET /api/hierarchy runs on a dedicated stream thread,
//                 off the loops and the admission workers; chunk frames
//                 are posted to the loop with a high-water-mark gate so a
//                 slow client blocks its producer, not the loop.
//
// Connection hygiene, all visible in /metricz:
//   reactor.accepted             connections accepted
//   reactor.rejected             accepts refused with 503 at the
//                                max_connections cap
//   reactor.idle_closed          idle connections reaped (idle_timeout_ms)
//   reactor.read_timeout_closed  mid-request stalls reaped with 408
//                                (read_deadline_ms — the slowloris guard)
// Request bodies are framed by Content-Length alone; a request carrying
// Transfer-Encoding gets 501 and a close, never a dispatch.
//
// The wire bytes — response heads, error bodies, chunk framing — come from
// the shared helpers in http.h, so a response is exactly the framed
// ServerCore answer for the same request sequence.
//
// Linux-only (epoll + eventfd): Supported() is false elsewhere and Start()
// returns kFailedPrecondition.
#ifndef NUCLEUS_SERVER_REACTOR_H_
#define NUCLEUS_SERVER_REACTOR_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/server/server_core.h"

namespace nucleus {

struct ReactorConfig {
  /// 127.0.0.1 bind port; 0 = kernel-chosen (read port() after Start).
  int port = 0;
  /// Event-loop threads. Loop 0 also owns the listening socket and deals
  /// accepted connections round-robin across all loops.
  int loops = 2;
  /// Concurrently open connections; an accept beyond the cap is answered
  /// with a best-effort 503 and closed (reactor.rejected).
  int max_connections = 1024;
  /// A connection with no request in progress is closed after this long
  /// without activity. 0 disables.
  std::int64_t idle_timeout_ms = 60000;
  /// A connection that has started a request (any bytes of head or body
  /// received) must deliver the rest within this long, or it is answered
  /// 408 and closed — the slowloris guard. 0 disables.
  std::int64_t read_deadline_ms = 10000;
};

class ReactorServer {
 public:
  ReactorServer(ServerCore* core, ReactorConfig config);
  ~ReactorServer();

  ReactorServer(const ReactorServer&) = delete;
  ReactorServer& operator=(const ReactorServer&) = delete;

  /// Binds 127.0.0.1:config.port, spawns the loop threads. Returns
  /// kFailedPrecondition when the bind fails or the platform has no epoll.
  Status Start();

  /// Closes the listener and every connection, unblocks in-flight stream
  /// producers, and joins all threads. Idempotent; the destructor calls it.
  void Stop();

  /// The bound port (valid after a successful Start).
  int port() const { return port_; }

  /// Currently open connections (gauge; tests drive the cap against it).
  int OpenConnections() const { return open_conns_.load(); }

  /// False on platforms without epoll/eventfd.
  static bool Supported();

 private:
  class Loop;
  friend class Loop;
  struct LoopShared;
  struct StreamGate;

  void RunStream(std::shared_ptr<LoopShared> shared, std::uint64_t conn_id,
                 ServerRequest request, bool keep_alive,
                 std::shared_ptr<StreamGate> gate, std::uint64_t stream_id);
  void ReapFinishedStreams();

  ServerCore* core_;
  const ReactorConfig config_;
  int port_ = 0;
  int listen_fd_ = -1;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<int> open_conns_{0};
  std::atomic<std::size_t> next_loop_{0};
  std::atomic<std::uint64_t> next_conn_id_{2};  // 0 = wake tag, 1 = listen
  std::vector<std::unique_ptr<Loop>> loops_;
  std::vector<std::thread> threads_;

  // Stream threads, joined on Stop; finished ones are reaped eagerly so
  // the map stays bounded by concurrent streams.
  std::mutex stream_mu_;
  std::unordered_map<std::uint64_t, std::thread> stream_threads_;
  std::deque<std::uint64_t> finished_streams_;
  std::atomic<std::uint64_t> next_stream_id_{1};

  // Hygiene counters (owned by the core's registry; pointer-stable).
  MetricCounter* accepted_ = nullptr;
  MetricCounter* rejected_ = nullptr;
  MetricCounter* idle_closed_ = nullptr;
  MetricCounter* read_timeout_closed_ = nullptr;
};

}  // namespace nucleus

#endif  // NUCLEUS_SERVER_REACTOR_H_
