#include "src/server/reactor.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>
#include <utility>

#include "src/server/http.h"

#if defined(__linux__)
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace nucleus {

#if defined(__linux__)

namespace {

// epoll_event.data.u64 tags; connection ids start at 2 (see next_conn_id_).
constexpr std::uint64_t kWakeTag = 0;
constexpr std::uint64_t kListenTag = 1;

// A stream producer blocks once this many chunk bytes sit unflushed in the
// connection's output buffer — backpressure from client to producer.
constexpr std::size_t kStreamHighWaterBytes = std::size_t{1} << 20;

// Per-readiness-pass bounds, so one chatty connection cannot monopolize a
// loop: bytes read before yielding, and pipelined requests served before
// the residue is re-posted to the back of the inbox.
constexpr std::size_t kMaxReadPerPass = std::size_t{256} << 10;
constexpr int kInlineRequestBudget = 32;

constexpr int kSweepIntervalMs = 250;

std::string ToLowerCopy(std::string s) {
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

}  // namespace

// Cross-thread mailbox for one loop: worker callbacks and stream producers
// post closures here; the eventfd wakes the loop to drain them. Outlives
// the loop via shared_ptr so a late post after Stop is a clean no-op.
struct ReactorServer::LoopShared {
  std::mutex mu;
  std::deque<std::function<void(Loop&)>> inbox;
  bool stopped = false;
  int wake_fd = -1;

  bool Post(std::function<void(Loop&)> fn) {
    std::lock_guard<std::mutex> lk(mu);
    if (stopped || wake_fd < 0) return false;
    inbox.push_back(std::move(fn));
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_fd, &one, sizeof(one));
    return true;
  }
};

// Flow control between a stream producer thread and the loop that owns its
// connection. The producer adds frame bytes under the high-water mark; the
// loop subtracts them as the kernel accepts them; closing the connection
// (or stopping the server) sets closed so the producer unwinds.
struct ReactorServer::StreamGate {
  std::mutex mu;
  std::condition_variable cv;
  std::size_t inflight_bytes = 0;
  bool closed = false;
};

class ReactorServer::Loop {
 public:
  Loop(ReactorServer* server, int index)
      : server_(server),
        index_(index),
        shared_(std::make_shared<LoopShared>()) {}

  ~Loop() {
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    std::lock_guard<std::mutex> lk(shared_->mu);
    shared_->stopped = true;
    if (shared_->wake_fd >= 0) {
      ::close(shared_->wake_fd);
      shared_->wake_fd = -1;
    }
  }

  // One connection, owned by exactly one loop thread — no locking on any
  // of this state.
  struct Conn {
    int fd = -1;
    std::uint64_t id = 0;
    // Input: unconsumed bytes plus the incremental parse position.
    std::string in;
    std::size_t scan_pos = 0;  // resume point for the head-end search
    bool have_head = false;
    HttpRequest head;
    std::size_t need_body = 0;
    bool eof = false;
    // Output: one flat buffer with a drain offset; EPOLLOUT is armed only
    // while bytes remain.
    std::string out;
    std::size_t out_off = 0;
    bool want_write = false;
    bool close_after_flush = false;
    // One request in flight per connection at a time (response ordering).
    bool inflight = false;
    std::shared_ptr<StreamGate> gate;  // non-null while streaming
    // Stream backpressure accounting: each posted frame records the
    // cumulative output position at which it is fully flushed.
    struct Ack {
      std::uint64_t target;
      std::size_t bytes;
      std::shared_ptr<StreamGate> gate;
    };
    std::uint64_t enqueued_total = 0;
    std::uint64_t flushed_total = 0;
    std::deque<Ack> acks;
    // Hygiene timers.
    std::chrono::steady_clock::time_point last_activity;
    std::chrono::steady_clock::time_point read_start;
    bool mid_request = false;

    bool Busy() const { return inflight || gate != nullptr; }
  };

  Status Init() {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) {
      return Status::FailedPrecondition("epoll_create1 failed: " +
                                        std::string(std::strerror(errno)));
    }
    wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (wake_fd_ < 0) {
      return Status::FailedPrecondition("eventfd failed: " +
                                        std::string(std::strerror(errno)));
    }
    {
      std::lock_guard<std::mutex> lk(shared_->mu);
      shared_->wake_fd = wake_fd_;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeTag;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
    if (index_ == 0) {
      ev.events = EPOLLIN;
      ev.data.u64 = kListenTag;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, server_->listen_fd_, &ev);
    }
    last_sweep_ = std::chrono::steady_clock::now();
    return Status::Ok();
  }

  void Run() {
    epoll_event events[64];
    while (!server_->stopping_.load(std::memory_order_acquire)) {
      const int n = ::epoll_wait(epoll_fd_, events, 64, kSweepIntervalMs);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      for (int i = 0; i < n; ++i) {
        if (server_->stopping_.load(std::memory_order_relaxed)) break;
        const std::uint64_t tag = events[i].data.u64;
        if (tag == kWakeTag) {
          DrainInbox();
        } else if (tag == kListenTag) {
          HandleAccept();
        } else {
          HandleConnEvent(tag, events[i].events);
        }
      }
      Sweep();
    }
    CloseAll();
  }

  std::shared_ptr<LoopShared> shared() { return shared_; }

  void DrainInbox() {
    std::uint64_t drained;
    while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
    }
    std::deque<std::function<void(Loop&)>> batch;
    {
      std::lock_guard<std::mutex> lk(shared_->mu);
      batch.swap(shared_->inbox);
    }
    for (auto& fn : batch) fn(*this);
  }

  void HandleAccept() {
    while (true) {
      const int fd = ::accept4(server_->listen_fd_, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR) continue;
        break;  // EAGAIN, or the listener was closed by Stop
      }
      if (server_->stopping_.load()) {
        ::close(fd);
        break;
      }
      if (server_->open_conns_.load() >= server_->config_.max_connections) {
        server_->rejected_->Add();
        const std::string body =
            HttpErrorBody(Status::ResourceExhausted("connection limit reached"));
        const std::string resp =
            BuildHttpResponseHead(503, body.size(), false) + body;
        // Best effort: the fresh socket's send buffer is empty, so a
        // single non-blocking send carries the whole response.
        (void)::send(fd, resp.data(), resp.size(), MSG_NOSIGNAL);
        ::close(fd);
        continue;
      }
      server_->open_conns_.fetch_add(1);
      server_->accepted_->Add();
      const std::size_t target =
          server_->next_loop_.fetch_add(1) % server_->loops_.size();
      Loop* owner = server_->loops_[target].get();
      if (owner == this) {
        AdoptConn(fd);
      } else if (!owner->shared_->Post([fd](Loop& l) { l.AdoptConn(fd); })) {
        server_->open_conns_.fetch_sub(1);
        ::close(fd);
      }
    }
  }

  void AdoptConn(int fd) {
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->id = server_->next_conn_id_.fetch_add(1);
    conn->last_activity = std::chrono::steady_clock::now();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = conn->id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      server_->open_conns_.fetch_sub(1);
      return;
    }
    conns_.emplace(conn->id, std::move(conn));
  }

  void HandleConnEvent(std::uint64_t id, std::uint32_t events) {
    if (events & (EPOLLERR | EPOLLHUP)) {
      CloseConn(id);
      return;
    }
    if (events & EPOLLIN) {
      auto it = conns_.find(id);
      if (it == conns_.end()) return;
      if (!ReadInput(it->second.get())) return;
      ProcessConn(it->second.get());
    }
    if (events & EPOLLOUT) {
      auto it = conns_.find(id);
      if (it == conns_.end()) return;
      FlushOut(it->second.get());
    }
  }

  // Appends bytes to the connection's output keeping the cumulative
  // counter consistent (stream acks index into it).
  static void AppendOut(Conn* c, std::string_view bytes) {
    c->out.append(bytes);
    c->enqueued_total += bytes.size();
  }

  void QueueResponse(Conn* c, int http_status, std::string_view body,
                     bool keep_alive) {
    AppendOut(c, BuildHttpResponseHead(http_status, body.size(), keep_alive));
    AppendOut(c, body);
    if (!keep_alive) c->close_after_flush = true;
  }

  void RespondAndClose(Conn* c, int http_status, const std::string& body) {
    QueueResponse(c, http_status, body, /*keep_alive=*/false);
  }

  bool ReadInput(Conn* c) {
    char buf[16384];
    std::size_t total = 0;
    while (total < kMaxReadPerPass) {
      const ssize_t n = ::recv(c->fd, buf, sizeof(buf), 0);
      if (n > 0) {
        c->in.append(buf, static_cast<std::size_t>(n));
        total += static_cast<std::size_t>(n);
        c->last_activity = std::chrono::steady_clock::now();
        continue;
      }
      if (n == 0) {
        c->eof = true;
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      CloseConn(c->id);
      return false;
    }
    return true;
  }

  // The incremental parse-and-serve loop: consumes as many complete
  // requests as the budget allows, stopping while a request is in flight
  // (response ordering) or the connection is winding down.
  void ProcessConn(Conn* c) {
    int budget = kInlineRequestBudget;
    while (!c->Busy() && !c->close_after_flush) {
      if (!c->have_head) {
        const std::size_t start = c->scan_pos > 3 ? c->scan_pos - 3 : 0;
        const std::size_t pos = c->in.find("\r\n\r\n", start);
        if (pos == std::string::npos) {
          c->scan_pos = c->in.size();
          if (c->in.size() > kHttpMaxHeadBytes) {
            RespondAndClose(
                c, 400,
                HttpErrorBody(Status::InvalidArgument("request head too large")));
          }
          break;
        }
        auto parsed =
            ParseHttpRequestHead(std::string_view(c->in).substr(0, pos + 2));
        if (!parsed.ok()) {
          RespondAndClose(c, 400, HttpErrorBody(parsed.status()));
          break;
        }
        c->head = std::move(parsed).value();
        if (c->head.headers.count("transfer-encoding") != 0) {
          // Bodies are framed by Content-Length only: serving this request
          // would parse its body bytes as the next request.
          RespondAndClose(c, 501,
                          HttpErrorBody(Status::InvalidArgument(
                              "Transfer-Encoding is not supported; frame "
                              "the body with Content-Length")));
          break;
        }
        std::size_t content_length = 0;
        bool bad_length = false;
        if (const auto it = c->head.headers.find("content-length");
            it != c->head.headers.end()) {
          const auto [next, ec] =
              std::from_chars(it->second.data(),
                              it->second.data() + it->second.size(),
                              content_length);
          bad_length = ec != std::errc() ||
                       next != it->second.data() + it->second.size() ||
                       content_length > kHttpMaxBodyBytes;
        }
        if (bad_length) {
          RespondAndClose(
              c, 400, HttpErrorBody(Status::InvalidArgument("bad Content-Length")));
          break;
        }
        c->in.erase(0, pos + 4);
        c->scan_pos = 0;
        c->have_head = true;
        c->need_body = content_length;
      }
      if (c->in.size() < c->need_body) break;  // body still arriving
      HttpRequest request = std::move(c->head);
      c->head = HttpRequest{};
      request.body = c->in.substr(0, c->need_body);
      c->in.erase(0, c->need_body);
      c->have_head = false;
      c->need_body = 0;
      DispatchRequest(c, std::move(request));
      if (--budget == 0) {
        if (!c->Busy() && !c->close_after_flush && !c->in.empty()) {
          // Yield: re-post the residue so other connections get a turn.
          const std::uint64_t id = c->id;
          shared_->Post([id](Loop& l) {
            auto it = l.conns_.find(id);
            if (it != l.conns_.end()) l.ProcessConn(it->second.get());
          });
        }
        break;
      }
    }
    // Slowloris bookkeeping: a request is "in progress" once any of its
    // bytes have arrived; the sweep enforces read_deadline_ms from the
    // moment that state is entered.
    const bool mid = !c->Busy() && !c->close_after_flush &&
                     (c->have_head || !c->in.empty());
    if (mid && !c->mid_request) {
      c->read_start = std::chrono::steady_clock::now();
    }
    c->mid_request = mid;
    if (!FlushOut(c)) return;
    MaybeCloseOnEof(c);
  }

  void DispatchRequest(Conn* c, HttpRequest request) {
    bool keep_alive = true;
    if (const auto it = request.headers.find("connection");
        it != request.headers.end() && ToLowerCopy(it->second) == "close") {
      keep_alive = false;
    }
    auto routed = RouteHttpRequest(request);
    if (!routed.ok()) {
      QueueResponse(c, HttpStatusFor(routed.status().code()),
                    HttpErrorBody(routed.status()), keep_alive);
      return;
    }
    if (request.method == "GET" && routed->endpoint == "hierarchy") {
      StartStream(c, std::move(routed).value(), keep_alive);
      return;
    }
    const RequestClass cls = ClassifyEndpoint(routed->endpoint);
    if (cls == RequestClass::kRead || cls == RequestClass::kAdmin) {
      // Bounded-cost work runs right here: no queue handoff, no worker
      // wakeup — the fast path that makes warm reads scale with
      // connections instead of threads.
      const ServerResponse resp = server_->core_->HandleDirect(*routed);
      QueueResponse(c, HttpStatusFor(resp.status.code()), resp.body,
                    keep_alive);
      return;
    }
    c->inflight = true;
    auto shared = shared_;
    const std::uint64_t id = c->id;
    server_->core_->HandleAsync(
        *routed, [shared, id, keep_alive](ServerResponse resp) {
          std::string bytes = BuildHttpResponseHead(
              HttpStatusFor(resp.status.code()), resp.body.size(), keep_alive);
          bytes += resp.body;
          shared->Post([id, bytes = std::move(bytes),
                        keep_alive](Loop& l) mutable {
            l.CompleteAsync(id, std::move(bytes), keep_alive);
          });
        });
  }

  void CompleteAsync(std::uint64_t id, std::string bytes, bool keep_alive) {
    auto it = conns_.find(id);
    if (it == conns_.end()) return;  // connection died while queued
    Conn* c = it->second.get();
    c->inflight = false;
    AppendOut(c, bytes);
    if (!keep_alive) c->close_after_flush = true;
    if (!FlushOut(c)) return;
    if (!c->close_after_flush) ProcessConn(c);  // pipelined follow-ups
  }

  void StartStream(Conn* c, ServerRequest request, bool keep_alive) {
    server_->ReapFinishedStreams();
    auto gate = std::make_shared<StreamGate>();
    c->gate = gate;
    const std::uint64_t stream_id = server_->next_stream_id_.fetch_add(1);
    std::thread t(&ReactorServer::RunStream, server_, shared_, c->id,
                  std::move(request), keep_alive, gate, stream_id);
    std::lock_guard<std::mutex> lk(server_->stream_mu_);
    server_->stream_threads_.emplace(stream_id, std::move(t));
  }

  void AppendStreamBytes(std::uint64_t id, const std::string& frame,
                         std::size_t bytes,
                         const std::shared_ptr<StreamGate>& gate) {
    auto it = conns_.find(id);
    if (it == conns_.end() || it->second->gate != gate) {
      // The connection is gone (or onto another stream): unblock the
      // producer so it can unwind.
      std::lock_guard<std::mutex> lk(gate->mu);
      gate->closed = true;
      gate->cv.notify_all();
      return;
    }
    Conn* c = it->second.get();
    AppendOut(c, frame);
    c->acks.push_back({c->enqueued_total, bytes, gate});
    FlushOut(c);
  }

  void FinishStream(std::uint64_t id, const ServerResponse& resp, bool wrote,
                    bool keep_alive) {
    auto it = conns_.find(id);
    if (it == conns_.end()) return;
    Conn* c = it->second.get();
    if (c->gate) {
      std::lock_guard<std::mutex> lk(c->gate->mu);
      c->gate->closed = true;
      c->gate->cv.notify_all();
    }
    c->gate = nullptr;
    if (!resp.status.ok() && !wrote) {
      // Failed before the stream head went out: a plain JSON error.
      const std::string body =
          resp.body.empty() ? HttpErrorBody(resp.status) : resp.body;
      QueueResponse(c, HttpStatusFor(resp.status.code()), body, keep_alive);
    } else if (!resp.status.ok()) {
      // Mid-stream abort: flush what was framed, then truncate by closing
      // (the missing terminator chunk tells the client).
      c->close_after_flush = true;
    } else {
      AppendOut(c, "0\r\n\r\n");
      if (!keep_alive) c->close_after_flush = true;
    }
    if (!FlushOut(c)) return;
    if (!c->close_after_flush) ProcessConn(c);
  }

  // Drains the output buffer into the kernel; arms EPOLLOUT exactly while
  // bytes remain. Returns false when the connection was closed.
  bool FlushOut(Conn* c) {
    while (c->out_off < c->out.size()) {
      const ssize_t n = ::send(c->fd, c->out.data() + c->out_off,
                               c->out.size() - c->out_off, MSG_NOSIGNAL);
      if (n > 0) {
        c->out_off += static_cast<std::size_t>(n);
        c->flushed_total += static_cast<std::uint64_t>(n);
        c->last_activity = std::chrono::steady_clock::now();
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      CloseConn(c->id);
      return false;
    }
    // Release stream backpressure for frames now fully with the kernel.
    while (!c->acks.empty() && c->acks.front().target <= c->flushed_total) {
      const Conn::Ack& ack = c->acks.front();
      {
        std::lock_guard<std::mutex> lk(ack.gate->mu);
        ack.gate->inflight_bytes -=
            std::min(ack.gate->inflight_bytes, ack.bytes);
        ack.gate->cv.notify_all();
      }
      c->acks.pop_front();
    }
    if (c->out_off == c->out.size()) {
      c->out.clear();
      c->out_off = 0;
      if (c->close_after_flush) {
        CloseConn(c->id);
        return false;
      }
    } else if (c->out_off > (std::size_t{64} << 10)) {
      c->out.erase(0, c->out_off);
      c->out_off = 0;
    }
    return UpdateEpoll(c);
  }

  bool UpdateEpoll(Conn* c) {
    const bool want = c->out_off < c->out.size();
    if (want == c->want_write) return true;
    epoll_event ev{};
    ev.events = EPOLLIN;
    if (want) ev.events |= EPOLLOUT;
    ev.data.u64 = c->id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c->fd, &ev) < 0) {
      CloseConn(c->id);
      return false;
    }
    c->want_write = want;
    return true;
  }

  void MaybeCloseOnEof(Conn* c) {
    if (!c->eof || c->Busy()) return;
    if (c->out_off < c->out.size()) return;
    // The client can never complete a half-sent request; complete buffered
    // requests (budget yield) still get served by the re-posted pass.
    const bool incomplete_head =
        !c->have_head && (c->in.empty() || c->scan_pos >= c->in.size());
    const bool incomplete_body = c->have_head && c->in.size() < c->need_body;
    if (incomplete_head || incomplete_body) CloseConn(c->id);
  }

  void CloseConn(std::uint64_t id) {
    auto it = conns_.find(id);
    if (it == conns_.end()) return;
    Conn* c = it->second.get();
    if (c->gate) {
      std::lock_guard<std::mutex> lk(c->gate->mu);
      c->gate->closed = true;
      c->gate->cv.notify_all();
    }
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c->fd, nullptr);
    ::close(c->fd);
    conns_.erase(it);
    server_->open_conns_.fetch_sub(1);
  }

  void Sweep() {
    const auto now = std::chrono::steady_clock::now();
    if (now - last_sweep_ < std::chrono::milliseconds(kSweepIntervalMs)) {
      return;
    }
    last_sweep_ = now;
    std::vector<std::uint64_t> stalled;
    std::vector<std::uint64_t> idle;
    for (const auto& [id, c] : conns_) {
      if (c->Busy() || c->close_after_flush) continue;
      if (c->mid_request) {
        if (server_->config_.read_deadline_ms > 0 &&
            now - c->read_start >
                std::chrono::milliseconds(server_->config_.read_deadline_ms)) {
          stalled.push_back(id);
        }
      } else if (c->out_off == c->out.size() &&
                 server_->config_.idle_timeout_ms > 0 &&
                 now - c->last_activity >
                     std::chrono::milliseconds(server_->config_.idle_timeout_ms)) {
        idle.push_back(id);
      }
    }
    for (const std::uint64_t id : stalled) {
      auto it = conns_.find(id);
      if (it == conns_.end()) continue;
      Conn* c = it->second.get();
      server_->read_timeout_closed_->Add();
      c->in.clear();
      c->scan_pos = 0;
      c->have_head = false;
      c->need_body = 0;
      c->mid_request = false;
      RespondAndClose(
          c, 408, HttpErrorBody(Status::DeadlineExceeded("read deadline expired")));
      FlushOut(c);
    }
    for (const std::uint64_t id : idle) {
      if (conns_.count(id) != 0) {
        server_->idle_closed_->Add();
        CloseConn(id);
      }
    }
  }

  void CloseAll() {
    std::vector<std::uint64_t> ids;
    ids.reserve(conns_.size());
    for (const auto& [id, c] : conns_) ids.push_back(id);
    for (const std::uint64_t id : ids) CloseConn(id);
  }

  ReactorServer* server_;
  int index_;
  std::shared_ptr<LoopShared> shared_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // mirrors shared_->wake_fd; loop-thread reads skip the lock
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  std::chrono::steady_clock::time_point last_sweep_{};
};

bool ReactorServer::Supported() { return true; }

Status ReactorServer::Start() {
  if (started_.exchange(true)) {
    return Status::FailedPrecondition("reactor already started");
  }
  listen_fd_ =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return Status::FailedPrecondition("socket() failed: " +
                                      std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status s = Status::FailedPrecondition(
        "bind(127.0.0.1:" + std::to_string(config_.port) +
        ") failed: " + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  if (::listen(listen_fd_, 128) < 0) {
    const Status s = Status::FailedPrecondition(
        "listen() failed: " + std::string(std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = ntohs(addr.sin_port);
  }
  accepted_ = &core_->metrics().Counter("reactor.accepted");
  rejected_ = &core_->metrics().Counter("reactor.rejected");
  idle_closed_ = &core_->metrics().Counter("reactor.idle_closed");
  read_timeout_closed_ = &core_->metrics().Counter("reactor.read_timeout_closed");
  const int loops = std::max(1, config_.loops);
  loops_.reserve(static_cast<std::size_t>(loops));
  for (int i = 0; i < loops; ++i) {
    loops_.push_back(std::make_unique<Loop>(this, i));
    if (Status s = loops_.back()->Init(); !s.ok()) {
      loops_.clear();
      ::close(listen_fd_);
      listen_fd_ = -1;
      return s;
    }
  }
  threads_.reserve(loops_.size());
  for (auto& loop : loops_) {
    threads_.emplace_back([l = loop.get()] { l->Run(); });
  }
  return Status::Ok();
}

void ReactorServer::Stop() {
  if (stopping_.exchange(true)) {
    // A second caller (realistically the destructor after an explicit
    // Stop) still waits for everything to wind down.
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
  } else {
    // Wake every loop so it observes stopping_ and closes its connections
    // (which unblocks any stream producer parked on a gate).
    for (auto& loop : loops_) {
      std::lock_guard<std::mutex> lk(loop->shared()->mu);
      if (loop->shared()->wake_fd >= 0) {
        const std::uint64_t one = 1;
        [[maybe_unused]] const ssize_t n =
            ::write(loop->shared()->wake_fd, &one, sizeof(one));
      }
    }
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
    threads_.clear();
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    // Refuse further posts: a worker callback finishing after Stop lands
    // on a stopped mailbox and is dropped cleanly.
    for (auto& loop : loops_) {
      std::lock_guard<std::mutex> lk(loop->shared()->mu);
      loop->shared()->stopped = true;
      if (loop->shared()->wake_fd >= 0) {
        ::close(loop->shared()->wake_fd);
        loop->shared()->wake_fd = -1;
      }
      loop->shared()->inbox.clear();
    }
  }
  // Join stream producers outside stream_mu_ — a finishing producer takes
  // the same mutex to report itself done.
  std::unordered_map<std::uint64_t, std::thread> streams;
  {
    std::lock_guard<std::mutex> lk(stream_mu_);
    streams.swap(stream_threads_);
    finished_streams_.clear();
  }
  for (auto& [id, t] : streams) {
    if (t.joinable()) t.join();
  }
}

void ReactorServer::RunStream(std::shared_ptr<LoopShared> shared,
                              std::uint64_t conn_id, ServerRequest request,
                              bool keep_alive,
                              std::shared_ptr<StreamGate> gate,
                              std::uint64_t stream_id) {
  // Builds chunk frames (stream head lazily, so a handler that fails
  // before its first chunk still gets a proper error status) and posts
  // them to the owning loop, blocking under the gate's high-water mark
  // until the client drains.
  class PostSink : public ChunkSink {
   public:
    PostSink(LoopShared* shared, std::uint64_t conn_id,
             std::shared_ptr<StreamGate> gate, bool keep_alive)
        : shared_(shared),
          conn_id_(conn_id),
          gate_(std::move(gate)),
          keep_alive_(keep_alive) {}

    bool Write(std::string_view chunk) override {
      if (chunk.empty()) return ok_;  // "0\r\n" would terminate the stream
      if (!ok_) return false;
      std::string frame;
      if (!header_sent_) {
        header_sent_ = true;
        frame = BuildChunkedStreamHead(keep_alive_);
      }
      AppendChunkFrame(frame, chunk);
      const std::size_t bytes = frame.size();
      {
        std::unique_lock<std::mutex> lk(gate_->mu);
        gate_->cv.wait(lk, [this] {
          return gate_->closed ||
                 gate_->inflight_bytes < kStreamHighWaterBytes;
        });
        if (gate_->closed) {
          ok_ = false;
          return false;
        }
        gate_->inflight_bytes += bytes;
      }
      auto gate = gate_;
      if (!shared_->Post([id = conn_id_, frame = std::move(frame), bytes,
                          gate](Loop& l) {
            l.AppendStreamBytes(id, frame, bytes, gate);
          })) {
        ok_ = false;
        return false;
      }
      return true;
    }

    bool header_sent() const { return header_sent_; }

   private:
    LoopShared* shared_;
    std::uint64_t conn_id_;
    std::shared_ptr<StreamGate> gate_;
    bool keep_alive_;
    bool header_sent_ = false;
    bool ok_ = true;
  };

  PostSink sink(shared.get(), conn_id, gate, keep_alive);
  const ServerResponse resp = core_->HandleStreaming(request, &sink);
  const bool wrote = sink.header_sent();
  shared->Post([conn_id, resp, wrote, keep_alive](Loop& l) {
    l.FinishStream(conn_id, resp, wrote, keep_alive);
  });
  std::lock_guard<std::mutex> lk(stream_mu_);
  finished_streams_.push_back(stream_id);
}

void ReactorServer::ReapFinishedStreams() {
  std::vector<std::thread> done;
  {
    std::lock_guard<std::mutex> lk(stream_mu_);
    while (!finished_streams_.empty()) {
      auto it = stream_threads_.find(finished_streams_.front());
      finished_streams_.pop_front();
      if (it != stream_threads_.end()) {
        done.push_back(std::move(it->second));
        stream_threads_.erase(it);
      }
    }
  }
  for (auto& t : done) {
    if (t.joinable()) t.join();
  }
}

#else  // !defined(__linux__)

struct ReactorServer::LoopShared {};
struct ReactorServer::StreamGate {};
class ReactorServer::Loop {};

bool ReactorServer::Supported() { return false; }

Status ReactorServer::Start() {
  return Status::FailedPrecondition(
      "reactor transport requires Linux (epoll/eventfd)");
}

void ReactorServer::Stop() {}

void ReactorServer::RunStream(std::shared_ptr<LoopShared>, std::uint64_t,
                              ServerRequest, bool, std::shared_ptr<StreamGate>,
                              std::uint64_t) {}

void ReactorServer::ReapFinishedStreams() {}

#endif  // defined(__linux__)

ReactorServer::ReactorServer(ServerCore* core, ReactorConfig config)
    : core_(core), config_(config) {}

ReactorServer::~ReactorServer() { Stop(); }

}  // namespace nucleus
