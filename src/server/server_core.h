// Transport-independent service layer: named endpoints taking and
// returning JSON, dispatched against a multi-tenant GraphRegistry, with a
// bounded admission-control queue and request coalescing in front of the
// NucleusSession compute. The HTTP layer (server/http.h) is a thin shell
// over this class; tests and benches drive ServerCore in-process, so the
// whole serving contract — shedding, deadlines, coalescing, eviction under
// load — is provable without a socket.
//
// Request lifecycle (Handle):
//   1. Admission: the request enters a bounded queue served by a fixed
//      worker pool. A full queue sheds immediately with kResourceExhausted
//      (the caller is never blocked behind work that cannot be scheduled).
//   2. Deadline: "deadline_ms" in the body (or the config default) bounds
//      the request end to end — queue wait included. A request that
//      expires while still queued is skipped, not executed; one that
//      expires mid-compute unwinds cooperatively through RunControl and
//      the session installs nothing partial. Either way the caller gets
//      kDeadlineExceeded and the session stays fully usable.
//   3. Coalescing: concurrent decompose/hierarchy requests with the same
//      cache key ride one leader's execution and share its response, so N
//      cold requests for the same (graph, kind) cost ONE index/arena/kappa
//      build. Observable via the coalesce.builds / coalesce.riders
//      counters (and the session's own build counters).
//
// Every endpoint records a latency histogram and request/error counters in
// a MetricsRegistry; /metricz renders the registry plus per-graph
// SessionStateStats and queue gauges as one JSON document.
#ifndef NUCLEUS_SERVER_SERVER_CORE_H_
#define NUCLEUS_SERVER_SERVER_CORE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/cancel.h"
#include "src/common/metrics.h"
#include "src/common/status.h"
#include "src/server/registry.h"

namespace nucleus {

class JsonValue;
class JsonWriter;

/// Admission classes: every endpoint maps to one, and the queue dequeues
/// across them by weighted round-robin with per-class concurrency caps, so
/// one class flooding the queue cannot starve the others.
///   read   — bounded-cost reads: query, stats, densest
///   build  — analytical builds that may run cold: decompose, hierarchy
///   update — mutations of graph/registry state: update, load, unload
///   admin  — observability: metricz, healthz, graphs (and unknown
///            endpoints, whose NotFound is cheap)
enum class RequestClass { kRead = 0, kBuild = 1, kUpdate = 2, kAdmin = 3 };
inline constexpr int kNumRequestClasses = 4;

RequestClass ClassifyEndpoint(std::string_view endpoint);
const char* RequestClassName(RequestClass cls);

/// Writes a session's state snapshot as members of the object open in
/// `w`: the body of /api/stats and of each graph's /metricz entry.
/// Counters are unsigned 64-bit and serialize without narrowing.
void WriteSessionStats(JsonWriter& w, const SessionStateStats& s);

/// Per-class scheduling knobs. Weight is the dequeue share when several
/// classes have runnable work (smooth weighted round-robin). The cap
/// bounds concurrently executing requests of the class; <= 0 picks the
/// default: all workers, except `update`, which defaults to half the pool
/// (a commit flood must never occupy every worker while reads queue).
struct ClassPolicy {
  int weight = 1;
  int max_concurrency = 0;
};

struct ServerConfig {
  /// Worker threads serving the admission queue.
  int workers = 4;
  /// Requests allowed to wait in the queue (across all classes); a request
  /// arriving when the queue is full is shed with kResourceExhausted.
  std::size_t queue_capacity = 64;
  /// Registry budgets (see GraphRegistry::Config).
  std::uint64_t global_memory_budget_bytes = std::uint64_t{4} << 30;
  std::uint64_t default_arena_budget_bytes = std::uint64_t{512} << 20;
  /// Deadline applied to requests whose body names none; 0 = unbounded.
  std::int64_t default_deadline_ms = 0;
  /// Materialization mode for decompose/hierarchy requests whose body
  /// names none: auto | on | off | compressed (see Options::materialize).
  /// Kept as the spelled-out name so a request body overrides it through
  /// the same parser; validated when a request uses it.
  std::string default_materialize = "auto";
  /// Admission-class scheduling (see ClassPolicy). Reads dominate the
  /// dequeue share so warm queries keep flowing while builds churn.
  ClassPolicy class_read{/*weight=*/8, /*max_concurrency=*/0};
  ClassPolicy class_build{/*weight=*/2, /*max_concurrency=*/0};
  ClassPolicy class_update{/*weight=*/2, /*max_concurrency=*/0};
  ClassPolicy class_admin{/*weight=*/4, /*max_concurrency=*/0};
  /// TTL of the negative-result cache (repeated failing requests — bad
  /// graph name, malformed options — answer from cache instead of
  /// re-diagnosing). 0 disables it.
  std::int64_t negative_cache_ttl_ms = 2000;
  /// CPU-priority drop applied to a worker thread while it executes a
  /// build- or update-class request (Linux only): 1-19 add that many nice
  /// levels; 20 switches the thread to SCHED_IDLE, which latency-sensitive
  /// reads preempt at wakeup instead of waiting out a timeslice. 0
  /// disables.
  int batch_nice = 5;
};

/// One request: a named endpoint plus a JSON object body (empty = "{}").
/// Endpoints: decompose, query, hierarchy, update, densest, stats, load,
/// unload, graphs, metricz, healthz.
struct ServerRequest {
  std::string endpoint;
  std::string body;
};

struct ServerResponse {
  Status status;
  /// JSON document; on failure, {"error": ..., "code": ...}. Empty when
  /// the response was streamed through a ChunkSink instead.
  std::string body;
  bool streamed = false;
};

/// Where a streaming endpoint writes its chunks (the HTTP layer implements
/// this over chunked transfer encoding; tests implement it over a string).
/// Write returns false when the consumer is gone — the producer stops.
class ChunkSink {
 public:
  virtual ~ChunkSink() = default;
  virtual bool Write(std::string_view chunk) = 0;
};

class ServerCore {
 public:
  explicit ServerCore(ServerConfig config);
  ~ServerCore();

  ServerCore(const ServerCore&) = delete;
  ServerCore& operator=(const ServerCore&) = delete;

  /// Admission-controlled entry point: queues the request, blocks the
  /// calling thread until a worker completes it, the queue sheds it, or
  /// its deadline expires (the abandoned job's CancelToken fires so the
  /// worker unwinds instead of computing for nobody).
  ServerResponse Handle(const ServerRequest& request);

  /// Non-blocking admission: the request enters the queue and `done` is
  /// invoked exactly once with the response — from a worker thread on
  /// completion, or from the calling thread when the request is shed,
  /// rejected during shutdown, or answered from the negative cache. The
  /// reactor transport submits through this so its event loops never park
  /// on the queue. There is no abandon path: a deadline that expires while
  /// queued still resolves through a worker (as kDeadlineExceeded, never
  /// executed).
  void HandleAsync(const ServerRequest& request,
                   std::function<void(ServerResponse)> done);

  /// Runs the request on the caller's thread, bypassing admission (used
  /// by the queue workers themselves, by tests that want synchronous
  /// semantics, and by the bench harness). `ctl` bounds the execution; a
  /// default control falls back to the body's deadline_ms.
  ServerResponse HandleDirect(const ServerRequest& request,
                              RunControl ctl = {});

  /// Streaming endpoints (currently: hierarchy dumps as NDJSON). Runs on
  /// the caller's thread — streaming is paced by the transport, so it
  /// must not pin a queue worker for the duration of a slow client.
  ServerResponse HandleStreaming(const ServerRequest& request,
                                 ChunkSink* sink, RunControl ctl = {});

  /// Cancels in-flight work, completes queued requests as kCancelled, and
  /// joins the workers. Idempotent; the destructor calls it.
  void Shutdown();

  GraphRegistry& registry() { return registry_; }
  MetricsRegistry& metrics() { return metrics_; }

  /// Queue gauges (tests use these to arrange deterministic shedding).
  std::size_t QueueDepth() const;
  std::size_t QueueDepth(RequestClass cls) const;
  int ActiveRequests() const { return active_.load(); }
  int ActiveRequests(RequestClass cls) const;

  /// The /metricz document.
  std::string MetricsJson();

 private:
  struct Job {
    ServerRequest request;
    RequestClass cls = RequestClass::kAdmin;
    Deadline deadline;
    CancelToken cancel;
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    bool abandoned = false;
    ServerResponse response;
    // Async jobs deliver through this instead of the cv (HandleAsync).
    std::function<void(ServerResponse)> callback;

    explicit Job(const CancelToken* parent) : cancel(parent) {}
  };

  // One coalesced execution: the first requester (leader) runs, later
  // identical requests (riders) wait here and share the leader's response.
  struct Flight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    ServerResponse response;
    int riders = 0;  // guarded by flights_mu_, frozen once the key erases
    // The leader's pre-normalization option spelling: a rider whose raw
    // spelling differs still coalesces (the key is canonical) and counts
    // as a normalization hit.
    std::string raw_sig;
  };

  struct NegativeEntry {
    ServerResponse response;
    std::chrono::steady_clock::time_point expires;
  };

  void WorkerLoop();
  // Picks the next runnable class (non-empty queue, below its concurrency
  // cap): the const form for wait predicates, the mutating form consumes
  // smooth-WRR credit. Both require queue_mu_.
  int RunnableClassLocked() const;
  int PickClassLocked();
  // Admission under queue_mu_: nullopt on success, else the rejection.
  std::optional<ServerResponse> TryEnqueue(const std::shared_ptr<Job>& job);
  std::optional<ServerResponse> NegativeLookup(const ServerRequest& request);
  void MaybeNegativeStore(const ServerRequest& request,
                          const ServerResponse& response);
  void ClearNegativeCache();
  ServerResponse Dispatch(const ServerRequest& request, RunControl ctl,
                          ChunkSink* sink);
  ServerResponse DispatchUncached(const ServerRequest& request, RunControl ctl,
                                  ChunkSink* sink);

  // Endpoint handlers. All take the parsed body; those that can be
  // stopped take the request control.
  ServerResponse HandleDecompose(const JsonValue& body, RunControl ctl);
  ServerResponse HandleQuery(const JsonValue& body, RunControl ctl);
  ServerResponse HandleHierarchy(const JsonValue& body, RunControl ctl,
                                 ChunkSink* sink);
  ServerResponse HandleUpdate(const JsonValue& body, RunControl ctl);
  ServerResponse HandleDensest(const JsonValue& body);
  ServerResponse HandleStats(const JsonValue& body);
  ServerResponse HandleLoad(const JsonValue& body);
  ServerResponse HandleUnload(const JsonValue& body);
  ServerResponse HandleGraphs();
  ServerResponse HandleHealthz();

  /// Runs `run` under the singleflight keyed by `key`: the leader
  /// executes, riders block (bounded by `ctl`) and share the response.
  /// `raw_sig` is the request's pre-normalization option spelling; a rider
  /// whose raw_sig differs from the leader's counts coalesce.norm_hits.
  ServerResponse Coalesced(const std::string& key, const std::string& raw_sig,
                           RunControl ctl,
                           const std::function<ServerResponse()>& run);

  const ServerConfig config_;
  GraphRegistry registry_;
  MetricsRegistry metrics_;

  // Per-endpoint instruments, resolved once at construction so the
  // per-request path bumps atomics instead of taking the registry mutex
  // (shared with CPU-deprioritized batch workers — a lookup there could
  // stall a reactor loop behind a preempted worker). Read-only after the
  // constructor. Unknown endpoints fall back to the locking lookup.
  struct EndpointInstruments {
    LatencyHistogram* latency = nullptr;
    MetricCounter* requests = nullptr;
    MetricCounter* errors = nullptr;
  };
  std::map<std::string, EndpointInstruments, std::less<>> endpoint_metrics_;

  /// Latency + request (+ error) bump through the pre-resolved
  /// instruments; unknown endpoints take the registry-mutex path.
  void RecordEndpointMetrics(const std::string& endpoint, double latency_ms,
                             bool error);
  /// Request + error bump without a latency sample (negative-cache hits
  /// never executed, so they contribute no latency).
  void BumpEndpointError(const std::string& endpoint);

  // Server-wide cancellation root: Shutdown fires it and every in-flight
  // request's token is its child.
  CancelToken shutdown_cancel_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  // One queue per admission class; total occupancy (not per-class) is what
  // the shared queue_capacity bounds, so shedding semantics match the
  // single-queue contract the tests pin down.
  std::deque<std::shared_ptr<Job>> queues_[kNumRequestClasses];
  std::size_t total_queued_ = 0;
  int class_active_[kNumRequestClasses] = {0, 0, 0, 0};
  int class_limit_[kNumRequestClasses] = {0, 0, 0, 0};   // resolved in ctor
  int class_weight_[kNumRequestClasses] = {1, 1, 1, 1};  // resolved in ctor
  int wrr_credit_[kNumRequestClasses] = {0, 0, 0, 0};
  bool stopping_ = false;
  std::vector<std::thread> workers_;
  std::atomic<int> active_{0};

  std::mutex flights_mu_;
  std::unordered_map<std::string, std::shared_ptr<Flight>> flights_;

  std::mutex negative_mu_;
  std::unordered_map<std::string, NegativeEntry> negative_cache_;
};

}  // namespace nucleus

#endif  // NUCLEUS_SERVER_SERVER_CORE_H_
