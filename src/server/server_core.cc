#include "src/server/server_core.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <shared_mutex>
#include <utility>

#if defined(__linux__)
#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "src/common/thread_pool.h"
#include "src/core/densest.h"
#include "src/server/json.h"

namespace nucleus {

namespace {

// Drops the calling thread's CPU priority for the duration of a batch
// request, returning the nice value to restore. Levels 1-19 add that many
// nice levels; level 20 switches the thread to SCHED_IDLE, which any
// normal-policy wakeup (a read executing inline on a reactor loop)
// preempts immediately instead of waiting out the batch thread's slice.
// Per-thread priority is Linux-specific; elsewhere both calls are no-ops.
int LowerThreadPriority(int level) {
#if defined(__linux__)
  const pid_t tid = static_cast<pid_t>(::syscall(SYS_gettid));
  errno = 0;
  const int current = ::getpriority(PRIO_PROCESS, static_cast<id_t>(tid));
  if (errno != 0) return 0;
  if (level >= 20) {
    sched_param sp{};
    ::sched_setscheduler(0, SCHED_IDLE, &sp);
  } else {
    ::setpriority(PRIO_PROCESS, static_cast<id_t>(tid),
                  std::min(current + level, 19));
  }
  return current;
#else
  (void)level;
  return 0;
#endif
}

void RestoreThreadPriority(int nice_value) {
#if defined(__linux__)
  // Unconditionally reset the policy: a no-op if the lowering used plain
  // nice, and the unprivileged SCHED_IDLE -> SCHED_OTHER transition has
  // been allowed since Linux 2.6.39.
  sched_param sp{};
  ::sched_setscheduler(0, SCHED_OTHER, &sp);
  const pid_t tid = static_cast<pid_t>(::syscall(SYS_gettid));
  ::setpriority(PRIO_PROCESS, static_cast<id_t>(tid), nice_value);
#else
  (void)nice_value;
#endif
}

ServerResponse ErrorResponse(const Status& s) {
  JsonWriter w;
  w.BeginObject()
      .Key("error")
      .String(s.message())
      .Key("code")
      .String(Status::CodeName(s.code()))
      .EndObject();
  return ServerResponse{s, w.Take(), /*streamed=*/false};
}

ServerResponse OkResponse(JsonWriter&& w) {
  return ServerResponse{Status::Ok(), w.Take(), /*streamed=*/false};
}

StatusOr<Method> ParseMethodName(const std::string& s) {
  if (s == "and") return Method::kAnd;
  if (s == "snd") return Method::kSnd;
  if (s == "peel" || s == "peeling") return Method::kPeeling;
  return Status::InvalidArgument("unknown method '" + s +
                                 "' (want and | snd | peel)");
}

StatusOr<Materialize> ParseMaterializeName(const std::string& s) {
  if (s == "auto") return Materialize::kAuto;
  if (s == "on") return Materialize::kOn;
  if (s == "off") return Materialize::kOff;
  if (s == "compressed") return Materialize::kCompressed;
  return Status::InvalidArgument(
      "unknown materialize '" + s + "' (want auto | on | off | compressed)");
}

// The canonical spelling, used both in coalescing keys and in response
// bodies, so aliases ("peeling") coalesce with — and answer identically
// to — the canonical form ("peel").
const char* CanonicalMethodName(Method m) {
  switch (m) {
    case Method::kAnd: return "and";
    case Method::kSnd: return "snd";
    case Method::kPeeling: return "peel";
  }
  return "?";
}

// Remaps a request control onto the session's Options knobs. The session
// restarts its deadline clock at entry, so it gets the REMAINING time, not
// the original budget — queue wait already consumed its share.
void ApplyControl(const RunControl& ctl, Options* options) {
  options->cancel_token = ctl.token();
  if (!ctl.deadline().IsInfinite()) {
    options->deadline_ms = std::max<std::int64_t>(1, ctl.deadline().RemainingMs());
  }
}

// Shared shape of the request preamble: parse graph/kind, resolve the
// registry entry.
struct Target {
  std::shared_ptr<GraphRegistry::Entry> entry;
  DecompositionKind kind = DecompositionKind::kCore;
};

StatusOr<Target> ResolveTarget(GraphRegistry& registry, const JsonValue& body,
                               bool needs_kind) {
  auto name = body.GetString("graph");
  if (!name.ok()) return name.status();
  if (name->empty()) {
    return Status::InvalidArgument("missing required field 'graph'");
  }
  Target t;
  if (needs_kind) {
    auto kind_name = body.GetString("kind", "core");
    if (!kind_name.ok()) return kind_name.status();
    auto kind = ParseKindName(*kind_name);
    if (!kind.ok()) return kind.status();
    t.kind = *kind;
  }
  auto entry = registry.Get(*name);
  if (!entry.ok()) return entry.status();
  t.entry = std::move(entry).value();
  return t;
}

// The `[...]` encoding of a kappa array, stored at its exact size: a
// cached fragment lives for a whole epoch, so capacity slack would be heap
// that nothing reads.
std::shared_ptr<const std::string> EncodeKappa(
    const std::vector<Degree>& kappa) {
  JsonWriter w;
  w.BeginArray();
  for (const Degree k : kappa) w.UInt(k);
  w.EndArray();
  std::string bytes = w.Take();
  bytes.shrink_to_fit();
  return std::make_shared<const std::string>(std::move(bytes));
}

double ElapsedMs(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// Negative entries are keyed on the raw request (endpoint + body bytes):
// a repeated failing request is byte-for-byte the same retry loop, so the
// exact key hits without any parsing. Bounded so a scan of distinct bad
// requests cannot grow the map.
constexpr std::size_t kNegativeCacheCap = 1024;

// A streamed hierarchy flushes once its buffer reaches this size.
constexpr std::size_t kStreamChunkBytes = 32 * 1024;

// Room for a decompose envelope around a spliced kappa fragment, graph name
// aside: the field names plus the widest numbers, rounded up.
constexpr std::size_t kEnvelopeBytes = 512;

}  // namespace

void WriteSessionStats(JsonWriter& w, const SessionStateStats& s) {
  const auto kind = [](int k) {
    return KindName(static_cast<DecompositionKind>(k));
  };
  w.Key("num_vertices").UInt(s.num_vertices);
  w.Key("num_edges").UInt(s.num_edges);
  w.Key("edge_ids").UInt(s.edge_ids);
  w.Key("live_edges").UInt(s.live_edges);
  w.Key("triangle_ids").UInt(s.triangle_ids);
  w.Key("live_triangles").UInt(s.live_triangles);
  w.Key("graph_bytes").UInt(s.graph_bytes);
  w.Key("index_bytes").UInt(s.index_bytes);
  w.Key("total_bytes").UInt(s.TotalBytes());
  w.Key("kappa_cached").BeginObject();
  for (int k = 0; k < 3; ++k) w.Key(kind(k)).Bool(s.kappa_cached[k]);
  w.EndObject();
  w.Key("hierarchy_cached").BeginObject();
  for (int k = 0; k < 3; ++k) w.Key(kind(k)).Bool(s.hierarchy_cached[k]);
  w.EndObject();
  w.Key("arena_bytes").BeginObject();
  for (int k = 0; k < 3; ++k) w.Key(kind(k)).UInt(s.arena_bytes[k]);
  w.EndObject();
  w.Key("arena_compressed_bytes").BeginObject();
  for (int k = 0; k < 3; ++k) w.Key(kind(k)).UInt(s.arena_compressed_bytes[k]);
  w.EndObject();
  const SessionStats& c = s.counters;
  w.Key("counters").BeginObject();
  w.Key("decompose_calls").UInt(c.decompose_calls);
  w.Key("decompose_cache_hits").UInt(c.decompose_cache_hits);
  w.Key("edge_index_builds").UInt(c.edge_index_builds);
  w.Key("triangle_index_builds").UInt(c.triangle_index_builds);
  w.Key("core_arena_builds").UInt(c.core_arena_builds);
  w.Key("truss_arena_builds").UInt(c.truss_arena_builds);
  w.Key("nucleus34_arena_builds").UInt(c.nucleus34_arena_builds);
  w.Key("hierarchy_builds").UInt(c.hierarchy_builds);
  w.Key("hierarchy_repairs").UInt(c.hierarchy_repairs);
  w.Key("query_calls").UInt(c.query_calls);
  w.Key("commits").UInt(c.commits);
  w.Key("incremental_commits").UInt(c.incremental_commits);
  w.Key("compactions").UInt(c.compactions);
  w.Key("truss_kappa_seeds").UInt(c.truss_kappa_seeds);
  w.Key("nucleus34_kappa_seeds").UInt(c.nucleus34_kappa_seeds);
  w.Key("degraded_builds").UInt(c.degraded_builds);
  w.Key("compressed_builds").UInt(c.compressed_builds);
  w.Key("compressed_drops").UInt(c.compressed_drops);
  w.EndObject();
}

RequestClass ClassifyEndpoint(std::string_view endpoint) {
  if (endpoint == "query" || endpoint == "stats" || endpoint == "densest") {
    return RequestClass::kRead;
  }
  if (endpoint == "decompose" || endpoint == "hierarchy") {
    return RequestClass::kBuild;
  }
  if (endpoint == "update" || endpoint == "load" || endpoint == "unload") {
    return RequestClass::kUpdate;
  }
  // metricz, healthz, graphs — and unknown endpoints, whose NotFound is
  // cheap to produce.
  return RequestClass::kAdmin;
}

const char* RequestClassName(RequestClass cls) {
  switch (cls) {
    case RequestClass::kRead: return "read";
    case RequestClass::kBuild: return "build";
    case RequestClass::kUpdate: return "update";
    case RequestClass::kAdmin: return "admin";
  }
  return "?";
}

ServerCore::ServerCore(ServerConfig config)
    : config_(config),
      registry_(GraphRegistry::Config{config.global_memory_budget_bytes,
                                      config.default_arena_budget_bytes}) {
  const int workers = std::max(1, config_.workers);
  const ClassPolicy* policies[kNumRequestClasses] = {
      &config_.class_read, &config_.class_build, &config_.class_update,
      &config_.class_admin};
  for (int c = 0; c < kNumRequestClasses; ++c) {
    class_weight_[c] = std::max(1, policies[c]->weight);
    // Default caps: the whole pool, except updates — a commit flood that
    // occupied every worker would starve reads behind per-graph update_mu
    // convoys, so updates default to half the pool.
    const int auto_cap = static_cast<RequestClass>(c) == RequestClass::kUpdate
                             ? std::max(1, workers / 2)
                             : workers;
    class_limit_[c] = policies[c]->max_concurrency > 0
                          ? std::min(policies[c]->max_concurrency, workers)
                          : auto_cap;
  }
  // Pre-resolve every known endpoint's instruments; requests then bump
  // atomics without touching the registry mutex.
  static constexpr const char* kEndpoints[] = {
      "decompose", "query",  "hierarchy", "update",  "densest", "stats",
      "load",      "unload", "graphs",    "metricz", "healthz"};
  for (const char* ep : kEndpoints) {
    const std::string name(ep);
    endpoint_metrics_[name] = EndpointInstruments{
        &metrics_.Histogram("latency." + name),
        &metrics_.Counter("requests." + name),
        &metrics_.Counter("errors." + name)};
  }
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ServerCore::~ServerCore() { Shutdown(); }

void ServerCore::Shutdown() {
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    stopping_ = true;
  }
  // Fell every in-flight request; still-queued jobs see the fired parent
  // token the moment a worker pops them and complete as kCancelled.
  shutdown_cancel_.RequestCancel();
  queue_cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
}

std::size_t ServerCore::QueueDepth() const {
  std::lock_guard<std::mutex> lk(queue_mu_);
  return total_queued_;
}

std::size_t ServerCore::QueueDepth(RequestClass cls) const {
  std::lock_guard<std::mutex> lk(queue_mu_);
  return queues_[static_cast<int>(cls)].size();
}

int ServerCore::ActiveRequests(RequestClass cls) const {
  std::lock_guard<std::mutex> lk(queue_mu_);
  return class_active_[static_cast<int>(cls)];
}

namespace {

// The deadline covers the whole request — queue wait included — so it
// must be read before admission. A malformed body is left for the worker
// to diagnose (its error message carries the parse offset).
std::int64_t PreAdmissionDeadlineMs(const ServerRequest& request,
                                    std::int64_t default_deadline_ms) {
  std::int64_t deadline_ms = default_deadline_ms;
  if (!request.body.empty()) {
    auto parsed = JsonValue::Parse(request.body);
    if (parsed.ok()) {
      auto d = parsed->GetInt("deadline_ms", default_deadline_ms);
      if (d.ok()) deadline_ms = *d;
    }
  }
  return deadline_ms;
}

// A request's worker count, capped at the host's hardware threads: results
// do not depend on it, and the process-wide pool never shrinks, so an
// uncapped value would leave that many idle threads behind.
int ClampThreads(std::int64_t requested) {
  return static_cast<int>(
      std::clamp<std::int64_t>(requested, 1, HardwareThreads()));
}

}  // namespace

std::optional<ServerResponse> ServerCore::TryEnqueue(
    const std::shared_ptr<Job>& job) {
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    if (stopping_) {
      return ErrorResponse(Status::Cancelled("server shutting down"));
    }
    if (total_queued_ >= config_.queue_capacity) {
      metrics_.Counter("server.shed").Add();
      metrics_.Counter(std::string("server.shed.") +
                       RequestClassName(job->cls))
          .Add();
      return ErrorResponse(
          Status::ResourceExhausted("admission queue full (capacity " +
                                    std::to_string(config_.queue_capacity) +
                                    ")"));
    }
    queues_[static_cast<int>(job->cls)].push_back(job);
    ++total_queued_;
  }
  queue_cv_.notify_one();
  return std::nullopt;
}

ServerResponse ServerCore::Handle(const ServerRequest& request) {
  if (auto neg = NegativeLookup(request)) {
    BumpEndpointError(request.endpoint);
    return std::move(*neg);
  }
  const std::int64_t deadline_ms =
      PreAdmissionDeadlineMs(request, config_.default_deadline_ms);
  auto job = std::make_shared<Job>(&shutdown_cancel_);
  job->request = request;
  job->cls = ClassifyEndpoint(request.endpoint);
  job->deadline =
      deadline_ms > 0 ? Deadline::After(deadline_ms) : Deadline::Infinite();
  if (auto rejected = TryEnqueue(job)) return std::move(*rejected);

  std::unique_lock<std::mutex> jl(job->mu);
  if (job->deadline.IsInfinite()) {
    job->cv.wait(jl, [&] { return job->done; });
  } else if (!job->cv.wait_until(jl, job->deadline.when(),
                                 [&] { return job->done; })) {
    // Abandon: the caller stops waiting NOW; the fired token makes the
    // worker unwind (or skip the job entirely if still queued) instead of
    // computing for nobody. The job outlives us via shared_ptr.
    job->abandoned = true;
    jl.unlock();
    job->cancel.RequestCancel();
    metrics_.Counter("server.deadline_abandoned").Add();
    return ErrorResponse(
        Status::DeadlineExceeded("request deadline expired"));
  }
  return std::move(job->response);
}

void ServerCore::HandleAsync(const ServerRequest& request,
                             std::function<void(ServerResponse)> done) {
  if (auto neg = NegativeLookup(request)) {
    BumpEndpointError(request.endpoint);
    done(std::move(*neg));
    return;
  }
  const std::int64_t deadline_ms =
      PreAdmissionDeadlineMs(request, config_.default_deadline_ms);
  auto job = std::make_shared<Job>(&shutdown_cancel_);
  job->request = request;
  job->cls = ClassifyEndpoint(request.endpoint);
  job->deadline =
      deadline_ms > 0 ? Deadline::After(deadline_ms) : Deadline::Infinite();
  job->callback = std::move(done);
  if (auto rejected = TryEnqueue(job)) {
    job->callback(std::move(*rejected));
  }
}

int ServerCore::RunnableClassLocked() const {
  for (int c = 0; c < kNumRequestClasses; ++c) {
    if (!queues_[c].empty() && class_active_[c] < class_limit_[c]) return c;
  }
  return -1;
}

int ServerCore::PickClassLocked() {
  // Smooth weighted round-robin across runnable classes: every runnable
  // class earns its weight in credit, the richest runs and pays the round
  // back. Interleaving matches the weight ratios over any window, so a
  // build burst cannot monopolize dequeues while reads wait.
  int total = 0;
  int best = -1;
  for (int c = 0; c < kNumRequestClasses; ++c) {
    if (queues_[c].empty() || class_active_[c] >= class_limit_[c]) continue;
    wrr_credit_[c] += class_weight_[c];
    total += class_weight_[c];
    if (best < 0 || wrr_credit_[c] > wrr_credit_[best]) best = c;
  }
  if (best >= 0) wrr_credit_[best] -= total;
  return best;
}

void ServerCore::WorkerLoop() {
  for (;;) {
    std::shared_ptr<Job> job;
    int cls = -1;
    {
      std::unique_lock<std::mutex> lk(queue_mu_);
      queue_cv_.wait(lk,
                     [&] { return stopping_ || RunnableClassLocked() >= 0; });
      if (stopping_) {
        // Drain every queue ignoring caps: each popped job completes as
        // kCancelled immediately (the shutdown token already fired).
        for (int c = 0; c < kNumRequestClasses && cls < 0; ++c) {
          if (!queues_[c].empty()) cls = c;
        }
        if (cls < 0) return;  // drained
      } else {
        cls = PickClassLocked();
        if (cls < 0) continue;  // lost a race; re-wait
      }
      job = std::move(queues_[cls].front());
      queues_[cls].pop_front();
      --total_queued_;
      ++class_active_[cls];
    }
    active_.fetch_add(1, std::memory_order_relaxed);
    metrics_
        .Counter(std::string("queue.dequeued.") +
                 RequestClassName(static_cast<RequestClass>(cls)))
        .Add();
    ServerResponse resp;
    bool abandoned;
    {
      std::lock_guard<std::mutex> jl(job->mu);
      abandoned = job->abandoned;
    }
    if (abandoned) {
      metrics_.Counter("server.abandoned_skipped").Add();
      resp = ErrorResponse(Status::Cancelled("request abandoned by caller"));
    } else if (job->deadline.Expired()) {
      metrics_.Counter("server.expired_in_queue").Add();
      resp = ErrorResponse(
          Status::DeadlineExceeded("deadline expired while queued"));
    } else {
      const bool batch = config_.batch_nice > 0 &&
                         (cls == static_cast<int>(RequestClass::kBuild) ||
                          cls == static_cast<int>(RequestClass::kUpdate));
      const int restore_nice =
          batch ? LowerThreadPriority(config_.batch_nice) : 0;
      resp = HandleDirect(job->request,
                          RunControl(&job->cancel, job->deadline));
      if (batch) RestoreThreadPriority(restore_nice);
    }
    if (job->callback) {
      job->callback(std::move(resp));
    } else {
      {
        std::lock_guard<std::mutex> jl(job->mu);
        job->response = std::move(resp);
        job->done = true;
      }
      job->cv.notify_all();
    }
    active_.fetch_sub(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lk(queue_mu_);
      --class_active_[cls];
    }
    // A class-cap slot freed: more than one waiter may now be runnable.
    queue_cv_.notify_all();
  }
}

void ServerCore::RecordEndpointMetrics(const std::string& endpoint,
                                       double latency_ms, bool error) {
  const auto it = endpoint_metrics_.find(endpoint);
  if (it != endpoint_metrics_.end()) {
    it->second.latency->Record(latency_ms);
    it->second.requests->Add();
    if (error) it->second.errors->Add();
    return;
  }
  metrics_.Histogram("latency." + endpoint).Record(latency_ms);
  metrics_.Counter("requests." + endpoint).Add();
  if (error) metrics_.Counter("errors." + endpoint).Add();
}

void ServerCore::BumpEndpointError(const std::string& endpoint) {
  const auto it = endpoint_metrics_.find(endpoint);
  if (it != endpoint_metrics_.end()) {
    it->second.requests->Add();
    it->second.errors->Add();
    return;
  }
  metrics_.Counter("requests." + endpoint).Add();
  metrics_.Counter("errors." + endpoint).Add();
}

ServerResponse ServerCore::HandleDirect(const ServerRequest& request,
                                        RunControl ctl) {
  const auto t0 = std::chrono::steady_clock::now();
  ServerResponse resp = Dispatch(request, ctl, /*sink=*/nullptr);
  RecordEndpointMetrics(request.endpoint, ElapsedMs(t0), !resp.status.ok());
  return resp;
}

ServerResponse ServerCore::HandleStreaming(const ServerRequest& request,
                                           ChunkSink* sink, RunControl ctl) {
  const auto t0 = std::chrono::steady_clock::now();
  ServerResponse resp = Dispatch(request, ctl, sink);
  RecordEndpointMetrics(request.endpoint, ElapsedMs(t0), !resp.status.ok());
  return resp;
}

// ---------------------------------------------------------------------------
// Negative-result cache

std::optional<ServerResponse> ServerCore::NegativeLookup(
    const ServerRequest& request) {
  if (config_.negative_cache_ttl_ms <= 0) return std::nullopt;
  const std::string key = request.endpoint + '\n' + request.body;
  std::lock_guard<std::mutex> lk(negative_mu_);
  const auto it = negative_cache_.find(key);
  if (it == negative_cache_.end()) return std::nullopt;
  if (std::chrono::steady_clock::now() >= it->second.expires) {
    negative_cache_.erase(it);
    return std::nullopt;
  }
  metrics_.Counter("negcache.hits").Add();
  return it->second.response;
}

void ServerCore::MaybeNegativeStore(const ServerRequest& request,
                                    const ServerResponse& response) {
  if (config_.negative_cache_ttl_ms <= 0 || response.streamed) return;
  // Only failures that are deterministic for a fixed server state: a bad
  // graph name or malformed options will fail identically until a load /
  // update changes the world (which clears the cache) or the TTL runs out.
  const StatusCode code = response.status.code();
  if (code != StatusCode::kInvalidArgument && code != StatusCode::kNotFound) {
    return;
  }
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lk(negative_mu_);
  if (negative_cache_.size() >= kNegativeCacheCap) {
    for (auto it = negative_cache_.begin(); it != negative_cache_.end();) {
      it = it->second.expires <= now ? negative_cache_.erase(it)
                                     : std::next(it);
    }
    if (negative_cache_.size() >= kNegativeCacheCap) {
      negative_cache_.erase(negative_cache_.begin());
    }
  }
  negative_cache_[request.endpoint + '\n' + request.body] = NegativeEntry{
      response,
      now + std::chrono::milliseconds(config_.negative_cache_ttl_ms)};
  metrics_.Counter("negcache.stores").Add();
}

void ServerCore::ClearNegativeCache() {
  std::lock_guard<std::mutex> lk(negative_mu_);
  negative_cache_.clear();
}

ServerResponse ServerCore::Dispatch(const ServerRequest& request,
                                    RunControl ctl, ChunkSink* sink) {
  if (auto neg = NegativeLookup(request)) return std::move(*neg);
  ServerResponse resp = DispatchUncached(request, ctl, sink);
  MaybeNegativeStore(request, resp);
  return resp;
}

ServerResponse ServerCore::DispatchUncached(const ServerRequest& request,
                                            RunControl ctl, ChunkSink* sink) {
  JsonValue body;
  if (!request.body.empty()) {
    auto parsed = JsonValue::Parse(request.body);
    if (!parsed.ok()) return ErrorResponse(parsed.status());
    body = std::move(parsed).value();
  }
  if (!ctl.CanStop()) {
    // Direct callers (tests, bench, streaming connections) still honor the
    // body deadline and the server-wide shutdown token.
    auto deadline_ms = body.GetInt("deadline_ms", config_.default_deadline_ms);
    ctl = MakeRunControl(&shutdown_cancel_,
                         deadline_ms.ok() ? *deadline_ms : 0);
  }
  if (ctl.ShouldStop()) return ErrorResponse(ctl.StopStatus());

  const std::string& ep = request.endpoint;
  if (ep == "decompose") return HandleDecompose(body, ctl);
  if (ep == "query") return HandleQuery(body, ctl);
  if (ep == "hierarchy") return HandleHierarchy(body, ctl, sink);
  if (ep == "update") return HandleUpdate(body, ctl);
  if (ep == "densest") return HandleDensest(body);
  if (ep == "stats") return HandleStats(body);
  if (ep == "load") return HandleLoad(body);
  if (ep == "unload") return HandleUnload(body);
  if (ep == "graphs") return HandleGraphs();
  if (ep == "metricz") return ServerResponse{Status::Ok(), MetricsJson()};
  if (ep == "healthz") return HandleHealthz();
  return ErrorResponse(Status::NotFound("unknown endpoint: " + ep));
}

// ---------------------------------------------------------------------------
// Coalescing

ServerResponse ServerCore::Coalesced(
    const std::string& key, const std::string& raw_sig, RunControl ctl,
    const std::function<ServerResponse()>& run) {
  std::shared_ptr<Flight> flight;
  bool leader = false;
  bool norm_hit = false;
  {
    std::lock_guard<std::mutex> lk(flights_mu_);
    auto& slot = flights_[key];
    if (!slot) {
      slot = std::make_shared<Flight>();
      slot->raw_sig = raw_sig;
      leader = true;
    } else {
      ++slot->riders;
      // The rider joined through the canonical key even though its raw
      // option spelling differs from the leader's — normalization earned
      // this coalesce.
      norm_hit = slot->raw_sig != raw_sig;
    }
    flight = slot;
  }
  if (norm_hit) metrics_.Counter("coalesce.norm_hits").Add();
  if (leader) {
    ServerResponse resp = run();
    int riders;
    {
      // Erase BEFORE publishing done: after this no new rider can join,
      // so the rider count is final and later identical requests start a
      // fresh flight (they would otherwise reuse a stale response).
      std::lock_guard<std::mutex> lk(flights_mu_);
      riders = flight->riders;
      flights_.erase(key);
    }
    if (riders == 0) return resp;  // nobody waits: skip copying the body
    metrics_.Counter("coalesce.builds").Add();
    metrics_.Counter("coalesce.riders").Add(static_cast<std::uint64_t>(riders));
    {
      std::lock_guard<std::mutex> fl(flight->mu);
      flight->response = resp;
      flight->done = true;
    }
    flight->cv.notify_all();
    return resp;
  }
  // Rider: wait for the leader, but keep honoring this request's own
  // deadline/cancellation — a rider gives up individually without
  // affecting the leader or the other riders.
  std::unique_lock<std::mutex> fl(flight->mu);
  while (!flight->done) {
    if (ctl.ShouldStop()) return ErrorResponse(ctl.StopStatus());
    flight->cv.wait_for(fl, std::chrono::milliseconds(ctl.CanStop() ? 10 : 500));
  }
  return flight->response;
}

// ---------------------------------------------------------------------------
// Endpoints

ServerResponse ServerCore::HandleDecompose(const JsonValue& body,
                                           RunControl ctl) {
  auto target = ResolveTarget(registry_, body, /*needs_kind=*/true);
  if (!target.ok()) return ErrorResponse(target.status());
  auto entry = target->entry;
  const DecompositionKind kind = target->kind;

  auto method_name = body.GetString("method", "and");
  if (!method_name.ok()) return ErrorResponse(method_name.status());
  auto method = ParseMethodName(*method_name);
  if (!method.ok()) return ErrorResponse(method.status());
  auto threads = body.GetInt("threads", 1);
  if (!threads.ok()) return ErrorResponse(threads.status());
  auto max_iterations = body.GetInt("max_iterations", 0);
  if (!max_iterations.ok()) return ErrorResponse(max_iterations.status());
  auto include_kappa = body.GetBool("include_kappa", false);
  if (!include_kappa.ok()) return ErrorResponse(include_kappa.status());
  auto no_cache = body.GetBool("no_cache", false);
  if (!no_cache.ok()) return ErrorResponse(no_cache.status());
  auto materialize_name = body.GetString("materialize", config_.default_materialize);
  if (!materialize_name.ok()) return ErrorResponse(materialize_name.status());
  auto materialize = ParseMaterializeName(*materialize_name);
  if (!materialize.ok()) return ErrorResponse(materialize.status());

  DecomposeOptions options;
  options.method = *method;
  options.threads = ClampThreads(*threads);
  options.max_iterations =
      static_cast<int>(std::max<std::int64_t>(0, *max_iterations));
  options.materialize = *materialize;
  options.materialize_budget_bytes = entry->arena_budget_bytes;
  options.use_result_cache = !*no_cache;
  ApplyControl(ctl, &options);

  // Responses carry the canonical method spelling, so a rider that asked
  // for an alias gets the same bytes the leader produced.
  const std::string canonical_method = CanonicalMethodName(*method);
  auto run = [this, entry, kind, options,
              method_name = canonical_method,
              include_kappa = *include_kappa]() -> ServerResponse {
    // An include_kappa read holds graph_mu shared from the session call
    // through the slot lookup (and the admission encode), so the envelope
    // and a spliced fragment come from one epoch, and a concurrent commit
    // cannot clear the slot between the two.
    std::shared_lock<std::shared_mutex> gl(entry->graph_mu, std::defer_lock);
    if (include_kappa) gl.lock();
    auto result = entry->session.Decompose(kind, options);
    if (!result.ok()) return ErrorResponse(result.status());
    metrics_
        .Counter(result->served_from_cache ? "decompose.cache_hits"
                                           : "decompose.cache_misses")
        .Add();
    // Only the exact kappa of a cached-path read is epoch-invariant:
    // truncated tau and forced fresh runs neither read nor fill the slot.
    std::shared_ptr<const std::string> fragment;
    if (include_kappa && options.use_result_cache && result->exact) {
      bool admit = false;
      fragment = entry->FindKappa(kind, result->epoch, &admit);
      metrics_
          .Counter(fragment != nullptr ? "decompose.kappa_fragment_hits"
                                       : "decompose.kappa_fragment_misses")
          .Add();
      if (admit) {
        fragment = EncodeKappa(result->kappa);
        entry->AdmitKappa(kind, result->epoch, fragment);
      }
    }
    if (gl.owns_lock()) gl.unlock();
    Degree max_kappa = 0;
    for (const Degree k : result->kappa) max_kappa = std::max(max_kappa, k);
    JsonWriter w;
    if (fragment != nullptr) {
      w.Reserve(fragment->size() + entry->name.size() + kEnvelopeBytes);
    }
    w.BeginObject()
        .Key("graph")
        .String(entry->name)
        .Key("kind")
        .String(KindName(kind))
        .Key("method")
        .String(method_name)
        .Key("num_r_cliques")
        .UInt(result->num_r_cliques)
        .Key("max_kappa")
        .UInt(max_kappa)
        .Key("iterations")
        .Int(result->iterations)
        .Key("exact")
        .Bool(result->exact)
        .Key("served_from_cache")
        .Bool(result->served_from_cache)
        .Key("seconds")
        .Double(result->seconds)
        .Key("index_seconds")
        .Double(result->index_seconds)
        .Key("arena_seconds")
        .Double(result->arena_seconds);
    if (fragment != nullptr) {
      w.Key("kappa").Raw(*fragment);
    } else if (include_kappa) {
      w.Key("kappa").BeginArray();
      for (const Degree k : result->kappa) w.UInt(k);
      w.EndArray();
    }
    w.EndObject();
    registry_.EnforceBudget();
    return OkResponse(std::move(w));
  };

  if (*no_cache) return run();  // forced fresh runs never share a flight
  // The key is the canonical option tuple: method aliases collapse to one
  // spelling, defaulted fields equal their explicit forms (the key is
  // built from parsed values), and the thread count and materialize mode
  // are excluded — neither can change the result (kappa is identical
  // across representations), only how fast the leader produces it.
  const std::string key = "d|" + entry->name + "|" + KindName(kind) + "|" +
                          canonical_method + "|" +
                          std::to_string(options.max_iterations) +
                          (*include_kappa ? "|k" : "");
  const std::string raw_sig =
      *method_name + "|" + std::to_string(*threads);
  return Coalesced(key, raw_sig, ctl, run);
}

ServerResponse ServerCore::HandleQuery(const JsonValue& body, RunControl ctl) {
  auto target = ResolveTarget(registry_, body, /*needs_kind=*/true);
  if (!target.ok()) return ErrorResponse(target.status());
  auto ids = body.GetIntList("ids");
  if (!ids.ok()) return ErrorResponse(ids.status());
  if (ids->empty()) {
    return ErrorResponse(
        Status::InvalidArgument("missing required field 'ids'"));
  }
  auto radius = body.GetInt("radius", 2);
  if (!radius.ok()) return ErrorResponse(radius.status());
  auto max_iterations = body.GetInt("max_iterations", 0);
  if (!max_iterations.ok()) return ErrorResponse(max_iterations.status());
  auto threads = body.GetInt("threads", 1);
  if (!threads.ok()) return ErrorResponse(threads.status());

  std::vector<CliqueId> queries;
  queries.reserve(ids->size());
  for (const std::int64_t id : *ids) {
    if (id < 0 || id > static_cast<std::int64_t>(kInvalidClique)) {
      return ErrorResponse(Status::InvalidArgument(
          "query id out of range: " + std::to_string(id)));
    }
    queries.push_back(static_cast<CliqueId>(id));
  }
  QueryOptions options;
  options.radius = static_cast<int>(std::max<std::int64_t>(0, *radius));
  options.max_iterations =
      static_cast<int>(std::max<std::int64_t>(0, *max_iterations));
  options.threads = ClampThreads(*threads);
  auto estimate = target->entry->session.EstimateQueries(
      target->kind, queries, options, ctl);
  if (!estimate.ok()) return ErrorResponse(estimate.status());
  JsonWriter w;
  w.BeginObject()
      .Key("graph")
      .String(target->entry->name)
      .Key("kind")
      .String(KindName(target->kind))
      .Key("estimates")
      .BeginArray();
  for (const Degree e : estimate->estimates) w.UInt(e);
  w.EndArray()
      .Key("region_size")
      .UInt(estimate->region_size)
      .Key("iterations")
      .Int(estimate->iterations)
      .Key("converged")
      .Bool(estimate->converged)
      .EndObject();
  return OkResponse(std::move(w));
}

ServerResponse ServerCore::HandleHierarchy(const JsonValue& body,
                                           RunControl ctl, ChunkSink* sink) {
  auto target = ResolveTarget(registry_, body, /*needs_kind=*/true);
  if (!target.ok()) return ErrorResponse(target.status());
  auto entry = target->entry;
  const DecompositionKind kind = target->kind;
  auto threads = body.GetInt("threads", 1);
  if (!threads.ok()) return ErrorResponse(threads.status());
  auto materialize_name = body.GetString("materialize", config_.default_materialize);
  if (!materialize_name.ok()) return ErrorResponse(materialize_name.status());
  auto materialize = ParseMaterializeName(*materialize_name);
  if (!materialize.ok()) return ErrorResponse(materialize.status());

  DecomposeOptions options;
  options.threads = ClampThreads(*threads);
  options.materialize = *materialize;
  options.materialize_budget_bytes = entry->arena_budget_bytes;
  ApplyControl(ctl, &options);

  if (sink != nullptr) {
    // Streamed dump: one JSON document per line (NDJSON) — a header, then
    // every node. graph_mu held shared pins the hierarchy pointer against
    // a concurrent commit for as long as the stream runs.
    std::shared_lock<std::shared_mutex> gl(entry->graph_mu);
    auto hierarchy = entry->session.Hierarchy(kind, options);
    if (!hierarchy.ok()) return ErrorResponse(hierarchy.status());
    const NucleusHierarchy& h = **hierarchy;
    // One writer encodes every line straight into the chunk buffer.
    JsonWriter w;
    w.BeginObject()
        .Key("graph")
        .String(entry->name)
        .Key("kind")
        .String(KindName(kind))
        .Key("nodes")
        .UInt(h.nodes.size())
        .Key("roots")
        .UInt(h.roots.size())
        .Key("depth")
        .UInt(h.Depth())
        .EndObject()
        .EndLine();
    for (std::size_t i = 0; i < h.nodes.size(); ++i) {
      const NucleusHierarchy::Node& node = h.nodes[i];
      w.BeginObject()
          .Key("id")
          .UInt(i)
          .Key("k")
          .UInt(node.k)
          .Key("parent")
          .Int(node.parent)
          .Key("size")
          .UInt(node.size)
          .Key("new_members")
          .BeginArray();
      for (const CliqueId m : node.new_members) w.UInt(m);
      w.EndArray().EndObject().EndLine();
      if (w.str().size() >= kStreamChunkBytes) {
        if (!sink->Write(w.str())) {
          return ServerResponse{
              Status::Cancelled("client disconnected mid-stream"), "", true};
        }
        w.Clear();
        if (ctl.ShouldStop()) {
          return ServerResponse{ctl.StopStatus(), "", true};
        }
      }
    }
    if (!w.str().empty() && !sink->Write(w.str())) {
      return ServerResponse{
          Status::Cancelled("client disconnected mid-stream"), "", true};
    }
    return ServerResponse{Status::Ok(), "", true};
  }

  // Non-streamed: a summary of the forest (the dump has its own streamed
  // endpoint); coalesced so N cold requests cost one build.
  auto run = [this, entry, kind, options]() -> ServerResponse {
    std::shared_lock<std::shared_mutex> gl(entry->graph_mu);
    auto hierarchy = entry->session.Hierarchy(kind, options);
    if (!hierarchy.ok()) return ErrorResponse(hierarchy.status());
    const NucleusHierarchy& h = **hierarchy;
    Degree max_k = 0;
    std::size_t leaves = 0;
    for (const NucleusHierarchy::Node& node : h.nodes) {
      max_k = std::max(max_k, node.k);
      if (node.children.empty()) ++leaves;
    }
    JsonWriter w;
    w.BeginObject()
        .Key("graph")
        .String(entry->name)
        .Key("kind")
        .String(KindName(kind))
        .Key("nodes")
        .UInt(h.nodes.size())
        .Key("roots")
        .UInt(h.roots.size())
        .Key("leaves")
        .UInt(leaves)
        .Key("depth")
        .UInt(h.Depth())
        .Key("max_k")
        .UInt(max_k)
        .EndObject();
    registry_.EnforceBudget();
    return OkResponse(std::move(w));
  };
  return Coalesced("h|" + entry->name + "|" + KindName(kind),
                   std::to_string(*threads), ctl, run);
}

ServerResponse ServerCore::HandleUpdate(const JsonValue& body,
                                        RunControl ctl) {
  auto target = ResolveTarget(registry_, body, /*needs_kind=*/false);
  if (!target.ok()) return ErrorResponse(target.status());
  auto entry = target->entry;
  auto insert = body.GetPairList("insert");
  if (!insert.ok()) return ErrorResponse(insert.status());
  auto remove = body.GetPairList("remove");
  if (!remove.ok()) return ErrorResponse(remove.status());

  const std::int64_t max_id =
      static_cast<std::int64_t>(entry->session.graph().NumVertices()) - 1;
  for (const auto* list : {&*insert, &*remove}) {
    for (const auto& [u, v] : *list) {
      if (u < 0 || v < 0 || u > max_id || v > max_id) {
        return ErrorResponse(Status::InvalidArgument(
            "edge endpoint out of range: [" + std::to_string(u) + ", " +
            std::to_string(v) + "] (graph has " +
            std::to_string(max_id + 1) + " vertices)"));
      }
    }
  }

  // update_mu serializes whole batches (a second concurrent batch would
  // commit as stale); the exclusive graph_mu around Commit keeps it from
  // invalidating references a streaming/densest reader still holds, and
  // from leaving an encoded kappa of the old graph in the entry.
  std::lock_guard<std::mutex> ul(entry->update_mu);
  auto batch = entry->session.BeginUpdates();
  std::size_t inserted = 0;
  std::size_t removed = 0;
  for (const auto& [u, v] : *insert) {
    inserted += batch.InsertEdge(static_cast<VertexId>(u),
                                 static_cast<VertexId>(v))
                    ? 1
                    : 0;
  }
  for (const auto& [u, v] : *remove) {
    removed += batch.RemoveEdge(static_cast<VertexId>(u),
                                static_cast<VertexId>(v))
                   ? 1
                   : 0;
  }
  const std::size_t mutations = batch.NumMutations();
  Status commit;
  {
    std::unique_lock<std::shared_mutex> gl(entry->graph_mu);
    commit = batch.Commit(ctl);
    if (commit.ok()) entry->ClearKappa();
  }
  if (!commit.ok()) return ErrorResponse(commit);
  // The vertex set is fixed (out-of-range endpoints are rejected), but a
  // query id rejected before the commit may now name a born edge or
  // triangle — cached rejections are stale now.
  ClearNegativeCache();
  JsonWriter w;
  w.BeginObject()
      .Key("graph")
      .String(entry->name)
      .Key("inserted")
      .UInt(inserted)
      .Key("removed")
      .UInt(removed)
      .Key("mutations")
      .UInt(mutations)
      .Key("num_vertices")
      .UInt(entry->session.graph().NumVertices())
      .Key("num_edges")
      .UInt(entry->session.graph().NumEdges())
      .EndObject();
  registry_.EnforceBudget();
  return OkResponse(std::move(w));
}

ServerResponse ServerCore::HandleDensest(const JsonValue& body) {
  auto target = ResolveTarget(registry_, body, /*needs_kind=*/false);
  if (!target.ok()) return ErrorResponse(target.status());
  auto entry = target->entry;
  auto mode = body.GetString("mode", "edge");
  if (!mode.ok()) return ErrorResponse(mode.status());

  // The densest peels run against the raw graph reference; shared graph_mu
  // keeps a concurrent commit from swapping it mid-scan.
  std::shared_lock<std::shared_mutex> gl(entry->graph_mu);
  JsonWriter w;
  if (*mode == "edge") {
    const DensestSubgraphResult r =
        ApproxDensestSubgraph(entry->session.graph());
    w.BeginObject()
        .Key("graph")
        .String(entry->name)
        .Key("mode")
        .String("edge")
        .Key("num_vertices")
        .UInt(r.vertices.size())
        .Key("num_edges")
        .UInt(r.num_edges)
        .Key("avg_degree_density")
        .Double(r.avg_degree_density)
        .Key("edge_density")
        .Double(r.edge_density)
        .Key("vertices")
        .BeginArray();
    for (const VertexId v : r.vertices) w.UInt(v);
    w.EndArray().EndObject();
  } else if (*mode == "triangle") {
    const TriangleDensestResult r =
        ApproxTriangleDensestSubgraph(entry->session.graph());
    w.BeginObject()
        .Key("graph")
        .String(entry->name)
        .Key("mode")
        .String("triangle")
        .Key("num_vertices")
        .UInt(r.vertices.size())
        .Key("num_triangles")
        .UInt(r.num_triangles)
        .Key("triangle_density")
        .Double(r.triangle_density)
        .Key("vertices")
        .BeginArray();
    for (const VertexId v : r.vertices) w.UInt(v);
    w.EndArray().EndObject();
  } else {
    return ErrorResponse(Status::InvalidArgument(
        "unknown mode '" + *mode + "' (want edge | triangle)"));
  }
  return OkResponse(std::move(w));
}

ServerResponse ServerCore::HandleStats(const JsonValue& body) {
  auto target = ResolveTarget(registry_, body, /*needs_kind=*/false);
  if (!target.ok()) return ErrorResponse(target.status());
  const SessionStateStats s = target->entry->session.Stats();
  JsonWriter w;
  w.BeginObject().Key("graph").String(target->entry->name);
  WriteSessionStats(w, s);
  w.EndObject();
  return OkResponse(std::move(w));
}

ServerResponse ServerCore::HandleLoad(const JsonValue& body) {
  auto name = body.GetString("name");
  if (!name.ok()) return ErrorResponse(name.status());
  auto path = body.GetString("path");
  if (!path.ok()) return ErrorResponse(path.status());
  if (name->empty() || path->empty()) {
    return ErrorResponse(Status::InvalidArgument(
        "load requires both 'name' and 'path'"));
  }
  auto arena_mb = body.GetInt("arena_budget_mb", 0);
  if (!arena_mb.ok()) return ErrorResponse(arena_mb.status());
  auto entry = registry_.Load(
      *name, *path,
      static_cast<std::uint64_t>(std::max<std::int64_t>(0, *arena_mb)) << 20);
  if (!entry.ok()) return ErrorResponse(entry.status());
  // The graph exists now — cached NotFounds for its name are stale.
  ClearNegativeCache();
  JsonWriter w;
  w.BeginObject()
      .Key("name")
      .String(*name)
      .Key("num_vertices")
      .UInt((*entry)->session.graph().NumVertices())
      .Key("num_edges")
      .UInt((*entry)->session.graph().NumEdges())
      .EndObject();
  return OkResponse(std::move(w));
}

ServerResponse ServerCore::HandleUnload(const JsonValue& body) {
  auto name = body.GetString("name");
  if (!name.ok()) return ErrorResponse(name.status());
  if (name->empty()) {
    return ErrorResponse(
        Status::InvalidArgument("missing required field 'name'"));
  }
  if (Status s = registry_.Evict(*name); !s.ok()) return ErrorResponse(s);
  ClearNegativeCache();
  JsonWriter w;
  w.BeginObject().Key("evicted").String(*name).EndObject();
  return OkResponse(std::move(w));
}

ServerResponse ServerCore::HandleGraphs() {
  JsonWriter w;
  w.BeginObject().Key("graphs").BeginArray();
  for (const auto& entry : registry_.List()) {
    w.BeginObject()
        .Key("name")
        .String(entry->name)
        .Key("num_vertices")
        .UInt(entry->session.graph().NumVertices())
        .Key("num_edges")
        .UInt(entry->session.graph().NumEdges())
        .Key("total_bytes")
        .UInt(entry->FootprintBytes())
        .EndObject();
  }
  w.EndArray().EndObject();
  return OkResponse(std::move(w));
}

ServerResponse ServerCore::HandleHealthz() {
  JsonWriter w;
  w.BeginObject()
      .Key("ok")
      .Bool(true)
      .Key("graphs")
      .UInt(registry_.NumResident())
      .Key("workers")
      .UInt(workers_.size())
      .EndObject();
  return OkResponse(std::move(w));
}

std::string ServerCore::MetricsJson() {
  JsonWriter w;
  w.BeginObject();

  w.Key("counters").BeginObject();
  for (const auto& [name, value] : metrics_.CounterValues()) {
    w.Key(name).UInt(value);
  }
  w.EndObject();

  w.Key("latency_ms").BeginObject();
  for (const auto& [name, snap] : metrics_.HistogramValues()) {
    w.Key(name)
        .BeginObject()
        .Key("count")
        .UInt(snap.count)
        .Key("mean")
        .Double(snap.MeanMs())
        .Key("p50")
        .Double(snap.QuantileMs(0.5))
        .Key("p99")
        .Double(snap.QuantileMs(0.99))
        .Key("max")
        .Double(snap.max_ms)
        .EndObject();
  }
  w.EndObject();

  w.Key("queue")
      .BeginObject()
      .Key("workers")
      .UInt(workers_.size())
      .Key("capacity")
      .UInt(config_.queue_capacity)
      .Key("depth")
      .UInt(QueueDepth())
      .Key("active")
      .Int(active_.load());
  w.Key("classes").BeginObject();
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    for (int c = 0; c < kNumRequestClasses; ++c) {
      w.Key(RequestClassName(static_cast<RequestClass>(c)))
          .BeginObject()
          .Key("depth")
          .UInt(queues_[c].size())
          .Key("active")
          .Int(class_active_[c])
          .Key("limit")
          .Int(class_limit_[c])
          .Key("weight")
          .Int(class_weight_[c])
          .EndObject();
    }
  }
  w.EndObject();
  w.EndObject();

  w.Key("registry").BeginObject();
  w.Key("resident").UInt(registry_.NumResident());
  w.Key("evictions").UInt(registry_.Evictions());
  w.Key("global_budget_bytes").UInt(registry_.config().global_budget_bytes);
  std::uint64_t total = 0;
  std::uint64_t fragment_total = 0;
  w.Key("graphs").BeginArray();
  for (const auto& entry : registry_.List()) {
    const SessionStateStats s = entry->session.Stats();
    const std::uint64_t fragment_bytes = entry->KappaFragmentBytes();
    total += s.TotalBytes() + fragment_bytes;
    fragment_total += fragment_bytes;
    w.BeginObject().Key("name").String(entry->name);
    WriteSessionStats(w, s);
    w.Key("kappa_fragment_bytes").UInt(fragment_bytes);
    w.EndObject();
  }
  w.EndArray();
  w.Key("kappa_fragment_bytes").UInt(fragment_total);
  w.Key("total_bytes").UInt(total);
  w.EndObject();

  w.EndObject();
  return w.Take();
}

}  // namespace nucleus
