#include "perfbench/harness/workloads.h"

#include <poll.h>

#include <algorithm>
#include <array>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string_view>

#include "perfbench/harness/client.h"
#include "perfbench/harness/common.h"
#include "src/clique/csr_space.h"
#include "src/clique/delta.h"
#include "src/clique/edge_index.h"
#include "src/clique/spaces.h"
#include "src/clique/triangles.h"
#include "src/core/session.h"
#include "src/graph/io.h"
#include "src/local/and.h"
#include "src/local/query.h"
#include "src/peel/hierarchy.h"
#include "src/server/reactor.h"
#include "src/server/server_core.h"

namespace perfbench {

namespace {

using nucleus::DecompositionKind;

// Thread budget: two engine threads, one reactor loop, two queue workers
// and the single client thread.
constexpr int kEngineThreads = 2;
constexpr int kWorkers = 2;
constexpr int kLoops = 1;
// Set-ups cheaper than this are repeated (up to kMaxSetupReps) and their
// median reported, so setup_s is never a single sub-second timing.
constexpr double kSetupRepeatBelowMs = 2000;
constexpr int kMaxSetupReps = 9;
// A traced run's directly measured layer spans must account for the
// untraced op time: the time they leave unattributed may be at most this
// share of it, either way. Separate untraced and traced phases of one run
// differed by up to 12% either way from host noise alone; traced runs now
// interleave the two, but the tolerance still leaves room for that.
constexpr double kUnattributedTolerance = 0.25;
// Below this untraced op time (the self-test's tiny graph) a loopback round
// trip's fixed cost alone exceeds the tolerance; the share is then printed
// but not enforced.
constexpr double kMinAccountedOpMs = 2.0;
// Untimed toggle cycles at the end of churn_commits' set-up, and toggle
// cycles a traced run replays layer by layer.
constexpr int kChurnWarmupCycles = 2;
// A traced served_reads run alternates this many untraced and traced read
// loops, each traced loop followed by one replay of every read type.
constexpr int kServedTraceRounds = 5;

const char* const kWorkloads[] = {"cold_decompose", "served_reads",
                                  "churn_commits", "local_queries"};
const char* const kKindNames[] = {"core", "truss", "nucleus34"};

// ---------------------------------------------------------------------------
// Per-layer metrics, each with the end-to-end metric (and workload) it
// should move. Every traced run reports all of them; a layer a workload
// does not exercise reads 0 there.

struct LayerMetric {
  std::string name;
  std::string unit;
  std::string moves;
};

std::vector<LayerMetric> LayerMetrics() {
  std::vector<LayerMetric> m = {
      {"graph.load_ms", "ms", "setup_s on every workload"},
      {"clique.edge_index_ms", "ms", "truss_cold_ms (cold_decompose)"},
      {"clique.triangle_index_ms", "ms",
       "n34_cold_ms (cold_decompose); setup_s (local_queries)"},
      {"clique.truss_arena_ms", "ms", "truss_cold_ms (cold_decompose)"},
      {"clique.n34_arena_ms", "ms", "n34_cold_ms (cold_decompose)"},
      {"clique.truss_arena_mb", "MB", "heap_mb (cold_decompose, served_reads)"},
      {"clique.n34_arena_mb", "MB", "heap_mb (cold_decompose, served_reads)"},
      {"clique.delta_ms", "ms", "toggle_cycle_ms (churn_commits)"},
      {"clique.delta_triangles", "count", "toggle_cycle_ms (churn_commits)"},
      {"clique.delta_4cliques", "count", "toggle_cycle_ms (churn_commits)"},
      {"local.truss_and_ms", "ms", "truss_cold_ms (cold_decompose)"},
      {"local.n34_and_ms", "ms", "n34_cold_ms (cold_decompose)"},
      {"local.truss_and_iterations", "count", "truss_cold_ms (cold_decompose)"},
      {"local.n34_and_iterations", "count", "n34_cold_ms (cold_decompose)"},
      {"local.truss_and_iterations_spread", "count", "truss_cold_ms (cold_decompose)"},
      {"local.n34_and_iterations_spread", "count", "n34_cold_ms (cold_decompose)"},
      {"local.truss_query_ms", "ms", "truss_query_p50_ms (local_queries)"},
      {"local.n34_query_ms", "ms", "traced (3,4) query only (local_queries)"},
      {"local.truss_query_region", "count", "truss_query_p50_ms (local_queries)"},
      {"local.n34_query_region", "count", "traced (3,4) query only (local_queries)"},
      {"local.maintain_remove_ms", "ms", "toggle_cycle_ms (churn_commits)"},
      {"local.maintain_insert_ms", "ms", "toggle_cycle_ms (churn_commits)"},
      {"local.n34_repair_work", "count", "toggle_cycle_ms (churn_commits)"},
      {"local.n34_repair_yield", "ratio", "toggle_cycle_ms (churn_commits)"},
      {"peel.truss_hierarchy_ms", "ms", "truss_cold_ms (cold_decompose)"},
      {"peel.n34_hierarchy_ms", "ms", "n34_hierarchy_ms (cold_decompose)"},
      {"peel.n34_hierarchy_nodes", "count", "n34_hierarchy_ms (cold_decompose)"},
      {"core.decompose_overhead_ms", "ms", "n34_cold_ms (cold_decompose)"},
      {"core.hierarchy_overhead_ms", "ms", "n34_hierarchy_ms (cold_decompose)"},
      {"core.begin_updates_ms", "ms", "toggle_cycle_ms (churn_commits)"},
      {"core.commit_ms", "ms", "toggle_cycle_ms (churn_commits)"},
      {"core.commit_residual_ms", "ms", "toggle_cycle_ms (churn_commits)"},
      {"core.cache_hit_ratio", "ratio",
       "summary_read_p50_ms (served_reads); post-commit reads (churn_commits)"},
      {"core.hierarchy_repairs_per_commit", "ratio", "toggle_cycle_ms (churn_commits)"},
  };
  const std::pair<const char*, const char*> types[] = {
      {"kappa", "kappa_read_p50_ms, read_p99_ms, reads_per_s (served_reads)"},
      {"stream", "stream_read_p50_ms, read_p99_ms, reads_per_s (served_reads)"},
      {"summary", "summary_read_p50_ms, reads_per_s (served_reads)"},
      {"update", "toggle_cycle_ms (churn_commits)"},
      {"query", "truss_query_p50_ms (local_queries)"}};
  for (const char* what : {"http_ms", "handle_ms", "direct_ms", "session_ms",
                           "response_kb", "transport_ms", "admission_ms",
                           "codec_ms"}) {
    for (const auto& [type, moves] : types) {
      const std::string w = what;
      m.push_back({"server." + w + "." + type,
                   w == "response_kb" ? "KB" : "ms", moves});
    }
  }
  return m;
}

// ---------------------------------------------------------------------------
// Small helpers.

struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Time spent checking outputs inside a measured loop; excluded from
  // ops_per_s.
  double check_ms = 0;

  void Count(bool ok, const std::string& why) {
    ++attempted;
    if (ok) return;
    if (++failed <= 5) std::fprintf(stderr, "perfbench: failed op: %s\n", why.c_str());
  }
};

template <typename F>
auto Timed(Tracer* t, const std::string& name, F&& f) {
  ScopedSpan span(t, name);
  return f();
}

void Line(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
void Line(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  std::vprintf(fmt, ap);
  va_end(ap);
  std::printf("\n");
  std::fflush(stdout);
}

bool FindNumber(std::string_view body, std::string_view key, double* out) {
  const std::string pat = "\"" + std::string(key) + "\":";
  const std::size_t p = body.find(pat);
  if (p == std::string_view::npos) return false;
  *out = std::strtod(body.data() + p + pat.size(), nullptr);
  return true;
}

bool FindTrue(std::string_view body, std::string_view key) {
  const std::string pat = "\"" + std::string(key) + "\":true";
  return body.find(pat) != std::string_view::npos;
}

// The "[...]" text of the named array field, or empty.
std::string_view ArrayField(std::string_view body, std::string_view key) {
  const std::string pat = "\"" + std::string(key) + "\":[";
  const std::size_t p = body.find(pat);
  if (p == std::string_view::npos) return {};
  const std::size_t end = body.find(']', p);
  if (end == std::string_view::npos) return {};
  return body.substr(p + pat.size() - 1, end - (p + pat.size() - 1) + 1);
}

bool ParseUInts(std::string_view arr, std::vector<std::uint32_t>* out) {
  out->clear();
  if (arr.empty()) return false;
  std::uint64_t cur = 0;
  bool in_num = false;
  for (const char c : arr.substr(1)) {
    if (c >= '0' && c <= '9') {
      cur = cur * 10 + static_cast<std::uint64_t>(c - '0');
      in_num = true;
    } else if (c == ',' || c == ']') {
      if (!in_num) return c == ']' && out->empty();
      out->push_back(static_cast<std::uint32_t>(cur));
      cur = 0;
      in_num = false;
    } else {
      return false;
    }
  }
  return true;
}

std::string Body(std::initializer_list<std::pair<const char*, std::string>> kv) {
  std::string s = "{";
  for (const auto& [k, v] : kv) {
    if (s.size() > 1) s += ",";
    s += "\"" + std::string(k) + "\":" + v;
  }
  return s + "}";
}

std::string Quote(const std::string& s) { return "\"" + s + "\""; }

// Checks kappa of `kind`, indexed by the session's current ids, against the
// reference keyed by vertex tuples.
bool CheckKappa(nucleus::NucleusSession& s, int kind,
                std::span<const std::uint32_t> kappa, const Inputs& in,
                std::string* why) {
  if (kind == 0) {
    if (std::equal(kappa.begin(), kappa.end(), in.ref_core.begin(), in.ref_core.end())) {
      return true;
    }
    *why = "core kappa differs from the reference";
    return false;
  }
  if (kind == 1) {
    const nucleus::EdgeIndex& e = s.Edges();
    return MatchesKeyed(in.ref_truss, kappa, [&](std::size_t id) -> std::uint64_t {
      const auto eid = static_cast<nucleus::EdgeId>(id);
      if (id >= e.NumEdges() || !e.IsLive(eid)) return UINT64_MAX;
      const auto [u, v] = e.Endpoints(eid);
      return EdgeKey(u, v);
    }, why);
  }
  const nucleus::TriangleIndex& t = s.Triangles();
  return MatchesKeyed(in.ref_n34, kappa, [&](std::size_t id) -> std::uint64_t {
    const auto tid = static_cast<nucleus::TriangleId>(id);
    if (id >= t.NumTriangles() || !t.IsLive(tid)) return UINT64_MAX;
    const auto& v = t.Vertices(tid);
    return TriangleKey(v[0], v[1], v[2]);
  }, why);
}

struct StringSink : nucleus::ChunkSink {
  std::string data;
  bool Write(std::string_view chunk) override {
    data.append(chunk);
    return true;
  }
};

std::size_t CountLines(const std::string& s) {
  return static_cast<std::size_t>(std::count(s.begin(), s.end(), '\n'));
}

// ---------------------------------------------------------------------------
// The in-process server: shipped ServerConfig defaults apart from the
// thread counts, reactor transport on a kernel-chosen loopback port.

class Server {
 public:
  Server() {
    nucleus::ServerConfig config;
    config.workers = kWorkers;
    core_ = std::make_unique<nucleus::ServerCore>(config);
    nucleus::ReactorConfig rc;
    rc.loops = kLoops;
    reactor_ = std::make_unique<nucleus::ReactorServer>(core_.get(), rc);
  }
  ~Server() {
    reactor_->Stop();
    core_->Shutdown();
  }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Starts the transport, connects the client and loads the graph; ready
  // when this returns (no polling).
  bool Start(const std::string& graph_path, int connections, Tracer* t) {
    if (!reactor_->Start().ok()) return false;
    conns_.clear();
    for (int i = 0; i < connections; ++i) {
      conns_.push_back(std::make_unique<HttpConn>());
      if (!conns_.back()->Connect(reactor_->port())) return false;
    }
    HttpResponse r;
    ScopedSpan span(t, "server.load");
    return Post("load", Body({{"name", Quote("g")}, {"path", Quote(graph_path)}}), &r) &&
           r.ok();
  }

  bool Post(const std::string& endpoint, const std::string& body, HttpResponse* r,
            int conn = 0) {
    return conns_[conn]->RoundTrip("POST", "/api/" + endpoint, body, r);
  }
  bool Get(const std::string& target, HttpResponse* r, int conn = 0) {
    return conns_[conn]->RoundTrip("GET", target, "", r);
  }

  HttpConn& conn(int i) { return *conns_[i]; }
  nucleus::ServerCore& core() { return *core_; }
  std::shared_ptr<nucleus::GraphRegistry::Entry> entry() {
    auto e = core_->registry().Get("g");
    return e.ok() ? *e : nullptr;
  }
  nucleus::NucleusSession& session() { return entry()->session; }

 private:
  std::unique_ptr<nucleus::ServerCore> core_;
  std::unique_ptr<nucleus::ReactorServer> reactor_;
  std::vector<std::unique_ptr<HttpConn>> conns_;
};

std::string DecomposeBody(int kind, bool include_kappa) {
  std::string b = "{\"graph\":\"g\",\"kind\":\"" + std::string(kKindNames[kind]) +
                  "\",\"threads\":" + std::to_string(kEngineThreads);
  if (include_kappa) b += ",\"include_kappa\":true";
  return b + "}";
}

std::string HierarchyBody(int kind) {
  return "{\"graph\":\"g\",\"kind\":\"" + std::string(kKindNames[kind]) +
         "\",\"threads\":" + std::to_string(kEngineThreads) + "}";
}

// Fetches include_kappa for `kind` over HTTP and checks it keyed.
bool CheckServedKappa(Server* server, int kind, const Inputs& in, std::string* why,
                      std::string* body_out = nullptr) {
  HttpResponse r;
  if (!server->Post("decompose", DecomposeBody(kind, true), &r) || !r.ok()) {
    *why = std::string("include_kappa request failed for ") + kKindNames[kind];
    return false;
  }
  std::vector<std::uint32_t> kappa;
  if (!ParseUInts(ArrayField(r.body, "kappa"), &kappa)) {
    *why = "unparsable kappa array";
    return false;
  }
  if (!CheckKappa(server->session(), kind, kappa, in, why)) return false;
  if (body_out != nullptr) *body_out = std::move(r.body);
  return true;
}

// Session counters as served by /api/stats.
struct Counters {
  double decompose_calls = 0, decompose_cache_hits = 0, hierarchy_builds = 0,
         hierarchy_repairs = 0, commits = 0, total_bytes = 0;
};

bool FetchCounters(Server* server, Counters* c) {
  HttpResponse r;
  if (!server->Get("/api/stats?graph=g", &r) || !r.ok()) return false;
  return FindNumber(r.body, "decompose_calls", &c->decompose_calls) &&
         FindNumber(r.body, "decompose_cache_hits", &c->decompose_cache_hits) &&
         FindNumber(r.body, "hierarchy_builds", &c->hierarchy_builds) &&
         FindNumber(r.body, "hierarchy_repairs", &c->hierarchy_repairs) &&
         FindNumber(r.body, "commits", &c->commits) &&
         FindNumber(r.body, "total_bytes", &c->total_bytes);
}

// The memory the session accounts for (SessionStateStats::TotalBytes, an
// estimate of its own), printed next to the measured heap.
double AccountedMb(Server* server) {
  Counters c;
  return FetchCounters(server, &c) ? c.total_bytes / (1 << 20) : 0;
}

// ---------------------------------------------------------------------------
// Output assembly shared by every workload.

struct Outcome {
  Ledger ledger;
  double setup_ms = 0;
  std::vector<double> op_ms;       // untraced op latencies
  // Latencies of the workload's primary op (empty: every op is primary)
  // and the resident set sampled after each op.
  std::vector<double> primary_ms;
  std::vector<double> rss_mb;
  // Heap in use at the end of the measured loop (on cold_decompose: at the
  // end of an op, its session alive), and what the session accounts for.
  double heap_mb = 0;
  double accounted_mb = 0;
  double loop_ms = 0;              // wall time of the untraced loop
  std::vector<Metric> named;       // the workload's own per-type figures
  // Traced runs only.
  std::vector<double> traced_op_ms;
  std::vector<double> traced_primary_ms;
  std::map<std::string, double> layer;  // per-layer metric values
  // Per-op accounting: (metric, weight) pairs, each metric a directly
  // measured span (never a difference of spans), disjoint pieces of one
  // op. Their weighted sum is compared with `account_against`, the untraced
  // op time statistic named in `account_label`; the rest is unattributed,
  // and `unattributed` says what it holds.
  std::vector<std::pair<std::string, double>> accounting;
  double account_against = 0;
  std::string account_label = "median";
  std::string unattributed;
};

RunResult Finish(const RunConfig& cfg, Outcome& o, Tracer& tracer) {
  RunResult r;
  const double busy_ms = std::max(o.loop_ms - o.ledger.check_ms, 1e-9);
  Line("workload %s seed %llu: %llu ops, %llu failed", cfg.workload.c_str(),
       static_cast<unsigned long long>(cfg.seed),
       static_cast<unsigned long long>(o.ledger.attempted),
       static_cast<unsigned long long>(o.ledger.failed));
  for (const Metric& m : o.named) {
    Line("  %-24s %12.3f %s", m.name.c_str(), m.value, m.unit.c_str());
  }
  const std::vector<double>& primary = o.primary_ms.empty() ? o.op_ms : o.primary_ms;
  Line("  primary op: %zu samples, p25 %.3f ms, p50 %.3f ms, p75 %.3f ms, max %.3f ms, mean %.3f ms",
       primary.size(), Quantile(primary, 0.25), Median(primary), Quantile(primary, 0.75),
       primary.empty() ? 0.0 : *std::max_element(primary.begin(), primary.end()), Mean(primary));
  if (!cfg.trace) {
    Line("  %-24s %12.3f MB", "peak_rss_mb", PeakRssMb());
    Line("  %-24s %12.3f MB (median after each op)", "rss_mb", Median(o.rss_mb));
    Line("  %-24s %12.3f MB (the session's own estimate)", "session_accounted_mb",
         o.accounted_mb);
    r.metrics = {
        {"setup_s", o.setup_ms / 1000.0, "s"},
        {"heap_mb", o.heap_mb, "MB"},
        {"primary_op_p50_ms", Median(primary), "ms"},
        {"ops_per_s", static_cast<double>(o.op_ms.size()) * 1000.0 / busy_ms, "1/s"},
    };
    for (const Metric& m : r.metrics) {
      Line("  %-24s %12.4f %s", m.name.c_str(), m.value, m.unit.c_str());
    }
    r.attempted = o.ledger.attempted;
    r.failed = o.ledger.failed;
    return r;
  }

  // Traced: every per-layer metric, the measured layer time next to the
  // untraced op time, and the tracing overhead on the primary op. Each
  // traced op ran right after the same op untraced.
  const std::vector<double>& traced_primary =
      o.traced_primary_ms.empty() ? o.traced_op_ms : o.traced_primary_ms;
  const double untraced = Median(primary);
  const double traced = Median(traced_primary);
  Line("trace: per-layer metrics (median per op; server.* per request)");
  for (const LayerMetric& m : LayerMetrics()) {
    const auto it = o.layer.find(m.name);
    const double v = it == o.layer.end() ? 0.0 : it->second;
    r.metrics.push_back({m.name, v, m.unit});
    if (it != o.layer.end()) {
      Line("  %-34s %12.3f %-5s -> %s", m.name.c_str(), v, m.unit.c_str(),
           m.moves.c_str());
    }
  }
  // The directly measured spans against the untraced op; what they leave
  // is unattributed, and it must stay within the tolerance, or the check
  // counts as a failed op.
  const auto share = [&](double ms) {
    return o.account_against > 0 ? 100.0 * ms / o.account_against : 0.0;
  };
  Line("trace: measured layer time per op vs untraced op (%s %.3f ms)",
       o.account_label.c_str(), o.account_against);
  double attributed = 0;
  for (const auto& [name, weight] : o.accounting) {
    const auto it = o.layer.find(name);
    const double v = (it == o.layer.end() ? 0.0 : it->second) * weight;
    attributed += v;
    Line("  %-34s x%-5.2f %12.3f ms  %6.1f%%", name.c_str(), weight, v, share(v));
  }
  const double unattributed = o.account_against - attributed;
  const bool within = std::abs(unattributed) <= kUnattributedTolerance * o.account_against;
  const bool enforced = o.account_against >= kMinAccountedOpMs;
  Line("  %-34s        %12.3f ms  %6.1f%%  (%s; tolerance +-%.0f%%: %s)", "unattributed",
       unattributed, share(unattributed), o.unattributed.c_str(),
       100 * kUnattributedTolerance,
       !enforced ? "op too short, not enforced" : within ? "within" : "OUTSIDE");
  if (enforced) {
    o.ledger.Count(within, "the traced layer spans leave more than the tolerance unattributed");
  }
  Line("trace: untraced primary op median %.3f ms, traced %.3f ms, tracing "
       "overhead %+.2f%%",
       untraced, traced, untraced > 0 ? 100.0 * (traced / untraced - 1.0) : 0.0);
  if (!cfg.trace_out.empty()) {
    if (tracer.WriteJsonl(cfg.trace_out)) {
      Line("trace: %zu spans written to %s", tracer.spans().size(),
           cfg.trace_out.c_str());
    }
  }
  r.attempted = o.ledger.attempted;
  r.failed = o.ledger.failed;
  return r;
}

double MedianOfSpans(const Tracer& t, const std::string& name) {
  std::vector<double> d;
  for (const Span& s : t.spans()) {
    if (s.name == name) d.push_back(s.end_ms - s.start_ms);
  }
  return Median(d);
}

// Total duration of the spans named in `names`, per op.
std::map<int, double> SumByOp(const Tracer& t, const std::vector<std::string>& names) {
  std::map<int, double> sum;
  for (const Span& s : t.spans()) {
    if (std::find(names.begin(), names.end(), s.name) != names.end()) {
      sum[s.op] += s.end_ms - s.start_ms;
    }
  }
  return sum;
}

void SetFromOps(const Tracer& t, Outcome* o, const std::string& name) {
  std::vector<double> v;
  for (const auto& [op, total] : SumByOp(t, {name})) v.push_back(total);
  if (!v.empty()) o->layer[name] = Median(v);
}

void SetFromValues(const Tracer& t, Outcome* o, const std::string& name) {
  const std::vector<double> v = t.PerOpValues(name);
  if (!v.empty()) o->layer[name] = Median(v);
}

// Server per-type figures from the request spans of a traced run:
// server.{http,handle,direct,session}_ms.<type> and the derived self times
// transport = http - handle, admission = handle - direct, codec = direct -
// session. Where one op holds all four layers for the same request they
// are differenced per op (mean per request within the op); otherwise the
// medians over all requests are differenced.
void SetServerLayers(const Tracer& t, Outcome* o, const std::string& type) {
  const char* what[4] = {"http_ms", "handle_ms", "direct_ms", "session_ms"};
  std::map<int, std::array<std::pair<double, int>, 4>> per_op;
  std::vector<double> all[4];
  for (const Span& s : t.spans()) {
    for (int i = 0; i < 4; ++i) {
      if (s.name == std::string("server.") + what[i] + "." + type) {
        per_op[s.op][static_cast<std::size_t>(i)].first += s.end_ms - s.start_ms;
        per_op[s.op][static_cast<std::size_t>(i)].second += 1;
        all[i].push_back(s.end_ms - s.start_ms);
      }
    }
  }
  std::vector<double> v[4], diff[3];
  for (const auto& [op, layers] : per_op) {
    double mean[4];
    bool complete = true;
    for (int i = 0; i < 4; ++i) {
      complete = complete && layers[static_cast<std::size_t>(i)].second > 0;
      mean[i] = complete ? layers[static_cast<std::size_t>(i)].first /
                               layers[static_cast<std::size_t>(i)].second
                         : 0;
    }
    if (!complete) continue;
    for (int i = 0; i < 4; ++i) v[i].push_back(mean[i]);
    for (int i = 0; i < 3; ++i) diff[i].push_back(mean[i] - mean[i + 1]);
  }
  double med[4];
  for (int i = 0; i < 4; ++i) {
    med[i] = Median(v[i].empty() ? all[i] : v[i]);
    o->layer[std::string("server.") + what[i] + "." + type] = med[i];
  }
  const char* derived[3] = {"transport_ms", "admission_ms", "codec_ms"};
  for (int i = 0; i < 3; ++i) {
    o->layer[std::string("server.") + derived[i] + "." + type] =
        v[0].empty() ? med[i] - med[i + 1] : Median(diff[i]);
  }
}

// Loads the graph the way every workload's set-up starts.
std::optional<nucleus::Graph> LoadGraph(const Inputs& in, Tracer* t) {
  auto g = Timed(t, "graph.load_ms", [&] { return nucleus::TryLoadGraphAuto(in.graph_path); });
  if (!g.ok()) {
    std::fprintf(stderr, "perfbench: cannot load %s: %s\n", in.graph_path.c_str(),
                 g.status().ToString().c_str());
    return std::nullopt;
  }
  return std::move(*g);
}

// Runs `setup` repeatedly while it is cheap; the last instance is kept.
// Returns the median set-up time.
double RepeatedSetup(const std::function<bool()>& setup, bool* ok) {
  std::vector<double> times;
  double spent = 0;
  do {
    const auto t0 = Clock::now();
    *ok = setup();
    times.push_back(MsSince(t0));
    spent += times.back();
  } while (*ok && static_cast<int>(times.size()) < kMaxSetupReps &&
           spent < kSetupRepeatBelowMs);
  return Median(times);
}

// A traced run interleaves: each untraced op is followed by the same op
// traced and then by its replays down the layers, so host drift over the
// run moves the untraced reference and the layer spans alike.
double PhaseMs(const RunConfig& cfg) { return cfg.seconds * 1000.0; }

// ---------------------------------------------------------------------------
// cold_decompose: a fresh session per op, truss then (3,4), each decompose
// followed by its hierarchy, AND at two threads, default materialization.

struct ColdTimes {
  double truss = 0, n34 = 0, n34_hierarchy = 0, total = 0;
  // With the op's session and its arenas still alive.
  double rss_mb = 0;
  double heap_mb = 0;
  double accounted_mb = 0;
};

ColdTimes ColdOp(const nucleus::Graph& g, const Inputs& in, Tracer* t, Ledger* ledger) {
  nucleus::NucleusSession s(g);
  nucleus::DecomposeOptions o;
  o.threads = kEngineThreads;
  const int root = t->Open("op.cold_decompose");
  const auto t0 = Clock::now();
  auto rt = Timed(t, "core.session_decompose", [&] { return s.Decompose(DecompositionKind::kTruss, o); });
  auto ht = Timed(t, "core.session_hierarchy", [&] { return s.Hierarchy(DecompositionKind::kTruss, o); });
  const auto t1 = Clock::now();
  auto rn = Timed(t, "core.session_decompose", [&] { return s.Decompose(DecompositionKind::kNucleus34, o); });
  const auto t2 = Clock::now();
  auto hn = Timed(t, "core.session_hierarchy", [&] { return s.Hierarchy(DecompositionKind::kNucleus34, o); });
  const auto t3 = Clock::now();
  t->Close(root);

  ColdTimes times{MsBetween(t0, t1), MsBetween(t1, t2), MsBetween(t2, t3), MsBetween(t0, t3),
                  RssMb(), HeapMb(), static_cast<double>(s.Stats().TotalBytes()) / (1 << 20)};
  const auto c0 = Clock::now();
  std::string why;
  bool ok = rt.ok() && ht.ok() && rn.ok() && hn.ok();
  if (!ok) why = "a session call failed";
  ok = ok && CheckKappa(s, 1, rt->kappa, in, &why) && CheckKappa(s, 2, rn->kappa, in, &why);
  if (ok && ((*ht)->nodes.size() != in.ref_nodes[1] || (*hn)->nodes.size() != in.ref_nodes[2])) {
    ok = false;
    why = "hierarchy node count differs from the reference";
  }
  ledger->Count(ok, why);
  ledger->check_ms += MsSince(c0);
  return times;
}

// The same work replayed layer by layer on fresh objects.
void ColdReplay(const nucleus::Graph& g, Tracer* t, std::vector<double>* truss_iters,
                std::vector<double>* n34_iters) {
  const int root = t->Open("replay.cold_decompose");
  nucleus::AndOptions ao;
  ao.local.threads = kEngineThreads;
  const std::uint64_t budget = nucleus::Options{}.materialize_budget_bytes;
  std::vector<nucleus::Degree> degrees;
  {
    std::optional<nucleus::EdgeIndex> edges;
    Timed(t, "clique.edge_index_ms", [&] { edges.emplace(g); return 0; });
    const nucleus::TrussSpace space(g, *edges);
    auto arena = Timed(t, "clique.truss_arena_ms", [&] {
      return nucleus::CsrSpace<nucleus::TrussSpace>::TryBuild(space, kEngineThreads, budget, &degrees);
    });
    if (arena) {
      t->Value("clique.truss_arena_mb", static_cast<double>(arena->MemoryBytes()) / (1 << 20));
      auto r = Timed(t, "local.truss_and_ms", [&] { return nucleus::AndGeneric(*arena, ao); });
      t->Value("local.truss_and_iterations", r.iterations);
      truss_iters->push_back(r.iterations);
      truss_iters->push_back(nucleus::AndGeneric(*arena, ao).iterations);
      Timed(t, "peel.truss_hierarchy_ms", [&] { return nucleus::BuildHierarchy(space, r.tau); });
    }
  }
  {
    std::optional<nucleus::TriangleIndex> tris;
    Timed(t, "clique.triangle_index_ms", [&] { tris.emplace(g, kEngineThreads); return 0; });
    const nucleus::Nucleus34Space space(g, *tris);
    auto arena = Timed(t, "clique.n34_arena_ms", [&] {
      return nucleus::CsrSpace<nucleus::Nucleus34Space>::TryBuild(space, kEngineThreads, budget, &degrees);
    });
    if (arena) {
      t->Value("clique.n34_arena_mb", static_cast<double>(arena->MemoryBytes()) / (1 << 20));
      auto r = Timed(t, "local.n34_and_ms", [&] { return nucleus::AndGeneric(*arena, ao); });
      t->Value("local.n34_and_iterations", r.iterations);
      n34_iters->push_back(r.iterations);
      n34_iters->push_back(nucleus::AndGeneric(*arena, ao).iterations);
      auto h = Timed(t, "peel.n34_hierarchy_ms", [&] { return nucleus::BuildHierarchy(space, r.tau); });
      t->Value("peel.n34_hierarchy_nodes", static_cast<double>(h.nodes.size()));
    }
  }
  t->Close(root);
}

RunResult RunCold(const RunConfig& cfg, const Inputs& in) {
  Tracer tracer(cfg.trace);
  Tracer off(false);
  Outcome o;
  std::optional<nucleus::Graph> graph;
  bool ok = false;
  o.setup_ms = RepeatedSetup([&] { return (graph = LoadGraph(in, &tracer)).has_value(); }, &ok);
  if (!ok) std::exit(2);
  o.layer["graph.load_ms"] = MedianOfSpans(tracer, "graph.load_ms");
  tracer.BeginOp();

  std::vector<double> truss, n34, n34h;
  std::vector<double> truss_iters, n34_iters;
  const auto loop0 = Clock::now();
  do {
    const ColdTimes c = ColdOp(*graph, in, &off, &o.ledger);
    truss.push_back(c.truss);
    n34.push_back(c.n34);
    n34h.push_back(c.n34_hierarchy);
    o.op_ms.push_back(c.total);
    o.rss_mb.push_back(c.rss_mb);
    o.heap_mb = c.heap_mb;
    o.accounted_mb = c.accounted_mb;
    if (cfg.trace) {
      tracer.BeginOp();
      o.traced_op_ms.push_back(ColdOp(*graph, in, &tracer, &o.ledger).total);
      ColdReplay(*graph, &tracer, &truss_iters, &n34_iters);
    }
  } while (MsSince(loop0) < PhaseMs(cfg));
  o.loop_ms = MsSince(loop0);
  o.named = {{"truss_cold_ms", Median(truss), "ms"},
             {"n34_cold_ms", Median(n34), "ms"},
             {"n34_hierarchy_ms", Median(n34h), "ms"}};

  if (cfg.trace) {
    // The layers the session's decompose and hierarchy calls replay into;
    // each is a replayed library call, so together they account for the op.
    const std::vector<std::string> decompose_layers = {
        "clique.edge_index_ms", "clique.truss_arena_ms", "local.truss_and_ms",
        "clique.triangle_index_ms", "clique.n34_arena_ms", "local.n34_and_ms"};
    const std::vector<std::string> hierarchy_layers = {"peel.truss_hierarchy_ms",
                                                       "peel.n34_hierarchy_ms"};
    for (const auto* names : {&decompose_layers, &hierarchy_layers}) {
      for (const std::string& m : *names) {
        SetFromOps(tracer, &o, m);
        o.accounting.push_back({m, 1.0});
      }
    }
    o.unattributed = "the session's own work around the replayed calls";
    for (const char* m : {"clique.truss_arena_mb", "clique.n34_arena_mb",
                          "local.truss_and_iterations", "local.n34_and_iterations",
                          "peel.n34_hierarchy_nodes"}) {
      SetFromValues(tracer, &o, m);
    }
    auto spread = [](const std::vector<double>& v) {
      return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end()) - *std::min_element(v.begin(), v.end());
    };
    o.layer["local.truss_and_iterations_spread"] = spread(truss_iters);
    o.layer["local.n34_and_iterations_spread"] = spread(n34_iters);
    // Core overhead: the session calls minus the replayed layer spans.
    auto overhead = [&](const std::string& session_span, const std::vector<std::string>& layers) {
      std::map<int, double> replayed = SumByOp(tracer, layers);
      std::vector<double> over;
      for (const auto& [op, total] : SumByOp(tracer, {session_span})) {
        over.push_back(total - replayed[op]);
      }
      return Median(over);
    };
    o.layer["core.decompose_overhead_ms"] = overhead("core.session_decompose", decompose_layers);
    o.layer["core.hierarchy_overhead_ms"] = overhead("core.session_hierarchy", hierarchy_layers);
    o.account_against = Median(o.op_ms);
  }
  return Finish(cfg, o, tracer);
}

// ---------------------------------------------------------------------------
// served_reads: a warm server, one client thread driving two connections
// in a closed loop over a seeded mix of kappa, stream and summary reads.

enum ReadKind { kKappaRead, kStreamRead, kDecomposeSummary, kHierarchySummary, kStatsRead };
const char* ReadType(ReadKind k) {
  return k == kKappaRead ? "kappa" : k == kStreamRead ? "stream" : "summary";
}

// 2 kappa : 1 stream : 7 summary, the summaries split evenly.
std::vector<ReadKind> ReadSequence(std::uint64_t seed, int conn, std::size_t n) {
  Rng rng(seed * 1000003 + 17 + static_cast<std::uint64_t>(conn));
  std::vector<ReadKind> seq;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t r = rng.Below(10);
    seq.push_back(r < 2 ? kKappaRead
                  : r < 3 ? kStreamRead
                          : static_cast<ReadKind>(kDecomposeSummary + rng.Below(3)));
  }
  return seq;
}

struct ReadRequest {
  std::string method, target, body;
  nucleus::ServerRequest in_process;
};

ReadRequest MakeRead(ReadKind k) {
  switch (k) {
    case kKappaRead:
      return {"POST", "/api/decompose", DecomposeBody(2, true), {"decompose", DecomposeBody(2, true)}};
    case kStreamRead:
      return {"GET", "/api/hierarchy?graph=g&kind=nucleus34", "",
              {"hierarchy", "{\"graph\":\"g\",\"kind\":\"nucleus34\"}"}};
    case kDecomposeSummary:
      return {"POST", "/api/decompose", DecomposeBody(2, false), {"decompose", DecomposeBody(2, false)}};
    case kHierarchySummary:
      return {"POST", "/api/hierarchy", HierarchyBody(2), {"hierarchy", HierarchyBody(2)}};
    case kStatsRead:
      return {"GET", "/api/stats?graph=g", "", {"stats", "{\"graph\":\"g\"}"}};
  }
  return {};
}

// What every read must return, established once after warm-up.
struct ReadExpect {
  std::string kappa_array;  // the verified "[...]" of the (3,4) kappa read
  double nodes = 0;         // (3,4) hierarchy nodes
  double triangles = 0;
};

bool CheckRead(ReadKind k, const HttpResponse& r, const ReadExpect& x, std::string* why) {
  if (!r.ok()) {
    *why = "HTTP " + std::to_string(r.status) + " on a " + ReadType(k) + " read";
    return false;
  }
  double v = 0;
  switch (k) {
    case kKappaRead:
      if (ArrayField(r.body, "kappa") == x.kappa_array) return true;
      *why = "kappa read differs from the verified reference";
      return false;
    case kStreamRead:
      if (static_cast<double>(CountLines(r.body)) == x.nodes + 1 &&
          FindNumber(r.body, "nodes", &v) && v == x.nodes) {
        return true;
      }
      *why = "stream line count differs from the hierarchy's nodes";
      return false;
    case kDecomposeSummary:
      if (FindTrue(r.body, "served_from_cache") && FindNumber(r.body, "num_r_cliques", &v) &&
          v == x.triangles) {
        return true;
      }
      *why = "decompose summary not served from cache or wrong size";
      return false;
    case kHierarchySummary:
      if (FindNumber(r.body, "nodes", &v) && v == x.nodes) return true;
      *why = "hierarchy summary node count differs from the reference";
      return false;
    case kStatsRead:
      if (FindNumber(r.body, "decompose_cache_hits", &v)) return true;
      *why = "stats read lacks the session counters";
      return false;
  }
  return false;
}

// Closed loop over the server's connections, each replaying its own
// sequence from its start; adds per-type latencies, and the loop's wall
// time to *loop_ms. With a tracer, each request is a span named
// server.http_ms.<type>.
void ReadLoop(Server* server, int conns, double ms, std::uint64_t seed, const ReadExpect& x,
              bool corrupt_first, Tracer* t, Ledger* ledger,
              std::map<std::string, std::vector<double>>* lat, std::vector<double>* all,
              std::vector<double>* rss, double* loop_ms) {
  struct Slot {
    std::vector<ReadKind> seq;
    std::size_t next = 0;
    ReadKind cur = kStatsRead;
    Clock::time_point sent;
  };
  std::vector<Slot> slots(static_cast<std::size_t>(conns));
  auto send = [&](int c) {
    Slot& s = slots[static_cast<std::size_t>(c)];
    s.cur = s.seq[s.next++ % s.seq.size()];
    const ReadRequest req = MakeRead(s.cur);
    s.sent = Clock::now();
    return server->conn(c).Send(req.method, req.target, req.body);
  };
  const auto t0 = Clock::now();
  bool stopping = false;
  int in_flight = 0;
  for (int c = 0; c < conns; ++c) {
    slots[static_cast<std::size_t>(c)].seq = ReadSequence(seed, c, 4096);
    if (!send(c)) {
      ledger->Count(false, "send failed");
      return;
    }
    ++in_flight;
  }
  std::vector<pollfd> fds(static_cast<std::size_t>(conns));
  while (in_flight > 0) {
    for (int c = 0; c < conns; ++c) fds[static_cast<std::size_t>(c)] = {server->conn(c).fd(), POLLIN, 0};
    if (::poll(fds.data(), fds.size(), 60000) <= 0) {
      ledger->Count(false, "no response within 60 s");
      return;
    }
    for (int c = 0; c < conns; ++c) {
      if (fds[static_cast<std::size_t>(c)].revents == 0) continue;
      Slot& s = slots[static_cast<std::size_t>(c)];
      const int st = server->conn(c).Pump();
      if (st == 0) continue;
      const double latency = MsSince(s.sent);
      t->BeginOp();
      t->Add(std::string("server.http_ms.") + ReadType(s.cur), latency);
      --in_flight;
      (*lat)[ReadType(s.cur)].push_back(latency);
      all->push_back(latency);
      rss->push_back(RssMb());
      const auto c0 = Clock::now();
      std::string why = "connection error";
      bool ok = st > 0;
      if (ok && corrupt_first && s.cur == kKappaRead) {
        // Self-test: change one kappa value; the check must catch it.
        HttpResponse r = server->conn(c).response();
        const std::size_t p = r.body.find("\"kappa\":[") + 9;
        r.body[p] = r.body[p] == '9' ? '1' : static_cast<char>(r.body[p] + 1);
        corrupt_first = false;
        ok = CheckRead(s.cur, r, x, &why);
      } else if (ok) {
        ok = CheckRead(s.cur, server->conn(c).response(), x, &why);
      }
      ledger->Count(ok, why);
      ledger->check_ms += MsSince(c0);
      if (!stopping && MsSince(t0) >= ms) stopping = true;
      if (!stopping && st > 0) {
        if (!send(c)) {
          ledger->Count(false, "send failed");
          continue;
        }
        ++in_flight;
      }
    }
  }
  *loop_ms += MsSince(t0);
}

// Each read type once down the layers, sequentially: Handle,
// HandleDirect (or HandleStreaming into a string sink twice), and the
// equivalent session call.
void ReplayReads(Server* server, Tracer* t) {
  nucleus::NucleusSession& s = server->session();
  nucleus::DecomposeOptions opts;
  opts.threads = kEngineThreads;
  for (const ReadKind k : {kKappaRead, kStreamRead, kDecomposeSummary, kHierarchySummary, kStatsRead}) {
    const ReadRequest req = MakeRead(k);
    const std::string type = ReadType(k);
    t->BeginOp();
    std::size_t bytes = 0;
    if (k == kStreamRead) {
      StringSink a, b;
      Timed(t, "server.handle_ms." + type, [&] { return server->core().HandleStreaming(req.in_process, &a); });
      Timed(t, "server.direct_ms." + type, [&] { return server->core().HandleStreaming(req.in_process, &b); });
      bytes = b.data.size();
    } else {
      Timed(t, "server.handle_ms." + type, [&] { return server->core().Handle(req.in_process); });
      bytes = Timed(t, "server.direct_ms." + type, [&] { return server->core().HandleDirect(req.in_process); }).body.size();
    }
    t->Value("server.response_kb." + type, static_cast<double>(bytes) / 1024.0);
    Timed(t, "server.session_ms." + type, [&] {
      if (k == kKappaRead || k == kDecomposeSummary) return s.Decompose(DecompositionKind::kNucleus34, opts).ok();
      if (k == kStatsRead) return s.Stats().counters.decompose_calls > 0;
      return s.Hierarchy(DecompositionKind::kNucleus34, opts).ok();
    });
  }
}

RunResult RunServed(const RunConfig& cfg, const Inputs& in) {
  Tracer tracer(cfg.trace);
  Tracer off(false);
  Outcome o;
  const int conns = 2;
  std::unique_ptr<Server> server;
  ReadExpect expect;
  bool ok = false;
  o.setup_ms = RepeatedSetup([&] {
    server.reset();
    if (cfg.trace) LoadGraph(in, &tracer);  // graph.load_ms, outside the server
    server = std::make_unique<Server>();
    HttpResponse r;
    return server->Start(in.graph_path, conns, &off) &&
           server->Post("decompose", DecomposeBody(1, false), &r) && r.ok() &&
           server->Post("decompose", DecomposeBody(2, false), &r) && r.ok() &&
           server->Post("hierarchy", HierarchyBody(2), &r) && r.ok() &&
           FindNumber(r.body, "nodes", &expect.nodes);
  }, &ok);
  if (!ok) {
    std::fprintf(stderr, "perfbench: served_reads set-up failed\n");
    std::exit(2);
  }
  o.layer["graph.load_ms"] = MedianOfSpans(tracer, "graph.load_ms");
  // Verify the kappa body once against the reference; every later read
  // must return the same array.
  {
    std::string why, body;
    if (!CheckServedKappa(server.get(), 2, in, &why, &body) ||
        expect.nodes != static_cast<double>(in.ref_nodes[2])) {
      std::fprintf(stderr, "perfbench: warm state is wrong: %s\n", why.c_str());
      o.ledger.Count(false, why);
    }
    expect.kappa_array = std::string(ArrayField(body, "kappa"));
    expect.triangles = static_cast<double>(in.ref_n34.keys.size());
  }

  std::map<std::string, std::vector<double>> lat, tlat;
  const int rounds = cfg.trace ? kServedTraceRounds : 1;
  const double each_ms = PhaseMs(cfg) / (cfg.trace ? 2 * rounds : 1);
  // The traced loops keep their own ledger, so that their check time does
  // not count against the untraced loops' reads_per_s.
  Ledger traced_ledger;
  double traced_loop = 0;
  std::vector<double> traced_rss;
  for (int round = 0; round < rounds; ++round) {
    ReadLoop(server.get(), conns, each_ms, cfg.seed, expect, cfg.corrupt_first_kappa && round == 0,
             &off, &o.ledger, &lat, &o.op_ms, &o.rss_mb, &o.loop_ms);
    if (!cfg.trace) break;
    ReadLoop(server.get(), conns, each_ms, cfg.seed, expect, false, &tracer, &traced_ledger, &tlat,
             &o.traced_op_ms, &traced_rss, &traced_loop);
    ReplayReads(server.get(), &tracer);
  }
  o.heap_mb = HeapMb();
  o.accounted_mb = AccountedMb(server.get());
  o.primary_ms = lat["kappa"];
  double pct = 0;
  const double tail = TailPercentile(o.op_ms, &pct);
  const double busy = std::max(o.loop_ms - o.ledger.check_ms, 1e-9);
  o.named = {{"reads_per_s", static_cast<double>(o.op_ms.size()) * 1000.0 / busy, "1/s"},
             {"kappa_read_p50_ms", Median(lat["kappa"]), "ms"},
             {"stream_read_p50_ms", Median(lat["stream"]), "ms"},
             {"summary_read_p50_ms", Median(lat["summary"]), "ms"},
             {"read_p99_ms", tail, "ms"},
             {"read_tail_percentile", pct, "pct"},
             {"reads", static_cast<double>(o.op_ms.size()), "count"}};

  if (cfg.trace) {
    o.ledger.attempted += traced_ledger.attempted;
    o.ledger.failed += traced_ledger.failed;
    std::map<std::string, double> freq;
    for (const auto& [type, v] : tlat) freq[type] = static_cast<double>(v.size()) / static_cast<double>(o.traced_op_ms.size());
    // A read is the in-process request (Handle, replayed with the same
    // body) plus the transport, which no in-process call can replay.
    for (const char* type : {"kappa", "stream", "summary"}) {
      SetServerLayers(tracer, &o, type);
      SetFromValues(tracer, &o, std::string("server.response_kb.") + type);
      o.accounting.push_back({std::string("server.handle_ms.") + type, freq[type]});
    }
    o.unattributed = "reactor, loopback socket and client";
    Counters c;
    if (FetchCounters(server.get(), &c) && c.decompose_calls > 0) {
      o.layer["core.cache_hit_ratio"] = c.decompose_cache_hits / c.decompose_calls;
    }
    // The layers of each read type, weighted by the mix, against the
    // untraced per-type medians weighted the same way.
    o.account_against = 0;
    for (const auto& [type, f] : freq) o.account_against += f * Median(lat[type]);
    o.account_label = "mix-weighted median";
    o.traced_primary_ms = tlat["kappa"];
  }
  server.reset();
  return Finish(cfg, o, tracer);
}

// ---------------------------------------------------------------------------
// churn_commits: one connection; an op removes a seeded edge and then
// re-inserts it, each update followed by two post-commit reads.

struct CycleResult {
  double total = 0;
  double update_ms[2] = {0, 0};  // the remove and the insert request
  bool ok = true;
  std::string why;
};

CycleResult HttpCycle(Server* server, std::pair<std::uint32_t, std::uint32_t> e, const Inputs& in,
                      Tracer* t) {
  CycleResult c;
  const std::string pair = "[[" + std::to_string(e.first) + "," + std::to_string(e.second) + "]]";
  const auto t0 = Clock::now();
  for (const char* action : {"remove", "insert"}) {
    HttpResponse r;
    double changed = 0;
    const auto u0 = Clock::now();
    bool ok = Timed(t, "server.http_ms.update", [&] {
      return server->Post("update", "{\"graph\":\"g\",\"" + std::string(action) + "\":" + pair + "}", &r);
    });
    c.update_ms[action[0] == 'r' ? 0 : 1] = MsSince(u0);
    ok = ok && r.ok() && FindNumber(r.body, action[0] == 'r' ? "removed" : "inserted", &changed) && changed == 1;
    if (!ok && c.ok) c.why = std::string(action) + " of a toggled edge failed";
    c.ok = c.ok && ok;
    HttpResponse h, d;
    double nodes = 0;
    ok = Timed(t, "server.http_ms.summary", [&] { return server->Post("hierarchy", HierarchyBody(2), &h); }) &&
         h.ok() && FindNumber(h.body, "nodes", &nodes) &&
         (action[0] == 'r' || nodes == static_cast<double>(in.ref_nodes[2]));
    ok = ok && Timed(t, "server.http_ms.summary", [&] { return server->Post("decompose", DecomposeBody(2, false), &d); }) &&
         d.ok() && FindTrue(d.body, "served_from_cache");
    if (!ok && c.ok) c.why = "post-commit read failed or was not served from cache";
    c.ok = c.ok && ok;
  }
  c.total = MsSince(t0);
  return c;
}

// Untimed full check after a cycle: kappa of all three kinds equals the
// reference, keyed by vertex tuples, and no hierarchy was rebuilt.
bool CheckAfterCycle(Server* server, const Inputs& in, double hierarchy_builds, std::string* why) {
  for (int kind = 0; kind < 3; ++kind) {
    if (!CheckServedKappa(server, kind, in, why)) return false;
  }
  Counters c;
  if (!FetchCounters(server, &c)) {
    *why = "stats read failed";
    return false;
  }
  if (c.hierarchy_builds != hierarchy_builds) {
    *why = "a post-commit hierarchy read rebuilt instead of hitting the repaired cache";
    return false;
  }
  return true;
}

// One toggle cycle through the session directly, layer by layer: the
// batch, the maintainer repair, the commit, and the commit's delta
// enumeration replayed on its own.
void SessionCycle(Server* server, std::pair<std::uint32_t, std::uint32_t> e, Tracer* t) {
  auto entry = server->entry();
  nucleus::NucleusSession& s = entry->session;
  nucleus::DecomposeOptions opts;
  opts.threads = kEngineThreads;
  const std::pair<std::uint32_t, std::uint32_t> key{std::min(e.first, e.second),
                                                    std::max(e.first, e.second)};
  double work = 0, changed = 0;
  for (const bool remove : {true, false}) {
    std::lock_guard<std::mutex> ul(entry->update_mu);
    const std::vector<nucleus::Degree> before = s.Decompose(DecompositionKind::kNucleus34, opts)->kappa;
    const nucleus::Graph old_graph = s.graph();  // the commit replaces it
    const int session_span = t->Open("server.session_ms.update");
    auto batch = Timed(t, "core.begin_updates_ms", [&] { return s.BeginUpdates(); });
    Timed(t, remove ? "local.maintain_remove_ms" : "local.maintain_insert_ms", [&] {
      return remove ? batch.RemoveEdge(e.first, e.second) : batch.InsertEdge(e.first, e.second);
    });
    work += static_cast<double>(batch.LastNucleus34RepairWork());
    {
      std::unique_lock<std::shared_mutex> gl(entry->graph_mu);
      Timed(t, "core.commit_ms", [&] { return batch.Commit(); });
    }
    t->Close(session_span);
    // The commit's delta enumeration, replayed outside it.
    nucleus::EdgeDelta delta;
    (remove ? delta.removed : delta.inserted).push_back(key);
    auto tri = Timed(t, "clique.delta_ms", [&] { return nucleus::ComputeTriangleDelta(old_graph, s.graph(), delta); });
    auto four = Timed(t, "clique.delta_ms", [&] { return nucleus::ComputeFourCliqueDelta(old_graph, s.graph(), delta); });
    t->Value("clique.delta_triangles", static_cast<double>(tri.dead.size() + tri.born.size()));
    t->Value("clique.delta_4cliques", static_cast<double>(four.dead.size() + four.born.size()));
    const std::vector<nucleus::Degree> after = s.Decompose(DecompositionKind::kNucleus34, opts)->kappa;
    for (std::size_t i = 0; i < after.size(); ++i) {
      if (i >= before.size() ? after[i] != 0 : after[i] != before[i]) ++changed;
    }
  }
  t->Value("local.n34_repair_work", work);
  if (work > 0) t->Value("local.n34_repair_yield", changed / work);
}

RunResult RunChurn(const RunConfig& cfg, const Inputs& in) {
  Tracer tracer(cfg.trace);
  Tracer off(false);
  Outcome o;
  std::unique_ptr<Server> server;
  bool ok = false;
  o.setup_ms = RepeatedSetup([&] {
    server.reset();
    if (cfg.trace) LoadGraph(in, &tracer);
    server = std::make_unique<Server>();
    if (!server->Start(in.graph_path, 1, &off)) return false;
    HttpResponse r;
    for (int kind = 0; kind < 3; ++kind) {
      if (!server->Post("decompose", DecomposeBody(kind, false), &r) || !r.ok()) return false;
      if (!server->Post("hierarchy", HierarchyBody(kind), &r) || !r.ok()) return false;
    }
    // Warm-up cycles on toggles the measured loop reaches last, so the
    // first measured commit does not pay first-touch costs.
    for (int i = 1; i <= kChurnWarmupCycles; ++i) {
      if (!HttpCycle(server.get(), in.toggles[in.toggles.size() - static_cast<std::size_t>(i)], in, &off).ok) {
        return false;
      }
    }
    return true;
  }, &ok);
  if (!ok) {
    std::fprintf(stderr, "perfbench: churn_commits set-up failed\n");
    std::exit(2);
  }
  o.layer["graph.load_ms"] = MedianOfSpans(tracer, "graph.load_ms");
  Counters start;
  FetchCounters(server.get(), &start);
  // The primary op is the whole toggle cycle; the remove and insert
  // requests are also timed on their own, for the figures above the result.
  std::vector<double> remove_ms, insert_ms;
  auto cycle = [&](std::pair<std::uint32_t, std::uint32_t> e, Tracer* t, std::vector<double>* times) {
    const CycleResult c = HttpCycle(server.get(), e, in, t);
    times->push_back(c.total);
    if (times == &o.op_ms) {
      remove_ms.push_back(c.update_ms[0]);
      insert_ms.push_back(c.update_ms[1]);
    }
    o.rss_mb.push_back(RssMb());
    const auto c0 = Clock::now();
    std::string why = c.why;
    const bool good = c.ok && CheckAfterCycle(server.get(), in, start.hierarchy_builds, &why);
    o.ledger.Count(good, why);
    o.ledger.check_ms += MsSince(c0);
  };
  // The same toggle down the layers: through the session directly, then
  // the same update requests through Handle and HandleDirect, then one
  // summary read each way. The graph is back in its start state after.
  auto replay = [&](std::pair<std::uint32_t, std::uint32_t> e) {
    SessionCycle(server.get(), e, &tracer);
    for (const char* what : {"server.handle_ms.update", "server.direct_ms.update"}) {
      for (const char* action : {"remove", "insert"}) {
        const nucleus::ServerRequest req{"update", "{\"graph\":\"g\",\"" + std::string(action) + "\":[[" +
                                                       std::to_string(e.first) + "," + std::to_string(e.second) + "]]}"};
        const auto resp = Timed(&tracer, what, [&] {
          return what[7] == 'h' ? server->core().Handle(req) : server->core().HandleDirect(req);
        });
        if (what[7] == 'd' && action[0] == 'r') {
          tracer.Value("server.response_kb.update", static_cast<double>(resp.body.size()) / 1024.0);
        }
        if (!resp.status.ok()) o.ledger.Count(false, "in-process update failed");
      }
    }
    const nucleus::ServerRequest sum{"hierarchy", HierarchyBody(2)};
    nucleus::DecomposeOptions opts;
    opts.threads = kEngineThreads;
    Timed(&tracer, "server.handle_ms.summary", [&] { return server->core().Handle(sum); });
    Timed(&tracer, "server.direct_ms.summary", [&] { return server->core().HandleDirect(sum); });
    Timed(&tracer, "server.session_ms.summary", [&] { return server->session().Hierarchy(DecompositionKind::kNucleus34, opts).ok(); });
  };
  std::size_t next = 0;
  const auto loop0 = Clock::now();
  do {
    const auto e = in.toggles[next++ % in.toggles.size()];
    cycle(e, &off, &o.op_ms);
    if (cfg.trace) {
      tracer.BeginOp();
      cycle(e, &tracer, &o.traced_op_ms);
      replay(e);
    }
  } while (MsSince(loop0) < PhaseMs(cfg));
  o.loop_ms = MsSince(loop0);
  o.heap_mb = HeapMb();
  o.accounted_mb = AccountedMb(server.get());
  o.named = {{"toggle_cycle_ms", Median(o.op_ms), "ms"},
             {"remove_request_p50_ms", Median(remove_ms), "ms"},
             {"insert_request_p50_ms", Median(insert_ms), "ms"}};

  if (cfg.trace) {
    std::string why;
    o.ledger.Count(CheckAfterCycle(server.get(), in, start.hierarchy_builds, &why), why);
    for (const char* m : {"core.begin_updates_ms", "local.maintain_remove_ms", "local.maintain_insert_ms",
                          "core.commit_ms", "clique.delta_ms"}) {
      SetFromOps(tracer, &o, m);
    }
    for (const char* m : {"clique.delta_triangles", "clique.delta_4cliques", "local.n34_repair_work",
                          "local.n34_repair_yield", "server.response_kb.update"}) {
      SetFromValues(tracer, &o, m);
    }
    o.layer["core.commit_residual_ms"] = o.layer["core.commit_ms"] - o.layer["clique.delta_ms"];
    SetServerLayers(tracer, &o, "update");
    SetServerLayers(tracer, &o, "summary");
    Counters end;
    if (FetchCounters(server.get(), &end) && end.commits > start.commits) {
      o.layer["core.hierarchy_repairs_per_commit"] =
          (end.hierarchy_repairs - start.hierarchy_repairs) / (end.commits - start.commits);
      o.layer["core.cache_hit_ratio"] = end.decompose_cache_hits / end.decompose_calls;
    }
    // A cycle: its two update requests and four post-commit summary reads,
    // each replayed in process through Handle with the same body. The
    // session-level pieces of an update are printed above as layer metrics.
    o.accounting = {{"server.handle_ms.update", 2}, {"server.handle_ms.summary", 4}};
    o.unattributed = "reactor, loopback socket and client for the six requests";
    o.account_against = Median(o.op_ms);
  }
  server.reset();
  return Finish(cfg, o, tracer);
}

// ---------------------------------------------------------------------------
// local_queries: indices built, no kappa cached; seeded single-id radius-1
// queries, truss : (3,4) = 5 : 1.

RunResult RunLocal(const RunConfig& cfg, const Inputs& in) {
  Tracer tracer(cfg.trace);
  Tracer off(false);
  Outcome o;
  std::unique_ptr<Server> server;
  bool ok = false;
  auto query_body = [](int kind, std::uint64_t id, int radius) {
    return "{\"graph\":\"g\",\"kind\":\"" + std::string(kKindNames[kind]) + "\",\"ids\":[" +
           std::to_string(id) + "],\"radius\":" + std::to_string(radius) +
           ",\"threads\":" + std::to_string(kEngineThreads) + "}";
  };
  o.setup_ms = RepeatedSetup([&] {
    server.reset();
    if (cfg.trace) LoadGraph(in, &tracer);
    server = std::make_unique<Server>();
    HttpResponse r;
    // Radius-0 queries build the edge and triangle indices and nothing else.
    return server->Start(in.graph_path, 1, &off) &&
           server->Post("query", query_body(1, 0, 0), &r) && r.ok() &&
           server->Post("query", query_body(2, 0, 0), &r) && r.ok();
  }, &ok);
  if (!ok) {
    std::fprintf(stderr, "perfbench: local_queries set-up failed\n");
    std::exit(2);
  }
  o.layer["graph.load_ms"] = MedianOfSpans(tracer, "graph.load_ms");
  nucleus::NucleusSession& s = server->session();
  std::vector<std::uint64_t> truss_ids, n34_ids, truss_ref, n34_ref;
  for (const auto& [u, v] : in.truss_queries) {
    truss_ids.push_back(s.Edges().EdgeIdOf(u, v));
    truss_ref.push_back(static_cast<std::uint64_t>(in.ref_truss.Find(EdgeKey(u, v))));
  }
  for (const auto& q : in.n34_queries) {
    n34_ids.push_back(s.Triangles().TriangleIdOf(q[0], q[1], q[2]));
    n34_ref.push_back(static_cast<std::uint64_t>(in.ref_n34.Find(TriangleKey(q[0], q[1], q[2]))));
  }

  // Single-id radius-1 truss queries, ids taken in order from the seeded
  // list. (3,4) queries are left to the traced run's replay: one costs
  // seconds, and its cost differs up to twofold between ids, so the few a
  // run could afford would not give a steady median.
  auto query = [&](std::size_t i, Tracer* t, std::vector<double>* times) {
    HttpResponse r;
    const auto t0 = Clock::now();
    bool ok = Timed(t, "server.http_ms.query", [&] {
      return server->Post("query", query_body(1, truss_ids[i], 1), &r);
    });
    times->push_back(MsSince(t0));
    const auto c0 = Clock::now();
    o.rss_mb.push_back(RssMb());
    std::vector<std::uint32_t> est;
    ok = ok && r.ok() && ParseUInts(ArrayField(r.body, "estimates"), &est) && est.size() == 1 &&
         est[0] >= truss_ref[i];
    o.ledger.Count(ok, "truss query failed or estimated below the reference kappa");
    o.ledger.check_ms += MsSince(c0);
  };
  nucleus::QueryOptions qo;
  qo.radius = 1;
  qo.threads = kEngineThreads;
  // The same query down the layers: Handle, HandleDirect, the session
  // call and the library estimate.
  auto replay = [&](std::uint64_t id) {
    const nucleus::ServerRequest req{"query", query_body(1, id, 1)};
    Timed(&tracer, "server.handle_ms.query", [&] { return server->core().Handle(req); });
    const auto resp = Timed(&tracer, "server.direct_ms.query", [&] { return server->core().HandleDirect(req); });
    tracer.Value("server.response_kb.query", static_cast<double>(resp.body.size()) / 1024.0);
    const std::vector<nucleus::CliqueId> ids{static_cast<nucleus::CliqueId>(id)};
    Timed(&tracer, "server.session_ms.query", [&] {
      return s.EstimateQueries(DecompositionKind::kTruss, ids, qo).ok();
    });
    const auto est = Timed(&tracer, "local.truss_query_ms", [&] {
      return nucleus::EstimateTrussNumbers(s.graph(), s.Edges(), ids, qo);
    });
    tracer.Value("local.truss_query_region", static_cast<double>(est.region_size));
  };
  std::size_t next = 0;
  const auto loop0 = Clock::now();
  do {
    const std::size_t i = next++ % truss_ids.size();
    query(i, &off, &o.op_ms);
    if (cfg.trace) {
      tracer.BeginOp();
      query(i, &tracer, &o.traced_op_ms);
      replay(truss_ids[i]);
    }
  } while (MsSince(loop0) < PhaseMs(cfg));
  o.loop_ms = MsSince(loop0);
  o.heap_mb = HeapMb();
  o.accounted_mb = AccountedMb(server.get());
  o.named = {{"truss_query_p50_ms", Median(o.op_ms), "ms"},
             {"truss_queries", static_cast<double>(o.op_ms.size()), "count"}};

  if (cfg.trace) {
    // One (3,4) query of the seeded list, at the library level.
    tracer.BeginOp();
    const std::vector<nucleus::CliqueId> tri{static_cast<nucleus::CliqueId>(n34_ids[0])};
    const auto est = Timed(&tracer, "local.n34_query_ms", [&] {
      return nucleus::EstimateNucleus34Numbers(s.graph(), s.Triangles(), tri, qo);
    });
    tracer.Value("local.n34_query_region", static_cast<double>(est.region_size));
    o.ledger.Count(est.estimates.size() == 1 && est.estimates[0] >= n34_ref[0],
                   "(3,4) query estimated below the reference kappa");
    for (const char* m : {"local.truss_query_ms", "local.n34_query_ms"}) SetFromOps(tracer, &o, m);
    for (const char* m : {"local.truss_query_region", "local.n34_query_region", "server.response_kb.query"}) {
      SetFromValues(tracer, &o, m);
    }
    SetServerLayers(tracer, &o, "query");
    // A query is the library estimate, replayed on the same id; the rest
    // is the server's and the session's handling around it.
    o.accounting = {{"local.truss_query_ms", 1}};
    o.unattributed = "server and session handling of the query";
    o.account_against = Median(o.op_ms);
  }
  server.reset();
  return Finish(cfg, o, tracer);
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return std::find(std::begin(kWorkloads), std::end(kWorkloads), name) != std::end(kWorkloads);
}

RunResult RunWorkload(const RunConfig& cfg, const Inputs& in) {
  const nucleus::ServerConfig defaults;
  Line("config {\"engine_threads\": %d, \"server_workers\": %d, \"reactor_loops\": %d, "
       "\"client_threads\": 1, \"connections\": %d, \"queue_capacity\": %zu, "
       "\"batch_nice\": %d, \"default_materialize\": \"%s\", \"arena_budget_mb\": %llu, "
       "\"default_deadline_ms\": %lld}",
       kEngineThreads, kWorkers, kLoops, cfg.workload == "served_reads" ? 2 : 1,
       defaults.queue_capacity, defaults.batch_nice, defaults.default_materialize.c_str(),
       static_cast<unsigned long long>(defaults.default_arena_budget_bytes >> 20),
       static_cast<long long>(defaults.default_deadline_ms));
  if (cfg.workload == "cold_decompose") return RunCold(cfg, in);
  if (cfg.workload == "served_reads") return RunServed(cfg, in);
  if (cfg.workload == "churn_commits") return RunChurn(cfg, in);
  return RunLocal(cfg, in);
}

}  // namespace perfbench
