// nucleus_cli — command-line front end for the library, built on the
// session-centric API: every command constructs one NucleusSession and
// issues its requests against it, so indices/arenas/kappa are built once
// and reused across repeated requests.
//
// Usage:
//   nucleus_cli decompose --input g.txt [--kind core|truss|nucleus34]
//               [--method peel|snd|and] [--threads N] [--max-iters N]
//               [--peel auto|sequential|parallel]
//               [--materialize auto|on|off|compressed] [--materialize-budget-mb N]
//               [--repeat N] [--no-cache] [--output kappa.tsv]
//   nucleus_cli hierarchy --input g.txt [--kind ...] [--threads N]
//               [--peel auto|sequential|parallel] [--dot out.dot]
//               [--tsv out.tsv] [--min-size N]
//   nucleus_cli stats --input g.txt
//   nucleus_cli generate --model er|ba|rmat|ws|planted|nested
//               [--n N] [--m M] [--seed S] --output g.txt
//   nucleus_cli query --input g.txt [--kind core|truss|nucleus34]
//               --ids 1,2,3 [--radius R] [--max-iters N]
//
// `decompose --repeat N` serves N decomposition requests from the same
// session and reports per-request latency: request 1 pays the index +
// arena construction, requests 2..N are served warm (exact repeats come
// straight from the kappa cache) — the amortization a server-style
// deployment gets for free.
//
// Input is a SNAP-style edge list ("u v" per line, '#' comments).
#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <string>

#include "src/clique/four_cliques.h"
#include "src/clique/triangles.h"
#include "src/common/status.h"
#include "src/common/timer.h"
#include "src/core/session.h"
#include "src/graph/generators.h"
#include "src/graph/io.h"
#include "src/peel/hierarchy_export.h"
#include "src/server/http.h"
#include "src/server/json.h"
#include "src/server/load_harness.h"

namespace {

using namespace nucleus;

struct Args {
  std::map<std::string, std::string> kv;
  bool Has(const std::string& k) const { return kv.count(k) > 0; }
  std::string Get(const std::string& k, const std::string& def = "") const {
    auto it = kv.find(k);
    return it == kv.end() ? def : it->second;
  }
  int GetInt(const std::string& k, int def) const {
    auto it = kv.find(k);
    return it == kv.end() ? def : std::stoi(it->second);
  }
};

Args ParseArgs(int argc, char** argv, int first) {
  Args args;
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) continue;
    key = key.substr(2);
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      args.kv[key] = argv[++i];
    } else {
      args.kv[key] = "1";
    }
  }
  return args;
}

StatusOr<Method> ParseMethod(const std::string& s) {
  if (s == "peel") return Method::kPeeling;
  if (s == "snd") return Method::kSnd;
  if (s == "and") return Method::kAnd;
  return Status::InvalidArgument("unknown --method: " + s +
                                 " (expected peel|snd|and)");
}

StatusOr<PeelStrategy> ParsePeelStrategy(const std::string& s) {
  if (s == "auto") return PeelStrategy::kAuto;
  if (s == "sequential") return PeelStrategy::kSequential;
  if (s == "parallel") return PeelStrategy::kParallel;
  return Status::InvalidArgument("unknown --peel: " + s +
                                 " (expected auto|sequential|parallel)");
}

StatusOr<Materialize> ParseMaterialize(const std::string& s) {
  if (s == "auto") return Materialize::kAuto;
  if (s == "on") return Materialize::kOn;
  if (s == "off") return Materialize::kOff;
  if (s == "compressed") return Materialize::kCompressed;
  return Status::InvalidArgument("unknown --materialize: " + s +
                                 " (expected auto|on|off|compressed)");
}

// Prints the status and returns the CLI exit code for a failed request.
int Fail(const Status& s) {
  std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
  return 1;
}

StatusOr<Graph> LoadInput(const Args& args) {
  return TryLoadEdgeListText(args.Get("input"));
}

int CmdStats(const Args& args) {
  StatusOr<Graph> g = LoadInput(args);
  if (!g.ok()) return Fail(g.status());
  Timer t;
  const Count tri = CountTriangles(*g);
  const Count k4 = CountFourCliques(*g);
  std::printf("vertices\t%zu\nedges\t%zu\ntriangles\t%llu\nk4\t%llu\n"
              "max_degree\t%u\ncount_seconds\t%.3f\n",
              g->NumVertices(), g->NumEdges(),
              static_cast<unsigned long long>(tri),
              static_cast<unsigned long long>(k4), g->MaxDegree(),
              t.Seconds());
  return 0;
}

int CmdDecompose(const Args& args) {
  StatusOr<Graph> g = LoadInput(args);
  if (!g.ok()) return Fail(g.status());

  DecomposeOptions opt;
  StatusOr<Method> method = ParseMethod(args.Get("method", "and"));
  if (!method.ok()) return Fail(method.status());
  opt.method = *method;
  opt.threads = args.GetInt("threads", 1);
  opt.max_iterations = args.GetInt("max-iters", 0);
  StatusOr<PeelStrategy> peel = ParsePeelStrategy(args.Get("peel", "auto"));
  if (!peel.ok()) return Fail(peel.status());
  opt.peel_strategy = *peel;
  StatusOr<Materialize> mat =
      ParseMaterialize(args.Get("materialize", "auto"));
  if (!mat.ok()) return Fail(mat.status());
  opt.materialize = *mat;
  if (args.Has("materialize-budget-mb")) {
    const int budget_mb = args.GetInt("materialize-budget-mb", 512);
    if (budget_mb < 0) {
      return Fail(Status::InvalidArgument(
          "--materialize-budget-mb must be >= 0"));
    }
    opt.materialize_budget_bytes = static_cast<std::uint64_t>(budget_mb)
                                   << 20;
  }
  if (args.Has("no-cache")) opt.use_result_cache = false;
  StatusOr<DecompositionKind> kind = ParseKindName(args.Get("kind", "core"));
  if (!kind.ok()) return Fail(kind.status());

  const int repeat = args.GetInt("repeat", 1);
  if (repeat < 1) {
    return Fail(Status::InvalidArgument("--repeat must be >= 1"));
  }

  NucleusSession session(std::move(*g));
  std::optional<DecomposeResult> last;
  double cold_ms = 0.0, warm_ms_total = 0.0;
  for (int i = 0; i < repeat; ++i) {
    Timer t;
    StatusOr<DecomposeResult> r = session.Decompose(*kind, opt);
    const double ms = t.Seconds() * 1e3;
    if (!r.ok()) return Fail(r.status());
    if (i == 0) {
      cold_ms = ms;
    } else {
      warm_ms_total += ms;
    }
    std::fprintf(stderr,
                 "request %d/%d: %.3f ms (decompose %.3f ms, index %.3f ms, "
                 "arena %.3f ms)%s\n",
                 i + 1, repeat, ms, r->seconds * 1e3, r->index_seconds * 1e3,
                 r->arena_seconds * 1e3,
                 r->served_from_cache ? "  [kappa cache]" : "");
    last = std::move(r).value();
  }
  const SessionStats stats = session.stats();
  std::fprintf(stderr,
               "decomposed %zu r-cliques, %d iterations, exact=%d "
               "(session: %" PRIu64 " edge-index, %" PRIu64
               " triangle-index, %" PRIu64 " arena builds across %" PRIu64
               " requests, %" PRIu64 " cache hits)\n",
               last->num_r_cliques, last->iterations, last->exact ? 1 : 0,
               stats.edge_index_builds, stats.triangle_index_builds,
               stats.core_arena_builds + stats.truss_arena_builds +
                   stats.nucleus34_arena_builds,
               stats.decompose_calls, stats.decompose_cache_hits);
  if (repeat > 1) {
    const double warm_ms = warm_ms_total / (repeat - 1);
    std::fprintf(stderr,
                 "amortization: cold %.3f ms, warm mean %.3f ms "
                 "(%.1fx); indices built once, served %d requests\n",
                 cold_ms, warm_ms, cold_ms / std::max(warm_ms, 1e-6),
                 repeat);
  }

  std::ostream* out = &std::cout;
  std::ofstream file;
  if (args.Has("output")) {
    file.open(args.Get("output"));
    if (!file) {
      return Fail(Status::FailedPrecondition("cannot write --output file"));
    }
    out = &file;
  }
  (*out) << "id\tkappa\n";
  for (std::size_t i = 0; i < last->kappa.size(); ++i) {
    (*out) << i << '\t' << last->kappa[i] << '\n';
  }
  return 0;
}

int CmdHierarchy(const Args& args) {
  StatusOr<Graph> g = LoadInput(args);
  if (!g.ok()) return Fail(g.status());
  StatusOr<DecompositionKind> kind = ParseKindName(args.Get("kind", "core"));
  if (!kind.ok()) return Fail(kind.status());

  StatusOr<PeelStrategy> peel = ParsePeelStrategy(args.Get("peel", "auto"));
  if (!peel.ok()) return Fail(peel.status());
  DecomposeOptions opt;
  opt.method = Method::kPeeling;
  opt.peel_strategy = *peel;
  opt.threads = args.GetInt("threads", 1);

  NucleusSession session(std::move(*g));
  StatusOr<const NucleusHierarchy*> h = session.Hierarchy(*kind, opt);
  if (!h.ok()) return Fail(h.status());
  std::fprintf(stderr, "hierarchy: %zu nodes, %zu roots, depth %zu\n",
               (*h)->nodes.size(), (*h)->roots.size(), (*h)->Depth());
  if (args.Has("dot")) {
    std::ofstream dot(args.Get("dot"));
    if (!dot) {
      return Fail(Status::FailedPrecondition("cannot write --dot file"));
    }
    DotExportOptions dopt;
    dopt.min_size = static_cast<std::size_t>(args.GetInt("min-size", 1));
    ExportHierarchyDot(**h, dot, dopt);
  }
  if (args.Has("tsv")) {
    std::ofstream tsv(args.Get("tsv"));
    if (!tsv) {
      return Fail(Status::FailedPrecondition("cannot write --tsv file"));
    }
    ExportHierarchyTsv(**h, tsv);
  } else if (!args.Has("dot")) {
    ExportHierarchyTsv(**h, std::cout);
  }
  return 0;
}

int CmdGenerate(const Args& args) {
  const std::string model = args.Get("model", "er");
  const std::size_t n = static_cast<std::size_t>(args.GetInt("n", 1000));
  const std::size_t m = static_cast<std::size_t>(args.GetInt("m", 5000));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.GetInt("seed", 1));
  Graph g;
  if (model == "er") {
    g = GenerateErdosRenyi(n, m, seed);
  } else if (model == "ba") {
    g = GenerateBarabasiAlbert(n, args.GetInt("attach", 3), seed);
  } else if (model == "rmat") {
    g = GenerateRmat(args.GetInt("scale", 10), args.GetInt("edge-factor", 8),
                     seed);
  } else if (model == "ws") {
    g = GenerateWattsStrogatz(n, args.GetInt("k", 6), 0.1, seed);
  } else if (model == "planted") {
    g = GeneratePlantedPartition(args.GetInt("blocks", 4),
                                 args.GetInt("block-size", 50), 0.5, 0.01,
                                 seed);
  } else if (model == "nested") {
    g = GenerateNestedCliques(args.GetInt("levels", 5), 5, 4, seed);
  } else {
    return Fail(Status::InvalidArgument("unknown --model: " + model));
  }
  const std::string out = args.Get("output");
  if (out.empty()) {
    return Fail(Status::InvalidArgument("--output is required"));
  }
  if (Status s = TrySaveEdgeListText(g, out); !s.ok()) return Fail(s);
  std::fprintf(stderr, "wrote %s: %zu vertices, %zu edges\n", out.c_str(),
               g.NumVertices(), g.NumEdges());
  return 0;
}

StatusOr<std::vector<CliqueId>> ParseIdList(const std::string& csv) {
  std::vector<CliqueId> out;
  std::string cur;
  for (char c : csv + ",") {
    if (c == ',') {
      if (!cur.empty()) {
        std::uint64_t v = 0;
        try {
          v = std::stoull(cur);
        } catch (const std::exception&) {
          return Status::InvalidArgument("malformed id list entry: " + cur);
        }
        // Reject before narrowing: a wrapped 32-bit value would pass the
        // session's range check and silently query the wrong element.
        if (v > std::numeric_limits<CliqueId>::max()) {
          return Status::InvalidArgument("id out of range: " + cur);
        }
        out.push_back(static_cast<CliqueId>(v));
      }
      cur.clear();
    } else {
      cur += c;
    }
  }
  return out;
}

int CmdQuery(const Args& args) {
  StatusOr<Graph> g = LoadInput(args);
  if (!g.ok()) return Fail(g.status());
  StatusOr<DecompositionKind> kind = ParseKindName(args.Get("kind", "core"));
  if (!kind.ok()) return Fail(kind.status());
  QueryOptions opt;
  opt.radius = args.GetInt("radius", 2);
  opt.max_iterations = args.GetInt("max-iters", 0);
  // --ids is the unified spelling; the kind-specific aliases
  // (--vertices/--edges/--triangles) are honored only for their own kind —
  // accepting, say, --vertices for kind=truss would silently reinterpret
  // vertex ids as edge ids.
  const char* alias = *kind == DecompositionKind::kCore      ? "vertices"
                      : *kind == DecompositionKind::kTruss   ? "edges"
                                                             : "triangles";
  for (const char* other : {"vertices", "edges", "triangles"}) {
    if (args.Has(other) && std::string(other) != alias) {
      return Fail(Status::InvalidArgument(
          "--" + std::string(other) + " does not match --kind " +
          args.Get("kind", "core") + "; use --" + std::string(alias) +
          " or --ids"));
    }
  }
  std::string csv = args.Get("ids");
  if (csv.empty()) csv = args.Get(alias);
  StatusOr<std::vector<CliqueId>> ids = ParseIdList(csv);
  if (!ids.ok()) return Fail(ids.status());

  NucleusSession session(std::move(*g));
  StatusOr<QueryEstimate> est = session.EstimateQueries(*kind, *ids, opt);
  if (!est.ok()) return Fail(est.status());
  switch (*kind) {
    case DecompositionKind::kCore:
      std::printf("vertex\tcore_estimate\n");
      for (std::size_t i = 0; i < ids->size(); ++i) {
        std::printf("%u\t%u\n", (*ids)[i], est->estimates[i]);
      }
      break;
    case DecompositionKind::kTruss: {
      const EdgeIndex& edges = session.Edges();
      std::printf("edge\tu\tv\ttruss_estimate\n");
      for (std::size_t i = 0; i < ids->size(); ++i) {
        const auto [u, v] = edges.Endpoints((*ids)[i]);
        std::printf("%u\t%u\t%u\t%u\n", (*ids)[i], u, v, est->estimates[i]);
      }
      break;
    }
    case DecompositionKind::kNucleus34: {
      const TriangleIndex& tris = session.Triangles();
      std::printf("triangle\tu\tv\tw\tnucleus34_estimate\n");
      for (std::size_t i = 0; i < ids->size(); ++i) {
        const auto& t = tris.Vertices((*ids)[i]);
        std::printf("%u\t%u\t%u\t%u\t%u\n", (*ids)[i], t[0], t[1], t[2],
                    est->estimates[i]);
      }
      break;
    }
  }
  std::fprintf(stderr, "region=%zu iterations=%d converged=%d\n",
               est->region_size, est->iterations, est->converged ? 1 : 0);
  return 0;
}

// Drives a running nucleus_server over HTTP: one request, body to stdout,
// exit 0 iff the server answered 2xx. Chunked responses (the hierarchy
// stream) arrive de-chunked. This is what the CI smoke job uses to prove
// the server end to end over a real socket.
int CmdClient(const Args& args) {
  const std::string host = args.Get("host", "127.0.0.1");
  const int port = args.GetInt("port", 8080);
  const std::int64_t timeout_ms = args.GetInt("timeout-ms", 30000);
  std::string method;
  std::string target;
  std::string body;
  if (args.Has("get")) {
    method = "GET";
    target = args.Get("get");
  } else if (args.Has("post")) {
    method = "POST";
    target = args.Get("post");
    body = args.Get("body", "{}");
  } else {
    std::fprintf(stderr,
                 "error: client wants --get PATH or --post PATH [--body "
                 "JSON]\n");
    return 2;
  }
  auto result = HttpFetch(host, port, method, target, body, timeout_ms);
  if (!result.ok()) return Fail(result.status());
  std::fwrite(result->body.data(), 1, result->body.size(), stdout);
  if (!result->body.empty() && result->body.back() != '\n') {
    std::printf("\n");
  }
  if (result->status < 200 || result->status >= 300) {
    std::fprintf(stderr, "error: HTTP %d\n", result->status);
    return 1;
  }
  return 0;
}

// Closed-loop load generator against a running nucleus_server: N
// connections x M requests each, with optional pipelining, reporting
// served QPS and client-observed latency percentiles. Afterwards it
// fetches /metricz and prints the server-side histogram for the same
// endpoint, so client and server measurements can be cross-checked (the
// server histogram's buckets are log2-spaced: its quantiles may read up to
// 2x above the client's, never below... minus queue/wire time).
int CmdLoadtest(const Args& args) {
  LoadHarnessOptions options;
  options.host = args.Get("host", "127.0.0.1");
  options.port = args.GetInt("port", 8080);
  options.connections = args.GetInt("connections", 8);
  options.requests_per_connection = args.GetInt("requests", 100);
  options.pipeline_depth = args.GetInt("pipeline", 1);
  if (args.Has("get")) {
    options.method = "GET";
    options.target = args.Get("get");
  } else if (args.Has("post")) {
    options.method = "POST";
    options.target = args.Get("post");
    options.body = args.Get("body", "{}");
  } else {
    std::fprintf(stderr,
                 "error: loadtest wants --get PATH or --post PATH [--body "
                 "JSON]\n");
    return 2;
  }

  auto result = RunLoadHarness(options);
  if (!result.ok()) return Fail(result.status());
  std::printf("connections\t%d\n", result->connections);
  std::printf("completed\t%llu\n",
              static_cast<unsigned long long>(result->completed));
  std::printf("errors\t%llu\n",
              static_cast<unsigned long long>(result->errors));
  std::printf("seconds\t%.3f\n", result->seconds);
  std::printf("qps\t%.1f\n", result->qps);
  std::printf("client_p50_ms\t%.3f\n", result->p50_ms);
  std::printf("client_p90_ms\t%.3f\n", result->p90_ms);
  std::printf("client_p99_ms\t%.3f\n", result->p99_ms);

  // Cross-check against the server's own histogram for this endpoint.
  std::string endpoint = options.target;
  if (const std::size_t q = endpoint.find('?'); q != std::string::npos) {
    endpoint.resize(q);
  }
  if (endpoint.rfind("/api/", 0) == 0) {
    endpoint = endpoint.substr(5);
  } else if (!endpoint.empty() && endpoint.front() == '/') {
    endpoint = endpoint.substr(1);
  }
  auto metricz =
      HttpFetch(options.host, options.port, "GET", "/metricz", "", 10000);
  if (!metricz.ok()) {
    std::fprintf(stderr, "warning: /metricz fetch failed: %s\n",
                 metricz.status().ToString().c_str());
    return result->errors == 0 ? 0 : 1;
  }
  auto doc = JsonValue::Parse(metricz->body);
  if (doc.ok()) {
    if (const JsonValue* latency = doc->Find("latency_ms")) {
      if (const JsonValue* h = latency->Find("latency." + endpoint)) {
        const JsonValue* count = h->Find("count");
        const JsonValue* p50 = h->Find("p50");
        const JsonValue* p99 = h->Find("p99");
        std::printf("server_count\t%lld\n",
                    static_cast<long long>(count ? count->AsInt() : 0));
        std::printf("server_p50_ms\t%.3f\n", p50 ? p50->AsDouble() : 0.0);
        std::printf("server_p99_ms\t%.3f\n", p99 ? p99->AsDouble() : 0.0);
      } else {
        std::printf("server_histogram\t(none for latency.%s)\n",
                    endpoint.c_str());
      }
    }
  }
  return result->errors == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: nucleus_cli <decompose|hierarchy|stats|generate|"
               "query|client|loadtest> --input FILE [options]\n"
               "  decompose: --kind core|truss|nucleus34  --method "
               "peel|snd|and  --threads N  --max-iters N\n"
               "             --peel auto|sequential|parallel (strategy "
               "for --method peel; auto = parallel when --threads > 1)\n"
               "             --materialize auto|on|off|compressed  "
               "--materialize-budget-mb N  --output FILE\n"
               "             --repeat N (serve N requests from one "
               "session)  --no-cache\n"
               "  hierarchy: --kind ...  --threads N  --peel "
               "auto|sequential|parallel  --dot FILE  --tsv FILE  "
               "--min-size N\n"
               "  stats:     (prints V/E/triangle/K4 counts)\n"
               "  generate:  --model er|ba|rmat|ws|planted|nested --n N "
               "--m M --seed S --output FILE\n"
               "  query:     --kind core|truss|nucleus34  --ids 1,2,3  "
               "--radius R  --max-iters N\n"
               "  client:    --host H --port N (--get PATH | --post PATH "
               "--body JSON) [--timeout-ms N]\n"
               "             drives a running nucleus_server; exits 0 iff "
               "the response is 2xx\n"
               "  loadtest:  --host H --port N (--get PATH | --post PATH "
               "--body JSON)\n"
               "             --connections N --requests M --pipeline W\n"
               "             measures served QPS + latency percentiles and "
               "cross-checks /metricz\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  const Args args = ParseArgs(argc, argv, 2);
  try {
    if (cmd == "generate") return CmdGenerate(args);
    if (cmd == "client") return CmdClient(args);
    if (cmd == "loadtest") return CmdLoadtest(args);
    if (!args.Has("input")) {
      std::fprintf(stderr, "error: --input is required\n");
      return Usage();
    }
    if (cmd == "stats") return CmdStats(args);
    if (cmd == "decompose") return CmdDecompose(args);
    if (cmd == "hierarchy") return CmdHierarchy(args);
    if (cmd == "query") return CmdQuery(args);
    return Usage();
  } catch (const std::exception& e) {
    // Only argument parsing (std::stoi) throws now; the library reports
    // failures through Status.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
