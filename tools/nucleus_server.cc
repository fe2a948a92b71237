// nucleus_server — the HTTP/JSON front end over the nucleus library.
//
//   nucleus_server --port 8080 --preload web=graphs/web.txt
//       --workers 8 --queue-depth 128 --memory-budget-mb 4096
//
// Serves the endpoints documented in src/server/http.h through the epoll
// reactor (src/server/reactor.h: a few event-loop threads own every
// connection). The reactor needs Linux; elsewhere the server reports that
// it cannot start and exits 1. --port 0 binds an ephemeral port (printed
// on stdout), which is what the CI smoke test uses. Graphs can be preloaded
// at startup (name=path, repeatable) or loaded at runtime through
// POST /api/load.
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <semaphore>
#include <string>
#include <vector>

#include "src/server/reactor.h"
#include "src/server/server_core.h"

namespace {

std::binary_semaphore g_shutdown{0};

void HandleSignal(int) { g_shutdown.release(); }

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--port N] [--preload name=path ...] [--workers N]\n"
      "          [--queue-depth N] [--memory-budget-mb N]\n"
      "          [--arena-budget-mb N] [--default-deadline-ms N]\n"
      "          [--materialize auto|on|off|compressed]\n"
      "          [--loops N] [--max-connections N]\n"
      "          [--idle-timeout-ms N] [--read-deadline-ms N]\n"
      "          [--class-weight CLASS=N ...] [--class-limit CLASS=N ...]\n"
      "          [--negcache-ttl-ms N] [--batch-nice N]\n"
      "\n"
      "  --port N               listen port on 127.0.0.1 (0 = ephemeral;\n"
      "                         default 8080). The bound port is printed\n"
      "                         as 'listening on 127.0.0.1:N'.\n"
      "  --preload name=path    load a graph at startup (repeatable);\n"
      "                         format auto-detected (SNAP text / binary)\n"
      "  --workers N            admission-queue worker threads (default 4)\n"
      "  --queue-depth N        queued requests before shedding (default 64)\n"
      "  --memory-budget-mb N   global LRU eviction budget (default 4096)\n"
      "  --arena-budget-mb N    per-graph arena budget (default 512)\n"
      "  --default-deadline-ms N  deadline for requests naming none\n"
      "                         (default 0 = unbounded)\n"
      "  --materialize M        arena mode for requests naming none:\n"
      "                         auto (budget ladder: csr, then compressed,\n"
      "                         then on the fly), on, off, or compressed\n"
      "                         (default auto)\n"
      "  --loops N              reactor event-loop threads (default 2)\n"
      "  --max-connections N    open-connection cap; accepts beyond it are\n"
      "                         answered 503 (default 1024)\n"
      "  --idle-timeout-ms N    close idle connections after N ms\n"
      "                         (default 60000; 0 disables)\n"
      "  --read-deadline-ms N   close connections that stall mid-request\n"
      "                         after N ms with 408 (default 10000;\n"
      "                         0 disables)\n"
      "  --class-weight CLASS=N dequeue share for an admission class\n"
      "                         (read, build, update, admin)\n"
      "  --class-limit CLASS=N  concurrent-execution cap for a class\n"
      "                         (0 = default: all workers; update defaults\n"
      "                         to half)\n"
      "  --negcache-ttl-ms N    negative-result cache TTL (default 2000;\n"
      "                         0 disables)\n"
      "  --batch-nice N         extra nice applied to workers while they\n"
      "                         run build/update requests, so inline reads\n"
      "                         preempt batch work (default 5; 0 disables)\n",
      argv0);
  std::exit(2);
}

std::int64_t ParseInt(const char* argv0, const char* flag, const char* s) {
  char* end = nullptr;
  const long long v = std::strtoll(s, &end, 10);
  if (end == s || *end != '\0' || v < 0) {
    std::fprintf(stderr, "%s: bad value for %s: %s\n", argv0, flag, s);
    Usage(argv0);
  }
  return v;
}

nucleus::ClassPolicy* PolicyFor(nucleus::ServerConfig& config,
                                const std::string& name) {
  if (name == "read") return &config.class_read;
  if (name == "build") return &config.class_build;
  if (name == "update") return &config.class_update;
  if (name == "admin") return &config.class_admin;
  return nullptr;
}

// Parses "CLASS=N" and stores N into the named class's weight or cap.
void ParseClassSpec(const char* argv0, const char* flag, const char* raw,
                    nucleus::ServerConfig& config, bool weight) {
  const std::string spec = raw;
  const std::size_t eq = spec.find('=');
  nucleus::ClassPolicy* policy =
      eq == std::string::npos ? nullptr
                              : PolicyFor(config, spec.substr(0, eq));
  if (policy == nullptr) {
    std::fprintf(stderr, "%s: %s wants read|build|update|admin=N, got %s\n",
                 argv0, flag, raw);
    Usage(argv0);
  }
  const int value =
      static_cast<int>(ParseInt(argv0, flag, spec.c_str() + eq + 1));
  if (weight) {
    policy->weight = value;
  } else {
    policy->max_concurrency = value;
  }
}

}  // namespace

int main(int argc, char** argv) {
  int port = 8080;
  nucleus::ServerConfig config;
  nucleus::ReactorConfig reactor_config;
  std::vector<std::pair<std::string, std::string>> preloads;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", argv[0], arg.c_str());
        Usage(argv[0]);
      }
      return argv[++i];
    };
    if (arg == "--port") {
      port = static_cast<int>(ParseInt(argv[0], "--port", next()));
    } else if (arg == "--workers") {
      config.workers =
          static_cast<int>(ParseInt(argv[0], "--workers", next()));
    } else if (arg == "--queue-depth") {
      config.queue_capacity = static_cast<std::size_t>(
          ParseInt(argv[0], "--queue-depth", next()));
    } else if (arg == "--memory-budget-mb") {
      config.global_memory_budget_bytes =
          static_cast<std::uint64_t>(
              ParseInt(argv[0], "--memory-budget-mb", next()))
          << 20;
    } else if (arg == "--arena-budget-mb") {
      config.default_arena_budget_bytes =
          static_cast<std::uint64_t>(
              ParseInt(argv[0], "--arena-budget-mb", next()))
          << 20;
    } else if (arg == "--default-deadline-ms") {
      config.default_deadline_ms =
          ParseInt(argv[0], "--default-deadline-ms", next());
    } else if (arg == "--materialize") {
      const std::string mode = next();
      if (mode != "auto" && mode != "on" && mode != "off" &&
          mode != "compressed") {
        std::fprintf(stderr,
                     "%s: --materialize wants auto|on|off|compressed, got %s\n",
                     argv[0], mode.c_str());
        Usage(argv[0]);
      }
      config.default_materialize = mode;
    } else if (arg == "--loops") {
      reactor_config.loops =
          static_cast<int>(ParseInt(argv[0], "--loops", next()));
    } else if (arg == "--max-connections") {
      reactor_config.max_connections =
          static_cast<int>(ParseInt(argv[0], "--max-connections", next()));
    } else if (arg == "--idle-timeout-ms") {
      reactor_config.idle_timeout_ms =
          ParseInt(argv[0], "--idle-timeout-ms", next());
    } else if (arg == "--read-deadline-ms") {
      reactor_config.read_deadline_ms =
          ParseInt(argv[0], "--read-deadline-ms", next());
    } else if (arg == "--class-weight") {
      ParseClassSpec(argv[0], "--class-weight", next(), config,
                     /*weight=*/true);
    } else if (arg == "--class-limit") {
      ParseClassSpec(argv[0], "--class-limit", next(), config,
                     /*weight=*/false);
    } else if (arg == "--negcache-ttl-ms") {
      config.negative_cache_ttl_ms =
          ParseInt(argv[0], "--negcache-ttl-ms", next());
    } else if (arg == "--batch-nice") {
      config.batch_nice =
          static_cast<int>(ParseInt(argv[0], "--batch-nice", next()));
    } else if (arg == "--preload") {
      const std::string spec = next();
      const std::size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
        std::fprintf(stderr, "%s: --preload wants name=path, got %s\n",
                     argv[0], spec.c_str());
        Usage(argv[0]);
      }
      preloads.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
    } else {
      std::fprintf(stderr, "%s: unknown flag %s\n", argv[0], arg.c_str());
      Usage(argv[0]);
    }
  }

  nucleus::ServerCore core(config);
  for (const auto& [name, path] : preloads) {
    auto loaded = core.registry().Load(name, path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "preload %s failed: %s\n", name.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "loaded %s: %zu vertices, %zu edges\n", name.c_str(),
                 (*loaded)->session.graph().NumVertices(),
                 (*loaded)->session.graph().NumEdges());
  }

  reactor_config.port = port;
  nucleus::ReactorServer reactor(&core, reactor_config);
  if (nucleus::Status s = reactor.Start(); !s.ok()) {
    std::fprintf(stderr, "start failed: %s\n", s.ToString().c_str());
    return 1;
  }
  // Parsed by scripts driving the server (the CI smoke test binds port 0
  // and reads the chosen port from this line), so keep it stable.
  std::printf("listening on 127.0.0.1:%d\n", reactor.port());
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  g_shutdown.acquire();
  std::fprintf(stderr, "shutting down\n");
  reactor.Stop();
  core.Shutdown();
  return 0;
}
