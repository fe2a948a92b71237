// perfbench_harness: the benchmark's compiled half. perfbench/run.py builds
// it, prepares the inputs of a seed once, then runs one workload per
// process:
//
//   perfbench_harness prepare --seed N --dir DIR [--tiny]
//   perfbench_harness run --workload NAME --seed N --seconds S --trace 0|1
//                         --inputs DIR [--trace-out FILE] [--corrupt-first-kappa]
//
// `run` prints human-readable lines and, last, one JSON result line.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "perfbench/harness/common.h"
#include "perfbench/harness/inputs.h"
#include "perfbench/harness/workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness prepare --seed N --dir DIR [--tiny]\n"
               "       perfbench_harness run --workload NAME --seed N --seconds S "
               "--trace 0|1 --inputs DIR [--trace-out FILE] [--corrupt-first-kappa]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) return Usage();
    a = a.substr(2);
    if (a == "tiny" || a == "corrupt-first-kappa") {
      flags[a] = "1";
    } else if (i + 1 < argc) {
      flags[a] = argv[++i];
    } else {
      return Usage();
    }
  }
  auto flag = [&](const char* name) {
    const auto it = flags.find(name);
    return it == flags.end() ? std::string() : it->second;
  };
  std::string error;
  if (cmd == "prepare") {
    if (flag("seed").empty() || flag("dir").empty()) return Usage();
    if (!PrepareInputs(std::strtoull(flag("seed").c_str(), nullptr, 10),
                       flag("tiny").empty() ? FullGraph() : TinyGraph(), flag("dir"),
                       &error)) {
      std::fprintf(stderr, "perfbench: prepare failed: %s\n", error.c_str());
      return 1;
    }
    return 0;
  }
  if (cmd != "run") return Usage();

  RunConfig cfg;
  cfg.workload = flag("workload");
  cfg.seed = std::strtoull(flag("seed").c_str(), nullptr, 10);
  cfg.seconds = std::atof(flag("seconds").c_str());
  cfg.trace = flag("trace") == "1";
  cfg.trace_out = flag("trace-out");
  cfg.corrupt_first_kappa = !flag("corrupt-first-kappa").empty();
  if (!IsWorkload(cfg.workload) || cfg.seconds <= 0 || flag("inputs").empty()) {
    return Usage();
  }
  Inputs inputs;
  if (!LoadInputs(flag("inputs"), &inputs, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 1;
  }
  const RunResult r = RunWorkload(cfg, inputs);
  std::string out = "{\"correct\": ";
  out += r.failed == 0 && r.attempted > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted) +
         ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    out += (i ? ", \"" : "\"") + JsonEscape(m.name) + "\": {\"value\": " +
           JsonNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}
