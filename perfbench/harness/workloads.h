// The four workloads: each sets up, replays its seeded op sequence for the
// requested seconds, checks every output, and reports its metrics. A traced
// run additionally times the benchmark's own calls into each module.
#ifndef PERFBENCH_HARNESS_WORKLOADS_H_
#define PERFBENCH_HARNESS_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/harness/inputs.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where a traced run writes its spans (JSON lines); empty = nowhere.
  std::string trace_out;
  /// Self-test only: replace the first kappa read body with one whose
  /// value differs, which must register as a failed op.
  bool corrupt_first_kappa = false;
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

bool IsWorkload(const std::string& name);

/// Runs one workload; human-readable lines go to stdout as it goes.
RunResult RunWorkload(const RunConfig& config, const Inputs& inputs);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_WORKLOADS_H_
