// Shared pieces of the benchmark harness: clocks, order statistics, the
// seeded RNG the inputs are drawn from, process memory, and the in-memory
// span recorder used by traced runs.
#ifndef PERFBENCH_HARNESS_COMMON_H_
#define PERFBENCH_HARNESS_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double MsSince(Clock::time_point a) { return MsBetween(a, Clock::now()); }

/// Arithmetic mean of `v` (0 for an empty sample).
double Mean(const std::vector<double>& v);
/// Median of `v` (0 for an empty sample).
double Median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> v, double q);
/// The highest of the percentiles 99.9 / 99 / 98 / 95 / 90 / 75 / 50 that
/// has at least ten samples beyond it; writes the percentile used to *pct
/// (0 when fewer than 20 samples exist, in which case the max is returned).
double TailPercentile(const std::vector<double>& v, double* pct);

/// splitmix64: the benchmark's own generator, independent of the
/// program's RNG so that no change under src/ can alter a workload.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n).
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }

 private:
  std::uint64_t state_;
};

/// Peak resident set size of this process in MB (VmHWM).
double PeakRssMb();
/// Current resident set size of this process in MB.
double RssMb();
/// Heap bytes in use by this process, in MB: the allocator's count of live
/// allocations over all arenas (glibc mallinfo2: uordblks + hblkhd). Unlike
/// the resident set, it does not depend on whether freed memory went back
/// to the system.
double HeapMb();

/// One timed interval. Spans of one op share `op`; `parent` indexes the
/// enclosing span (-1 for an op's roots).
struct Span {
  std::string name;
  int op = 0;
  int parent = -1;
  double start_ms = 0;
  double end_ms = 0;
};

/// In-memory span and counter recorder. Disabled tracers record nothing,
/// so the same code path serves traced and untraced runs.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  /// Starts a new op; later spans and values belong to it.
  void BeginOp() { ++op_; }

  int Open(const std::string& name);
  void Close(int index);
  /// Records a span of `duration_ms` that ends now.
  void Add(const std::string& name, double duration_ms);
  /// Records a per-op measurement that is not a span (a count, a size, or a
  /// time derived from other spans).
  void Value(const std::string& name, double value);

  const std::vector<Span>& spans() const { return spans_; }
  /// Sum of the values named `name` in each op that has one.
  std::vector<double> PerOpValues(const std::string& name) const;
  /// Writes one JSON object per span and per value.
  bool WriteJsonl(const std::string& path) const;

 private:
  bool enabled_;
  int op_ = 0;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::vector<std::pair<int, std::pair<std::string, double>>> values_;
};

/// RAII span: opens at construction, closes at destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name)
      : tracer_(tracer), index_(tracer->Open(name)) {}
  ~ScopedSpan() { tracer_->Close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

/// Formats a double with full precision for the result line.
std::string JsonNumber(double v);
std::string JsonEscape(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_COMMON_H_
