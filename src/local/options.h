// The shared execution knobs of every decomposition entry point.
// LocalOptions (SND/AND) and DecomposeOptions (session) both derive from
// the single Options aggregate below, so the shared knobs exist exactly
// once and propagate with one slice-assignment.
#ifndef NUCLEUS_LOCAL_OPTIONS_H_
#define NUCLEUS_LOCAL_OPTIONS_H_

#include <cstdint>

#include "src/clique/csr_space.h"
#include "src/common/cancel.h"
#include "src/common/parallel.h"

namespace nucleus {

struct ConvergenceTrace;

/// Knobs common to the local engines (SND/AND) and the session API. Derived option structs add their algorithm-specific fields.
struct Options {
  /// Worker threads for the per-r-clique loops (and, via the session, for
  /// index/arena construction).
  int threads = 1;
  /// Stop after this many sweeps even if not converged; 0 = run until
  /// convergence. Truncated runs give the paper's time/quality trade-off.
  int max_iterations = 0;
  /// Loop scheduling; the paper argues for dynamic (Section 4.4).
  Schedule schedule = Schedule::kDynamic;
  /// Materialize s-clique co-member lists into a flat arena before
  /// iterating, turning every sweep into a contiguous scan. kAuto walks a
  /// degradation ladder against materialize_budget_bytes: the uncompressed
  /// CSR arena (csr_space.h) when it fits, else the delta+varint
  /// compressed arena (compressed_csr_space.h, typically several x
  /// smaller at a small decode cost), else on the fly (except for
  /// CoreSpace, whose on-the-fly scan is already contiguous and never
  /// materializes under kAuto). kCompressed asks for the compressed rung
  /// directly (still budget-gated, degrading to the fly space); kOff
  /// reproduces the paper's pure on-the-fly Section 5 behavior.
  Materialize materialize = Materialize::kAuto;
  /// Memory budget for kAuto/kCompressed; arenas estimated above this
  /// degrade down the ladder.
  std::uint64_t materialize_budget_bytes = std::uint64_t{512} << 20;
  /// Optional instrumentation sink.
  ConvergenceTrace* trace = nullptr;
  /// Wall-clock budget for the whole call in milliseconds; 0 = unbounded.
  /// The clock starts at the entry point; an expired run unwinds with
  /// kDeadlineExceeded and installs nothing.
  std::int64_t deadline_ms = 0;
  /// Optional cooperative cancellation source (not owned; the caller keeps
  /// it alive for the duration of the call). A fired token unwinds the
  /// run with kCancelled and installs nothing.
  const CancelToken* cancel_token = nullptr;

  /// The control a run derived from these knobs polls; the deadline clock
  /// starts at the call.
  RunControl MakeControl() const {
    return MakeRunControl(cancel_token, deadline_ms);
  }
};

}  // namespace nucleus

#endif  // NUCLEUS_LOCAL_OPTIONS_H_
