// StateCell<T>: a lazily-built, cached piece of derived state with
// build-outside / install-under-lock concurrency — the per-kind locking
// primitive of NucleusSession.
//
// Readers take the cell's shared_mutex in shared mode only long enough to
// observe the installed pointer; a first-touch builder serializes on the
// cell's build mutex (so the expensive construction runs exactly once and
// concurrent same-cell callers wait for the result), builds WITHOUT the
// shared_mutex held, then installs under a brief exclusive lock. Builders
// of different cells therefore never block each other: a cold (3,4)
// triangle-index build proceeds while (1,2) readers stream through their
// own cells untouched.
//
// The installed value is pinned (unique_ptr), so pointers returned by
// TryGet/GetOrTryBuild stay valid until Reset(). There is one build entry
// point, the fallible GetOrTryBuild: every builder can fail (fault point,
// cancellation), and a failure installs nothing. Reset()/Mutable() are for
// single-writer phases only (the session calls them holding its
// session-wide mutex exclusively, with no concurrent readers).
#ifndef NUCLEUS_COMMON_STATE_CELL_H_
#define NUCLEUS_COMMON_STATE_CELL_H_

#include <memory>
#include <mutex>
#include <shared_mutex>
#include <utility>

#include "src/common/status.h"

namespace nucleus {

template <typename T>
class StateCell {
 public:
  StateCell() = default;
  StateCell(const StateCell&) = delete;
  StateCell& operator=(const StateCell&) = delete;

  /// The installed value, or nullptr. Safe to call concurrently with a
  /// racing builder (takes the shared lock to observe the pointer).
  const T* TryGet() const {
    std::shared_lock<std::shared_mutex> lk(mu_);
    return value_.get();
  }

  /// Returns the installed value, building it via `build()` if absent.
  /// At most one builder runs at a time; concurrent callers of the same
  /// cell block on the build mutex, while other cells proceed
  /// independently. The builder is fallible: it returns StatusOr<T>. On
  /// failure (cancellation, deadline, injected fault, over-budget)
  /// NOTHING installs — the cell stays bitwise as-if-never-attempted, the
  /// failure Status propagates to this caller only, and the next caller
  /// re-runs the builder from scratch. Waiters that were blocked on the
  /// build mutex observe the still-empty cell and take their own attempt,
  /// so one caller's cancellation never poisons another's request.
  template <typename BuildFn>
  StatusOr<const T*> GetOrTryBuild(BuildFn&& build) {
    {
      std::shared_lock<std::shared_mutex> lk(mu_);
      if (value_) return static_cast<const T*>(value_.get());
    }
    std::lock_guard<std::mutex> build_lk(build_mu_);
    {
      std::shared_lock<std::shared_mutex> lk(mu_);
      if (value_) return static_cast<const T*>(value_.get());
    }
    StatusOr<T> built = build();
    if (!built.ok()) return built.status();
    auto owned = std::make_unique<T>(std::move(built).value());
    std::unique_lock<std::shared_mutex> lk(mu_);
    value_ = std::move(owned);
    return static_cast<const T*>(value_.get());
  }

  /// Mutable access for the exclusive-writer phase (commit); nullptr when
  /// absent. The caller must exclude all concurrent readers.
  T* Mutable() { return value_.get(); }

  /// Replaces the value during the exclusive-writer phase.
  void Install(T value) { value_ = std::make_unique<T>(std::move(value)); }

  /// Drops the value during the exclusive-writer phase.
  void Reset() { value_.reset(); }

  bool Has() const { return TryGet() != nullptr; }

 private:
  mutable std::shared_mutex mu_;  // guards value_ installation
  std::mutex build_mu_;           // serializes same-cell builders
  std::unique_ptr<T> value_;
};

}  // namespace nucleus

#endif  // NUCLEUS_COMMON_STATE_CELL_H_
