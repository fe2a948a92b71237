// AndGeneric template definition. Include this (not and.h) when
// instantiating AND for a clique space beyond the three canonical ones
// (see core/generic_rs.cc). Regular users include and.h.
#ifndef NUCLEUS_LOCAL_AND_IMPL_H_
#define NUCLEUS_LOCAL_AND_IMPL_H_

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "src/clique/compressed_csr_space.h"
#include "src/common/h_index.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/local/and.h"

namespace nucleus {

namespace internal {

/// Rejects malformed kGiven orders up front: a wrong-sized or
/// non-permutation order used to walk out of bounds / skip r-cliques
/// silently. The session boundary surfaces this Status directly; the
/// legacy engine entry points convert it into std::invalid_argument.
inline Status ValidateGivenOrder(std::size_t n,
                                 const std::vector<CliqueId>& given_order) {
  if (given_order.size() != n) {
    return Status::InvalidArgument(
        "AndOptions::given_order must have exactly NumRCliques() entries");
  }
  std::vector<char> seen(n, 0);
  for (CliqueId c : given_order) {
    if (c >= n || seen[c]) {
      return Status::InvalidArgument(
          "AndOptions::given_order is not a permutation of [0, n)");
    }
    seen[c] = 1;
  }
  return Status::Ok();
}

template <typename Space>
std::vector<CliqueId> MakeAndOrder(const Space& space,
                                   const std::vector<Degree>& initial,
                                   const AndOptions& options) {
  const std::size_t n = space.NumRCliques();
  std::vector<CliqueId> order(n);
  std::iota(order.begin(), order.end(), CliqueId{0});
  switch (options.order) {
    case AndOrder::kNatural:
      break;
    case AndOrder::kDegree:
      std::stable_sort(order.begin(), order.end(),
                       [&](CliqueId a, CliqueId b) {
                         return initial[a] < initial[b];
                       });
      break;
    case AndOrder::kRandom: {
      Rng rng(options.seed);
      rng.Shuffle(&order);
      break;
    }
    case AndOrder::kGiven: {
      const Status s = ValidateGivenOrder(n, options.given_order);
      if (!s.ok()) throw std::invalid_argument(s.message());
      order = options.given_order;
      break;
    }
  }
  return order;
}

/// The sweep loop proper, with tau_0 handed in (a by-product of both the
/// on-the-fly decision path and the CSR build). `initial` may be longer
/// than space.NumRCliques(): co-member ids at or past NumRCliques() then
/// name constants carried at the tail of tau_0, read but never swept (the
/// query region's frozen boundary, local/query.cc).
template <typename Space>
LocalResult AndSweeps(const Space& space, const AndOptions& options,
                      std::vector<Degree> initial, RunControl ctl = {}) {
  const LocalOptions& local = options.local;
  const std::size_t n = space.NumRCliques();
  const bool can_stop = ctl.CanStop();
  AbortFlag abort;
  LocalResult result;
  result.tau = std::move(initial);
  const std::vector<CliqueId> order =
      internal::MakeAndOrder(space, result.tau, options);

  // tau cells are plain Degree accessed through atomic_ref: concurrent
  // sweeps read possibly-stale (higher) values, which by the monotone
  // lower-bound argument of the paper only postpones convergence.
  std::vector<Degree>& tau = result.tau;
  auto load_tau = [&](CliqueId c) {
    return std::atomic_ref<const Degree>(tau[c])
        .load(std::memory_order_relaxed);
  };

  // Notification flags: c(R) of Algorithm 3. Sized to tau, so waking a
  // frozen id past n is harmless.
  std::vector<char> active(result.tau.size(), 1);

  if (local.trace != nullptr) {
    local.trace->Clear();
    if (local.trace->record_snapshots) {
      local.trace->snapshots.push_back(tau);  // tau_0
    }
  }

  for (int iter = 0; local.max_iterations == 0 || iter < local.max_iterations;
       ++iter) {
    std::atomic<std::size_t> updates{0};
    ParallelFor(
        n, local.threads,
        [&](std::size_t idx) {
          if (can_stop && PollStopAmortized(ctl, abort)) return;
          const CliqueId r = order[idx];
          if (options.use_notification) {
            std::atomic_ref<char> flag(active[r]);
            if (!flag.load(std::memory_order_relaxed)) return;
            // Mark idle *before* reading neighbors: a concurrent neighbor
            // update re-arms the flag and the next sweep re-processes r.
            flag.store(0, std::memory_order_relaxed);
          }
          const Degree old_tau = load_tau(r);
          if (old_tau == 0) return;
          static thread_local HIndexScratch scratch;
          auto& rhos = scratch.values();
          rhos.clear();
          Degree at_least_old = 0;
          space.ForEachSClique(r, [&](std::span<const CliqueId> co) {
            Degree rho = load_tau(co[0]);
            for (std::size_t i = 1; i < co.size(); ++i) {
              rho = std::min(rho, load_tau(co[i]));
            }
            if (rho >= old_tau) ++at_least_old;
            rhos.push_back(rho);
          });
          if (local.use_preserve_check && at_least_old >= old_tau) return;
          const Degree new_tau = std::min(scratch.Compute(), old_tau);
          if (new_tau == old_tau) return;
          std::atomic_ref<Degree>(tau[r]).store(new_tau,
                                                std::memory_order_relaxed);
          updates.fetch_add(1, std::memory_order_relaxed);
          if (options.use_notification) {
            // Wake every neighbor: their h-index may drop now.
            space.ForEachSClique(r, [&](std::span<const CliqueId> co) {
              for (CliqueId c : co) {
                std::atomic_ref<char>(active[c])
                    .store(1, std::memory_order_relaxed);
              }
            });
          }
        },
        local.schedule);
    if (can_stop && (abort.Raised() || ctl.ShouldStop())) {
      result.status = ctl.StopStatus();
      return result;  // tau is partial; caller must discard.
    }

    const std::size_t u = updates.load();
    if (local.trace != nullptr) {
      local.trace->updates_per_iteration.push_back(u);
      if (local.trace->record_snapshots) {
        local.trace->snapshots.push_back(tau);
      }
    }
    if (u == 0) {
      result.converged = true;
      break;
    }
    result.total_updates += u;
    ++result.iterations;
  }
  return result;
}

}  // namespace internal

template <typename Space>
LocalResult AndGeneric(const Space& space, const AndOptions& options) {
  const LocalOptions& local = options.local;
  const RunControl ctl = local.MakeControl();
  if constexpr (!internal::IsCsrSpace<Space>::value) {
    if (internal::WantMaterialize<Space>(local.materialize)) {
      const std::uint64_t budget = internal::EffectiveBudget(
          local.materialize, local.materialize_budget_bytes);
      std::vector<Degree> degrees;
      if (local.materialize != Materialize::kCompressed) {
        if (auto csr = CsrSpace<Space>::TryBuild(space, local.threads,
                                                 budget, &degrees, ctl)) {
          return internal::AndSweeps(*csr, options, csr->InitialDegrees(),
                                     ctl);
        }
        if (ctl.CanStop() && ctl.ShouldStop()) {
          LocalResult stopped;
          stopped.status = ctl.StopStatus();
          return stopped;
        }
      }
      // Compressed rung: the explicit kCompressed mode, or kAuto degrading
      // after the uncompressed arena exceeded the budget.
      if (local.materialize != Materialize::kOn) {
        if (auto packed = CompressedCsrSpace<Space>::TryBuild(
                space, local.threads, budget, &degrees, ctl)) {
          return internal::AndSweeps(*packed, options,
                                     packed->InitialDegrees(), ctl);
        }
        if (ctl.CanStop() && ctl.ShouldStop()) {
          LocalResult stopped;
          stopped.status = ctl.StopStatus();
          return stopped;
        }
      }
      // Over budget: the counting attempt already produced tau_0.
      return internal::AndSweeps(space, options, std::move(degrees), ctl);
    }
  }
  return internal::AndSweeps(space, options,
                             space.InitialDegrees(local.threads), ctl);
}

}  // namespace nucleus

#endif  // NUCLEUS_LOCAL_AND_IMPL_H_
