#include "src/core/session.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>

#include "src/common/fault_injection.h"
#include "src/common/timer.h"
#include "src/local/and_impl.h"  // internal::ValidateGivenOrder, AndSweeps
#include "src/local/snd_impl.h"  // internal::SndSweeps
#include "src/peel/generic_peel.h"

namespace nucleus {

namespace {

Status ValidateCommonOptions(const Options& options) {
  if (options.threads < 0) {
    return Status::InvalidArgument("threads must be >= 0");
  }
  if (options.max_iterations < 0) {
    return Status::InvalidArgument("max_iterations must be >= 0");
  }
  return Status::Ok();
}

// Runs the selected engine over a concrete space. All materialization
// decisions were already made by the session (the space may itself be a
// CsrSpace arena), so the engine is told kOff and never self-materializes.
// `initial` carries the session-cached d_s values (empty = let the engine
// count them); every engine — peeling included — consumes its copy
// destructively. A stopped run (Options::cancel_token / deadline_ms, which
// the session re-derives with the deadline time already spent on index and
// arena builds subtracted) returns the engine's kCancelled /
// kDeadlineExceeded status with no partial payload.
template <typename Space>
StatusOr<DecomposeResult> RunEngine(const Space& space,
                                    const DecomposeOptions& options,
                                    std::vector<Degree> initial) {
  DecomposeResult out;
  out.num_r_cliques = space.NumRCliques();
  const bool has_initial = initial.size() == out.num_r_cliques;
  const RunControl ctl = options.MakeControl();
  Timer timer;
  switch (options.method) {
    case Method::kPeeling: {
      PeelOptions peel_opts;
      peel_opts.strategy = options.peel_strategy;
      peel_opts.threads = options.threads;
      peel_opts.deadline_ms = options.deadline_ms;
      peel_opts.cancel_token = options.cancel_token;
      // The session already decided materialization (the space may be a
      // CsrSpace arena); never self-materialize inside the engine.
      peel_opts.materialize = Materialize::kOff;
      PeelResult peel =
          has_initial
              ? PeelDecomposition(space, peel_opts, std::move(initial))
              : PeelDecomposition(space, peel_opts);
      if (!peel.status.ok()) return peel.status;
      out.kappa = std::move(peel.kappa);
      out.peel_order = std::move(peel.order);
      out.peel_levels = std::move(peel.levels);
      out.exact = true;
      break;
    }
    case Method::kSnd: {
      LocalOptions local;
      static_cast<Options&>(local) = options;
      local.materialize = Materialize::kOff;
      LocalResult r =
          has_initial
              ? internal::SndSweeps(space, local, std::move(initial), ctl)
              : SndGeneric(space, local);
      if (!r.status.ok()) return r.status;
      out.kappa = std::move(r.tau);
      out.iterations = r.iterations;
      out.exact = r.converged;
      break;
    }
    case Method::kAnd: {
      AndOptions opts;
      static_cast<Options&>(opts.local) = options;
      opts.local.materialize = Materialize::kOff;
      opts.order = options.order;
      opts.given_order = options.given_order;
      opts.seed = options.seed;
      opts.use_notification = options.use_notification;
      LocalResult r =
          has_initial
              ? internal::AndSweeps(space, opts, std::move(initial), ctl)
              : AndGeneric(space, opts);
      if (!r.status.ok()) return r.status;
      out.kappa = std::move(r.tau);
      out.iterations = r.iterations;
      out.exact = r.converged;
      break;
    }
  }
  out.seconds = timer.Seconds();
  return out;
}

// Re-derives the engine-facing options from the entry point's RunControl:
// the cancel token passes through and the deadline collapses to the
// REMAINING milliseconds, so the engine's internal MakeControl clock
// restart does not grant back the time already spent building indices.
DecomposeOptions WithRemainingControl(const DecomposeOptions& options,
                                      RunControl ctl) {
  DecomposeOptions run = options;
  if (ctl.CanStop()) {
    run.cancel_token = ctl.token();
    run.deadline_ms =
        ctl.deadline().IsInfinite()
            ? 0
            : std::max<std::int64_t>(1, ctl.deadline().RemainingMs());
  }
  return run;
}

// The kind table: everything that differs between the three (r,s)
// instances. The rest of the session is written once over it, through
// VisitKind (the kind a caller named) and ForEachKind (all three).
//
// Per kind: its space and the index the space is made from (the (1,2)
// space needs only the graph, so its "index" is the Graph itself), the
// maintainer that carries its kappa through a commit, its SessionStats
// arena-build and kappa-seed counters, its names (canonical first), the
// noun of its ids in query errors, and whether a commit can tombstone its
// ids. kS is the s of the (r,s) pair: r-cliques per s-clique.
struct CoreKind {
  static constexpr DecompositionKind kKind = DecompositionKind::kCore;
  static constexpr std::size_t kS = 2;
  using Space = CoreSpace;
  using Index = Graph;
  using Maintainer = DynamicCoreMaintainer;
  static constexpr const char* kNames[] = {"core", "(1,2)", "12"};
  static constexpr const char* kIdNoun = "vertex";
  static constexpr bool kTombstones = false;
  static constexpr std::uint64_t SessionStats::*kArenaBuilds =
      &SessionStats::core_arena_builds;
  static constexpr std::uint64_t SessionStats::*kKappaSeeds = nullptr;

  static Space MakeSpace(const Graph& g, const Index&) { return Space(g); }
  static QueryEstimate Estimate(const Graph& g, const Index&,
                                std::span<const CliqueId> ids,
                                const QueryOptions& options,
                                RunControl ctl) {
    return EstimateCoreNumbers(g, ids, options, ctl);
  }
};

struct TrussKind {
  static constexpr DecompositionKind kKind = DecompositionKind::kTruss;
  static constexpr std::size_t kS = 3;
  using Space = TrussSpace;
  using Index = EdgeIndex;
  using Maintainer = DynamicTrussMaintainer;
  static constexpr const char* kNames[] = {"truss", "(2,3)", "23"};
  static constexpr const char* kIdNoun = "edge";
  static constexpr bool kTombstones = true;
  static constexpr std::uint64_t SessionStats::*kArenaBuilds =
      &SessionStats::truss_arena_builds;
  static constexpr std::uint64_t SessionStats::*kKappaSeeds =
      &SessionStats::truss_kappa_seeds;

  static Space MakeSpace(const Graph& g, const Index& edges) {
    return Space(g, edges);
  }
  static QueryEstimate Estimate(const Graph& g, const Index& edges,
                                std::span<const CliqueId> ids,
                                const QueryOptions& options,
                                RunControl ctl) {
    return EstimateTrussNumbers(g, edges, ids, options, ctl);
  }
};

struct Nucleus34Kind {
  static constexpr DecompositionKind kKind = DecompositionKind::kNucleus34;
  static constexpr std::size_t kS = 4;
  using Space = Nucleus34Space;
  using Index = TriangleIndex;
  using Maintainer = DynamicNucleus34Maintainer;
  static constexpr const char* kNames[] = {"nucleus34", "nucleus", "(3,4)",
                                           "34"};
  static constexpr const char* kIdNoun = "triangle";
  static constexpr bool kTombstones = true;
  static constexpr std::uint64_t SessionStats::*kArenaBuilds =
      &SessionStats::nucleus34_arena_builds;
  static constexpr std::uint64_t SessionStats::*kKappaSeeds =
      &SessionStats::nucleus34_kappa_seeds;

  static Space MakeSpace(const Graph& g, const Index& tris) {
    return Space(g, tris);
  }
  static QueryEstimate Estimate(const Graph& g, const Index& tris,
                                std::span<const CliqueId> ids,
                                const QueryOptions& options,
                                RunControl ctl) {
    return EstimateNucleus34Numbers(g, tris, ids, options, ctl);
  }
};

template <typename Fn>
decltype(auto) VisitKind(DecompositionKind kind, Fn&& fn) {
  switch (kind) {
    case DecompositionKind::kCore:
      return fn(CoreKind{});
    case DecompositionKind::kTruss:
      return fn(TrussKind{});
    case DecompositionKind::kNucleus34:
      return fn(Nucleus34Kind{});
  }
  std::abort();  // not a DecompositionKind enumerator
}

template <typename Fn>
void ForEachKind(Fn&& fn) {
  fn(CoreKind{});
  fn(TrussKind{});
  fn(Nucleus34Kind{});
}

// Position of the kind in per-kind arrays (SessionStateStats, the commit's
// staged kappa and hierarchies).
template <typename K>
constexpr std::size_t Slot(K) {
  return static_cast<std::size_t>(K::kKind);
}

// One kind's share of a commit's delta, in that kind's id space: the
// s-cliques that die and are born, as their member r-clique ids, and the
// r-clique ids that die and are born with them.
template <std::size_t S>
struct KindDelta {
  std::vector<std::array<CliqueId, S>> dead, born;
  std::vector<CliqueId> dead_ids, born_ids;
};

template <std::size_t S>
std::vector<std::vector<CliqueId>> MembersOf(
    const std::vector<std::array<CliqueId, S>>& s_cliques) {
  std::vector<std::vector<CliqueId>> out;
  out.reserve(s_cliques.size());
  for (const auto& members : s_cliques) {
    out.emplace_back(members.begin(), members.end());
  }
  return out;
}

// Kappa of a patched index's live ids in the order a fresh index of the
// same graph numbers them: lexicographic by vertex tuple, which is how
// EdgeIndex and TriangleIndex assign pristine ids. Compaction re-seeds its
// kind's cache with this; it sorts every live id, but compaction is rare.
template <typename Index>
std::vector<Degree> KappaInFreshOrder(const Index& index,
                                      const std::vector<Degree>& kappa) {
  const auto tuple = [&index](CliqueId id) {
    if constexpr (std::is_same_v<Index, EdgeIndex>) {
      return index.Endpoints(id);
    } else {
      return index.Vertices(id);
    }
  };
  std::vector<CliqueId> live;
  live.reserve(kappa.size());
  for (CliqueId id = 0; id < kappa.size(); ++id) {
    if (index.IsLive(id)) live.push_back(id);
  }
  std::sort(live.begin(), live.end(), [&](CliqueId a, CliqueId b) {
    return tuple(a) < tuple(b);
  });
  std::vector<Degree> out;
  out.reserve(live.size());
  for (CliqueId id : live) out.push_back(kappa[id]);
  return out;
}

// The largest level a commit's kappa change reaches: max(before, after)
// over the ids whose value differs, an id past a vector's end reading 0.
// Only the `candidates` (the ids the maintainer wrote and the ids born in
// the patched id space) can differ, so only they are compared.
Degree TouchedLevel(
    const std::vector<Degree>& before, const std::vector<Degree>& after,
    std::initializer_list<std::span<const CliqueId>> candidates) {
  Degree level = 0;
  for (std::span<const CliqueId> ids : candidates) {
    for (CliqueId i : ids) {
      const Degree b = i < before.size() ? before[i] : 0;
      const Degree a = i < after.size() ? after[i] : 0;
      if (b != a) level = std::max(level, std::max(b, a));
    }
  }
  return level;
}

// The reference-returning accessors build with an unstoppable control, so
// only an armed fault point can fail them; a reference cannot carry the
// Status, so the process stops with its message.
template <typename T>
const T& ValueOrDie(const StatusOr<const T*>& r) {
  if (!r.ok()) {
    std::fprintf(stderr, "NucleusSession: index build failed: %s\n",
                 r.status().ToString().c_str());
    std::abort();
  }
  return **r;
}

}  // namespace

const char* KindName(DecompositionKind kind) {
  return VisitKind(kind, [](auto k) { return decltype(k)::kNames[0]; });
}

StatusOr<DecompositionKind> ParseKindName(const std::string& name) {
  std::optional<DecompositionKind> found;
  std::string want;
  ForEachKind([&](auto k) {
    using K = decltype(k);
    for (const char* alias : K::kNames) {
      if (name == alias) found = K::kKind;
    }
    want += want.empty() ? "" : " | ";
    want += K::kNames[0];
  });
  if (found.has_value()) return *found;
  return Status::InvalidArgument("unknown kind '" + name + "' (want " +
                                 want + ")");
}

NucleusSession::NucleusSession(Graph&& graph)
    : storage_(std::move(graph)), graph_(&storage_) {}

NucleusSession::NucleusSession(const Graph& graph) : graph_(&graph) {}

void NucleusSession::BumpStat(std::uint64_t SessionStats::* field) {
  std::lock_guard<std::mutex> lk(stats_mu_);
  ++(stats_.*field);
}

NucleusSession::ResultCell& NucleusSession::Results(DecompositionKind kind) {
  return VisitKind(kind, [this](auto k) -> ResultCell& { return State(k); });
}

template <>
StatusOr<const Graph*> NucleusSession::IndexShared<Graph>(int, double*,
                                                          RunControl) {
  return graph_;
}

template <>
StatusOr<const EdgeIndex*> NucleusSession::IndexShared<EdgeIndex>(
    int, double* build_seconds, RunControl) {
  return edge_index_.GetOrTryBuild([&]() -> StatusOr<EdgeIndex> {
    NUCLEUS_FAULT_POINT("edge_index_build");
    Timer t;
    EdgeIndex idx(*graph_);
    if (build_seconds != nullptr) *build_seconds += t.Seconds();
    BumpStat(&SessionStats::edge_index_builds);
    return idx;
  });
}

template <>
StatusOr<const TriangleIndex*> NucleusSession::IndexShared<TriangleIndex>(
    int threads, double* build_seconds, RunControl ctl) {
  return triangle_index_.GetOrTryBuild([&]() -> StatusOr<TriangleIndex> {
    NUCLEUS_FAULT_POINT("triangle_index_build");
    Timer t;
    TriangleIndex idx(*graph_, std::max(threads, 1), ctl);
    if (idx.aborted()) return ctl.StopStatus();
    if (build_seconds != nullptr) *build_seconds += t.Seconds();
    BumpStat(&SessionStats::triangle_index_builds);
    return idx;
  });
}

const EdgeIndex& NucleusSession::Edges() {
  std::shared_lock<std::shared_mutex> lk(session_mu_);
  return ValueOrDie(IndexShared<EdgeIndex>(1, nullptr, RunControl()));
}

const TriangleIndex& NucleusSession::Triangles(int threads) {
  std::shared_lock<std::shared_mutex> lk(session_mu_);
  return ValueOrDie(IndexShared<TriangleIndex>(threads, nullptr, RunControl()));
}

std::size_t NucleusSession::NumRCliques(DecompositionKind kind) {
  std::shared_lock<std::shared_mutex> lk(session_mu_);
  return VisitKind(kind, [&](auto k) {
    using K = decltype(k);
    const auto& index = ValueOrDie(
        IndexShared<typename K::Index>(1, nullptr, RunControl()));
    return K::MakeSpace(*graph_, index).NumRCliques();
  });
}

std::optional<StatusOr<DecomposeResult>> NucleusSession::TryServeFromCache(
    ResultCell& cell, const DecomposeOptions& options) {
  // Traced runs bypass the caches — the caller wants the iteration
  // record, not just the fixed point.
  if (!options.use_result_cache || options.trace != nullptr) {
    return std::nullopt;
  }
  std::lock_guard<std::mutex> lk(cell.mu);
  DecomposeResult out;
  if (cell.kappa.has_value()) {
    // kappa is unique (Theorems 1-3), so the cached exact answer serves
    // any exact request whatever engine the caller named — and any
    // truncated request too (exact beats truncated: every truncated run
    // approaches kappa from above, so the fixed point is an answer at
    // least as converged as requested).
    out.kappa = *cell.kappa;
    out.exact = true;
  } else if (options.max_iterations > 0) {
    const auto it =
        cell.tau_cache.find({options.method, options.max_iterations});
    if (it == cell.tau_cache.end()) return std::nullopt;
    out.kappa = it->second.tau;
    out.iterations = it->second.iterations;
    out.exact = it->second.exact;
  } else {
    return std::nullopt;
  }
  // A cache hit must reject the same malformed input a cold call would;
  // the cached vector's size is the kind's r-clique id count.
  if (options.method == Method::kAnd && options.order == AndOrder::kGiven) {
    Status s =
        internal::ValidateGivenOrder(out.kappa.size(), options.given_order);
    if (!s.ok()) return StatusOr<DecomposeResult>(std::move(s));
  }
  out.num_r_cliques = out.kappa.size();
  out.served_from_cache = true;
  BumpStat(&SessionStats::decompose_cache_hits);
  return StatusOr<DecomposeResult>(std::move(out));
}

void NucleusSession::StoreResult(ResultCell& cell,
                                 const DecomposeOptions& options,
                                 const DecomposeResult& result) {
  std::lock_guard<std::mutex> lk(cell.mu);
  if (result.exact) {
    // kappa is unique: first exact result wins, repeats are identical.
    if (!cell.kappa.has_value()) cell.kappa = result.kappa;
  } else if (options.max_iterations > 0 && options.trace == nullptr) {
    cell.tau_cache[{options.method, options.max_iterations}] =
        ResultCell::Truncated{result.kappa, result.iterations, false};
  }
}

template <typename K>
StatusOr<DecomposeResult> NucleusSession::DecomposeKind(
    K kind, const DecomposeOptions& options, const typename K::Index& index,
    double index_seconds, RunControl ctl) {
  using Space = typename K::Space;
  KindState<Space>* cell = &State(kind);
  const Space* base = nullptr;
  const CsrSpace<Space>* arena = nullptr;
  const CompressedCsrSpace<Space>* compressed = nullptr;
  double arena_seconds = 0.0;
  std::vector<Degree> initial;
  {
    std::lock_guard<std::mutex> lk(cell->arena_mu);
    // Pin the on-the-fly space: it is both the direct engine input and the
    // base the arena keeps a pointer into.
    if (!cell->space) {
      cell->space = std::make_unique<Space>(K::MakeSpace(*graph_, index));
    }
    base = cell->space.get();

    // Validate kGiven orders here so the engines never throw on session
    // input.
    if (options.method == Method::kAnd &&
        options.order == AndOrder::kGiven) {
      Status s = internal::ValidateGivenOrder(base->NumRCliques(),
                                              options.given_order);
      if (!s.ok()) return s;
    }

    // Materialization decision. The engines' per-space default is honored
    // (CoreSpace stays on the fly under kAuto; peeling materializes only
    // under the explicit kOn / kCompressed modes), the budget gates kAuto
    // and kCompressed, and a failed attempt's budget is remembered PER
    // REPRESENTATION so hopeless builds are not retried every call while
    // a budget retry after a degrade still picks the compressed rung (the
    // memos are cleared by every mutating commit — the graph may have
    // shrunk). An arena that is already cached is used regardless of
    // policy — a contiguous scan is never worse than re-enumeration — and
    // a cached UNCOMPRESSED arena also serves kCompressed requests.
    //
    // The kAuto ladder: uncompressed CSR arena -> delta-compressed arena
    // -> on the fly, degrading on budget overrun. A deadline-bound
    // request grants the whole materialization HALF the remaining time;
    // if that share expires while the request is otherwise alive, the
    // build is abandoned and the run degrades straight to the fly space —
    // a slower sweep beats a failed request when the arena was merely an
    // optimization.
    const bool policy_wants =
        options.method == Method::kPeeling
            ? (options.materialize == Materialize::kOn ||
               options.materialize == Materialize::kCompressed)
            : internal::WantMaterialize<Space>(options.materialize);
    if (!cell->arena && !cell->compressed && policy_wants &&
        options.materialize != Materialize::kOff) {
      const std::uint64_t budget = internal::EffectiveBudget(
          options.materialize, options.materialize_budget_bytes);
      RunControl build_ctl = ctl;
      const bool has_deadline =
          ctl.CanStop() && !ctl.deadline().IsInfinite();
      if (has_deadline) {
        build_ctl = ctl.WithDeadline(Deadline::After(
            std::max<std::int64_t>(1, ctl.deadline().RemainingMs() / 2)));
      }
      bool deadline_degraded = false;
      const bool want_uncompressed =
          options.materialize != Materialize::kCompressed;
      if (want_uncompressed && budget > cell->failed_budget) {
        NUCLEUS_FAULT_POINT("arena_build");
        Timer t;
        std::vector<Degree> degrees;
        auto built = CsrSpace<Space>::TryBuild(
            *base, std::max(options.threads, 1), budget, &degrees,
            build_ctl);
        if (built.has_value()) {
          arena_seconds = t.Seconds();
          cell->arena = std::move(built);
          cell->failed_budget = 0;
          BumpStat(K::kArenaBuilds);
        } else if (ctl.CanStop() && ctl.ShouldStop()) {
          // Cancelled / overall deadline exceeded mid-build: the partial
          // counting degrees are garbage, and neither the failed-budget
          // memo nor the fly-degree cache may learn from them — the next
          // call must retry from scratch.
          return ctl.StopStatus();
        } else if (build_ctl.CanStop() && build_ctl.ShouldStop()) {
          // Only the build's deadline share expired: degrade to the fly
          // space (no second build attempt — the share is spent). Same
          // rule: nothing partial is memoized.
          deadline_degraded = true;
          BumpStat(&SessionStats::degraded_builds);
        } else {
          // Over budget (the degrees contract holds): keep the counting
          // pass's d_s so the fly fallback (this call and every later
          // one) never re-counts, and fall through to the compressed rung.
          cell->failed_budget = budget;
          cell->fly_degrees = std::move(degrees);
        }
      }
      if (!cell->arena && !deadline_degraded &&
          budget > cell->failed_budget_compressed) {
        NUCLEUS_FAULT_POINT("compressed_arena_build");
        Timer t;
        std::vector<Degree> degrees;
        auto built = CompressedCsrSpace<Space>::TryBuild(
            *base, std::max(options.threads, 1), budget, &degrees,
            build_ctl);
        if (built.has_value()) {
          arena_seconds += t.Seconds();
          cell->compressed = std::move(built);
          cell->failed_budget_compressed = 0;
          BumpStat(K::kArenaBuilds);
          BumpStat(&SessionStats::compressed_builds);
        } else if (ctl.CanStop() && ctl.ShouldStop()) {
          return ctl.StopStatus();
        } else if (build_ctl.CanStop() && build_ctl.ShouldStop()) {
          BumpStat(&SessionStats::degraded_builds);
        } else {
          // Even the compressed form exceeds the budget: last rung is the
          // fly space.
          cell->failed_budget_compressed = budget;
          if (cell->fly_degrees.empty()) {
            cell->fly_degrees = std::move(degrees);
          }
        }
      }
    }
    const bool mode_off = options.materialize == Materialize::kOff;
    if (!mode_off && cell->arena) {
      arena = &*cell->arena;
    } else if (!mode_off && cell->compressed) {
      compressed = &*cell->compressed;
    } else {
      if (cell->fly_degrees.empty()) {
        cell->fly_degrees =
            base->InitialDegrees(std::max(options.threads, 1));
      }
      initial = cell->fly_degrees;  // engine consumes its copy
    }
  }
  if (ctl.CanStop() && ctl.ShouldStop()) return ctl.StopStatus();
  // The engine run happens outside the cell mutex (but under the session's
  // shared lock) so concurrent calls — including same-kind repeats and
  // unrelated kinds — proceed; commits wait for the shared lock to drain.
  const DecomposeOptions run_options = WithRemainingControl(options, ctl);
  StatusOr<DecomposeResult> out =
      arena != nullptr
          ? RunEngine(*arena, run_options, {})
          : compressed != nullptr
                ? RunEngine(*compressed, run_options, {})
                : RunEngine(*base, run_options, std::move(initial));
  if (!out.ok()) return out.status();
  out->index_seconds = index_seconds;
  out->arena_seconds = arena_seconds;
  StoreResult(*cell, options, *out);
  return out;
}

StatusOr<DecomposeResult> NucleusSession::DecomposeShared(
    DecompositionKind kind, const DecomposeOptions& options,
    RunControl ctl) {
  BumpStat(&SessionStats::decompose_calls);
  return VisitKind(kind, [&](auto k) -> StatusOr<DecomposeResult> {
    // Cache hits are served even past a deadline — answering from memory
    // is the one thing a bounded request can always afford.
    if (auto hit = TryServeFromCache(State(k), options)) {
      return std::move(*hit);
    }
    double index_seconds = 0.0;
    auto index = IndexShared<typename decltype(k)::Index>(
        options.threads, &index_seconds, ctl);
    if (!index.ok()) return index.status();
    return DecomposeKind(k, options, **index, index_seconds, ctl);
  });
}

StatusOr<DecomposeResult> NucleusSession::Decompose(
    DecompositionKind kind, const DecomposeOptions& options) {
  if (Status s = ValidateCommonOptions(options); !s.ok()) return s;
  // The deadline clock starts at the public boundary, so index builds,
  // arena builds, and the engine run all share one budget.
  const RunControl ctl = options.MakeControl();
  std::shared_lock<std::shared_mutex> lk(session_mu_);
  StatusOr<DecomposeResult> out = DecomposeShared(kind, options, ctl);
  // Both epochs only grow (under the exclusive lock), so their sum moves
  // whenever either does.
  if (out.ok()) out->epoch = commit_epoch_ + reset_epoch_;
  return out;
}

StatusOr<const NucleusHierarchy*> NucleusSession::Hierarchy(
    DecompositionKind kind, const DecomposeOptions& options) {
  if (Status s = ValidateCommonOptions(options); !s.ok()) return s;
  const RunControl ctl = options.MakeControl();
  std::shared_lock<std::shared_mutex> lk(session_mu_);
  ResultCell& cell = Results(kind);
  {
    std::lock_guard<std::mutex> clk(cell.mu);
    if (cell.hierarchy) {
      return static_cast<const NucleusHierarchy*>(cell.hierarchy.get());
    }
  }

  // kappa first (cache-served when an exact decomposition already ran);
  // the hierarchy is only defined for converged values, so truncation is
  // overridden.
  DecomposeOptions exact = options;
  exact.max_iterations = 0;
  exact.trace = nullptr;
  StatusOr<DecomposeResult> r = DecomposeShared(kind, exact, ctl);
  if (!r.ok()) return r.status();

  // A fresh peel run hands back its level partition; feed it straight
  // into the union-find sweep (no kappa re-bucketing). Cache hits and
  // local-method runs carry no levels and take the kappa path.
  PeelResult peel;
  peel.order = std::move(r->peel_order);
  peel.levels = std::move(r->peel_levels);
  StatusOr<NucleusHierarchy> h = HierarchyShared(kind, r->kappa, &peel, ctl);
  if (!h.ok()) return h.status();

  std::lock_guard<std::mutex> clk(cell.mu);
  if (!cell.hierarchy) {
    cell.hierarchy =
        std::make_unique<NucleusHierarchy>(std::move(h).value());
    BumpStat(&SessionStats::hierarchy_builds);
  }
  return static_cast<const NucleusHierarchy*>(cell.hierarchy.get());
}

StatusOr<NucleusHierarchy> NucleusSession::HierarchyShared(
    DecompositionKind kind, const std::vector<Degree>& kappa,
    PeelResult* peel, RunControl ctl) {
  return VisitKind(kind, [&](auto k) -> StatusOr<NucleusHierarchy> {
    using K = decltype(k);
    auto index = IndexShared<typename K::Index>(1, nullptr, ctl);
    if (!index.ok()) return index.status();
    const typename K::Space space = K::MakeSpace(*graph_, **index);
    if (kappa.size() != space.NumRCliques()) {
      return Status::InvalidArgument(
          "kappa has " + std::to_string(kappa.size()) +
          " entries, expected " + std::to_string(space.NumRCliques()) +
          " for this kind");
    }
    // A patched index keeps tombstoned ids in the id space; the live
    // flags exclude them so removed r-cliques do not surface as phantom
    // singleton nuclei (the (1,2) space has none: its flags are empty).
    NucleusHierarchy h =
        peel != nullptr && !peel->levels.empty()
            ? BuildHierarchy(space, *peel, ctl)
            : BuildHierarchy(space, kappa, space.LiveRFlags(), ctl);
    if (h.aborted) return ctl.StopStatus();
    return h;
  });
}

StatusOr<NucleusHierarchy> NucleusSession::HierarchyFor(
    DecompositionKind kind, std::span<const Degree> kappa) {
  std::shared_lock<std::shared_mutex> lk(session_mu_);
  return HierarchyShared(kind, std::vector<Degree>(kappa.begin(), kappa.end()),
                         nullptr, RunControl());
}

StatusOr<QueryEstimate> NucleusSession::EstimateQueries(
    DecompositionKind kind, std::span<const CliqueId> ids,
    const QueryOptions& options, RunControl ctl) {
  if (options.radius < 0) {
    return Status::InvalidArgument("QueryOptions::radius must be >= 0");
  }
  if (options.max_iterations < 0) {
    return Status::InvalidArgument(
        "QueryOptions::max_iterations must be >= 0");
  }
  if (options.threads < 0) {
    return Status::InvalidArgument("QueryOptions::threads must be >= 0");
  }
  std::shared_lock<std::shared_mutex> lk(session_mu_);
  BumpStat(&SessionStats::query_calls);
  return VisitKind(kind, [&](auto k) -> StatusOr<QueryEstimate> {
    using K = decltype(k);
    auto index =
        IndexShared<typename K::Index>(options.threads, nullptr, ctl);
    if (!index.ok()) return index.status();
    const typename K::Space space = K::MakeSpace(*graph_, **index);
    const std::string noun = K::kIdNoun;
    for (CliqueId id : ids) {
      if (id >= space.NumRCliques()) {
        return Status::InvalidArgument("query " + noun +
                                       " id out of range: " +
                                       std::to_string(id));
      }
      if (K::kTombstones && !space.IsLiveR(id)) {
        return Status::InvalidArgument(
            "query " + noun + " id names a removed (tombstoned) " + noun +
            ": " + std::to_string(id));
      }
    }
    QueryEstimate estimate = K::Estimate(*graph_, **index, ids, options, ctl);
    if (!estimate.status.ok()) return estimate.status;
    return estimate;
  });
}

bool NucleusSession::UpdateBatch::InsertEdge(VertexId u, VertexId v) {
  if (!graph_.Insert(u, v)) return false;
  maintainer_.EdgeInserted(graph_, u, v);
  if (truss_maintainer_) truss_maintainer_->EdgeInserted(graph_, u, v);
  if (n34_maintainer_) n34_maintainer_->EdgeInserted(graph_, u, v);
  ++mutations_;
  const auto it = net_.find(PairKey(u, v));
  if (it != net_.end()) {
    net_.erase(it);  // was net-removed: insert cancels it out
  } else {
    net_.emplace(PairKey(u, v), true);
  }
  return true;
}

bool NucleusSession::UpdateBatch::RemoveEdge(VertexId u, VertexId v) {
  if (!graph_.Erase(u, v)) return false;
  maintainer_.EdgeErased(graph_, u, v);
  if (truss_maintainer_) truss_maintainer_->EdgeErased(graph_, u, v);
  if (n34_maintainer_) n34_maintainer_->EdgeErased(graph_, u, v);
  ++mutations_;
  const auto it = net_.find(PairKey(u, v));
  if (it != net_.end()) {
    net_.erase(it);  // was net-inserted: remove cancels it out
  } else {
    net_.emplace(PairKey(u, v), false);
  }
  return true;
}

EdgeDelta NucleusSession::UpdateBatch::NetDelta() const {
  EdgeDelta delta;
  for (const auto& [key, inserted] : net_) {
    const VertexId u = static_cast<VertexId>(key >> 32);
    const VertexId v = static_cast<VertexId>(key & 0xffffffffu);
    (inserted ? delta.inserted : delta.removed).emplace_back(u, v);
  }
  // Deterministic order regardless of hash-map iteration.
  std::sort(delta.inserted.begin(), delta.inserted.end());
  std::sort(delta.removed.begin(), delta.removed.end());
  return delta;
}

Status NucleusSession::UpdateBatch::Commit(RunControl ctl) {
  if (session_ == nullptr) {
    return Status::FailedPrecondition(
        "UpdateBatch was moved from; commit the moved-to handle");
  }
  if (committed_) {
    return Status::FailedPrecondition("UpdateBatch already committed");
  }
  const Status s = session_->CommitUpdates(this, ctl);
  if (s.ok()) committed_ = true;
  return s;
}

NucleusSession::UpdateBatch NucleusSession::BeginUpdates() {
  std::shared_lock<std::shared_mutex> lk(session_mu_);
  std::optional<std::vector<Degree>> kappa[3];
  ForEachKind([&](auto k) {
    const ResultCell& cell = State(k);
    std::lock_guard<std::mutex> clk(cell.mu);
    kappa[Slot(k)] = cell.kappa;
  });
  // Truss / (3,4) maintenance piggybacks on the cached exact kappa — a
  // cold internal decomposition on every BeginUpdates would defeat the
  // point for callers that never ask for those kinds. Each maintainer gets
  // its own copy of the index (flat arrays, copied at memory speed) and
  // takes the kappa copy made above: the batch must not read the session's
  // index, which another batch's commit patches in place or frees.
  std::optional<DynamicTrussMaintainer> truss_maintainer;
  if (auto& truss = kappa[Slot(TrussKind{})]; truss.has_value()) {
    const EdgeIndex* edges = edge_index_.TryGet();
    if (edges != nullptr && truss->size() == edges->NumEdges()) {
      truss_maintainer.emplace(*graph_, *edges, std::move(*truss));
    }
  }
  std::optional<DynamicNucleus34Maintainer> n34_maintainer;
  if (auto& n34 = kappa[Slot(Nucleus34Kind{})]; n34.has_value()) {
    const TriangleIndex* tris = triangle_index_.TryGet();
    if (tris != nullptr && n34->size() == tris->NumTriangles()) {
      n34_maintainer.emplace(*tris, std::move(*n34));
    }
  }
  auto& core = kappa[Slot(CoreKind{})];
  DynamicCoreMaintainer core_maintainer =
      core.has_value() ? DynamicCoreMaintainer(std::move(*core))
                       : DynamicCoreMaintainer(*graph_);
  // The batch's one adjacency, which every maintainer repairs over.
  return UpdateBatch(this, WorkingGraph(*graph_), std::move(core_maintainer),
                     std::move(truss_maintainer), std::move(n34_maintainer),
                     commit_epoch_, reset_epoch_);
}

Status NucleusSession::CommitUpdates(UpdateBatch* batch, RunControl ctl) {
  std::unique_lock<std::shared_mutex> lk(session_mu_);
  if (batch->epoch_ != commit_epoch_) {
    // Another batch committed mutations after this one branched off;
    // publishing this snapshot would silently drop them.
    return Status::FailedPrecondition(
        "UpdateBatch is stale: the session graph changed since "
        "BeginUpdates; restart the batch from the current graph");
  }
  // Everything from here to the first cache mutation inside PropagateDelta
  // is fallible (fault points, cancellable enumeration); a non-OK return
  // leaves the session bitwise untouched and the batch retryable.
  NUCLEUS_FAULT_POINT("commit_begin");
  const EdgeDelta delta = batch->NetDelta();
  if (delta.Empty()) {
    BumpStat(&SessionStats::commits);
    return Status::Ok();  // graph unchanged: keep every cache
  }
  Status s = PropagateDelta(delta, batch->graph_.ToGraph(), *batch, ctl);
  if (!s.ok()) return s;
  // Their kappa now lives in the session's caches.
  batch->truss_maintainer_.reset();
  batch->n34_maintainer_.reset();
  BumpStat(&SessionStats::commits);
  ++commit_epoch_;
  return Status::Ok();
}

Status NucleusSession::PropagateDelta(const EdgeDelta& delta,
                                      Graph&& new_graph, UpdateBatch& batch,
                                      RunControl ctl) {
  // The truss / (3,4) maintainers index kappa by the ids the session held
  // at BeginUpdates. Commits in between would have made the batch stale,
  // so those ids are the session's current ones (patched below) unless an
  // InvalidateDerivedState dropped them meanwhile.
  const bool ids_held = batch.reset_epoch_ == reset_epoch_;
  const std::tuple<DynamicCoreMaintainer*, DynamicTrussMaintainer*,
                   DynamicNucleus34Maintainer*>
      maintainers{&batch.maintainer_,
                  ids_held && batch.truss_maintainer_
                      ? &*batch.truss_maintainer_
                      : nullptr,
                  ids_held && batch.n34_maintainer_ ? &*batch.n34_maintainer_
                                                    : nullptr};
  // The kind's maintainer, or null when the batch does not carry one.
  const auto maintainer_of = [&](auto k) {
    return std::get<typename decltype(k)::Maintainer*>(maintainers);
  };
  EdgeIndex* eidx = edge_index_.Mutable();
  TriangleIndex* tidx = triangle_index_.Mutable();
  // The kind's (patched) id space, or null when the session holds none.
  const auto index_of = [&](auto k) -> const typename decltype(k)::Index* {
    using Index = typename decltype(k)::Index;
    if constexpr (std::is_same_v<Index, Graph>) {
      return graph_;
    } else if constexpr (std::is_same_v<Index, EdgeIndex>) {
      return eidx;
    } else {
      return tidx;
    }
  };
  const KindState<TrussSpace>& truss = State(TrussKind{});
  const KindState<Nucleus34Space>& n34 = State(Nucleus34Kind{});
  const bool patch_truss_arena = truss.arena.has_value();
  const bool patch_n34_arena = n34.arena.has_value();
  assert(!patch_truss_arena || eidx != nullptr);
  assert(!patch_n34_arena || tidx != nullptr);
  assert(maintainer_of(TrussKind{}) == nullptr || eidx != nullptr);
  assert(maintainer_of(Nucleus34Kind{}) == nullptr || tidx != nullptr);
  const bool need_tri_edges =
      eidx != nullptr && (patch_truss_arena || !truss.fly_degrees.empty());
  const bool need_tri_delta = tidx != nullptr || need_tri_edges;
  const bool need_4c_delta =
      tidx != nullptr && (patch_n34_arena || !n34.fly_degrees.empty());

  // Stage 1 (fallible): enumerate the s-cliques the delta destroys/creates
  // (dead sets against the OLD graph, born sets against the new one) and
  // resolve the ids that die with it while they are still lookup-able.
  // NOTHING cached is mutated until stage 0 below — every failure exit in
  // this stage leaves the session exactly as before the commit attempt.
  NUCLEUS_FAULT_POINT("commit_enumerate");
  TriangleDelta tdelta;
  if (need_tri_delta) {
    tdelta = ComputeTriangleDelta(*graph_, new_graph, delta, ctl);
    if (tdelta.aborted) return ctl.StopStatus();
  }
  FourCliqueDelta fdelta;
  if (need_4c_delta) {
    fdelta = ComputeFourCliqueDelta(*graph_, new_graph, delta, ctl);
    if (fdelta.aborted) return ctl.StopStatus();
  }
  // Each kind's share of the delta, in its own id space.
  std::tuple<KindDelta<CoreKind::kS>, KindDelta<TrussKind::kS>,
             KindDelta<Nucleus34Kind::kS>>
      deltas;
  auto& [core_delta, truss_delta, n34_delta] = deltas;
  if (eidx != nullptr) {
    truss_delta.dead_ids.reserve(delta.removed.size());
    for (const auto& [u, v] : delta.removed) {
      truss_delta.dead_ids.push_back(eidx->EdgeIdOf(u, v));
    }
  }
  const auto tri_edge_ids = [](const EdgeIndex& idx,
                               const std::array<VertexId, 3>& t) {
    return std::array<CliqueId, 3>{idx.EdgeIdOf(t[0], t[1]),
                                   idx.EdgeIdOf(t[0], t[2]),
                                   idx.EdgeIdOf(t[1], t[2])};
  };
  const auto quad_tri_ids = [](const TriangleIndex& idx,
                               const std::array<VertexId, 4>& q) {
    return std::array<CliqueId, 4>{idx.TriangleIdOf(q[0], q[1], q[2]),
                                   idx.TriangleIdOf(q[0], q[1], q[3]),
                                   idx.TriangleIdOf(q[0], q[2], q[3]),
                                   idx.TriangleIdOf(q[1], q[2], q[3])};
  };
  if (need_tri_edges) {
    truss_delta.dead.reserve(tdelta.dead.size());
    for (const auto& t : tdelta.dead) {
      truss_delta.dead.push_back(tri_edge_ids(*eidx, t));
    }
  }
  if (need_4c_delta) {
    n34_delta.dead_ids.reserve(tdelta.dead.size());
    for (const auto& t : tdelta.dead) {
      n34_delta.dead_ids.push_back(tidx->TriangleIdOf(t[0], t[1], t[2]));
    }
    n34_delta.dead.reserve(fdelta.dead.size());
    for (const auto& q : fdelta.dead) {
      n34_delta.dead.push_back(quad_tri_ids(*tidx, q));
    }
  }
  // Everything the install phase consumes is now staged; the last chance
  // to fail. Past this point the pipeline runs to completion.
  NUCLEUS_FAULT_POINT("commit_stage");
  if (ctl.CanStop() && ctl.ShouldStop()) return ctl.StopStatus();

  if (eidx != nullptr || tidx != nullptr) {
    BumpStat(&SessionStats::incremental_commits);
  }

  // Stage 0: capture cached hierarchies (and the old kappa they pair
  // with) for in-place repair. Repair needs this commit's exact NEW kappa
  // too, so a kind qualifies only when its maintainer ran this batch (the
  // core maintainer always does) over a patched id space; unqualified
  // hierarchies die with the result-cell reset after stage 5.5. (Runs after
  // the fallible stage 1: the moves out of the result cells are
  // themselves cache mutations.)
  std::unique_ptr<NucleusHierarchy> old_hierarchy[3];
  std::vector<Degree> old_kappa[3];
  ForEachKind([&](auto k) {
    ResultCell& cell = State(k);
    std::lock_guard<std::mutex> clk(cell.mu);
    if (maintainer_of(k) == nullptr || index_of(k) == nullptr ||
        !cell.hierarchy || !cell.kappa.has_value()) {
      return;
    }
    old_hierarchy[Slot(k)] = std::move(cell.hierarchy);
    old_kappa[Slot(k)] = std::move(*cell.kappa);
  });

  // Stage 2: install the new graph (everything old-graph-dependent is
  // done). The owned storage's address is stable, so space objects keep
  // pointing at valid memory; their contents are re-seated below.
  storage_ = std::move(new_graph);
  graph_ = &storage_;

  // Stage 3: patch the indices in place (graph-independent structures)
  // and resolve the born s-cliques' member ids against them. The (1,2)
  // s-cliques are the delta's edges themselves.
  if (eidx != nullptr) {
    truss_delta.born_ids = eidx->ApplyDelta(delta.removed, delta.inserted);
  }
  if (tidx != nullptr) {
    n34_delta.born_ids = tidx->ApplyDelta(tdelta.dead, tdelta.born);
  }
  if (need_tri_edges) {
    truss_delta.born.reserve(tdelta.born.size());
    for (const auto& t : tdelta.born) {
      truss_delta.born.push_back(tri_edge_ids(*eidx, t));
    }
  }
  if (need_4c_delta) {
    n34_delta.born.reserve(fdelta.born.size());
    for (const auto& q : fdelta.born) {
      n34_delta.born.push_back(quad_tri_ids(*tidx, q));
    }
  }
  for (const auto& [u, v] : delta.removed) core_delta.dead.push_back({u, v});
  for (const auto& [u, v] : delta.inserted) core_delta.born.push_back({u, v});

  // Stage 4: patch or drop each kind's arenas. Space objects are re-seated
  // in place (assignment keeps their address, which the arena pins).
  // Compressed arenas are IMMUTABLE (a varint byte stream has no slack for
  // sentinels), so they are dropped here and rebuilt lazily by the next
  // decompose of the kind; only uncompressed arenas are patched in place.
  // The fly-space S-degrees are patched by the same delta when the kind's
  // id space is held (its share of the delta was then staged above).
  ForEachKind([&](auto k) {
    using K = decltype(k);
    KindState<typename K::Space>& st = State(k);
    const KindDelta<K::kS>& d = std::get<KindDelta<K::kS>>(deltas);
    const typename K::Index* index = index_of(k);
    if (st.compressed.has_value()) {
      st.compressed.reset();
      BumpStat(&SessionStats::compressed_drops);
    }
    st.failed_budget = 0;
    st.failed_budget_compressed = 0;
    if (st.arena.has_value()) {
      const typename K::Space space = K::MakeSpace(*graph_, *index);
      st.arena->ApplyPatch(MembersOf(d.dead), MembersOf(d.born), d.dead_ids,
                           space.NumRCliques());
      *st.space = space;
    } else {
      st.space.reset();
    }
    if (!st.fly_degrees.empty() && index != nullptr) {
      // Born r-cliques start at d_s = 0 plus their born s-cliques; dead
      // ones drop to exactly 0 (all their s-cliques died).
      st.fly_degrees.resize(K::MakeSpace(*graph_, *index).NumRCliques(), 0);
      for (const auto& members : d.dead) {
        for (CliqueId r : members) --st.fly_degrees[r];
      }
      for (const auto& members : d.born) {
        for (CliqueId r : members) ++st.fly_degrees[r];
      }
    } else {
      st.fly_degrees.clear();
    }
  });

  // Stage 5: the new exact kappa of every kind whose maintainer ran —
  // (1,2) always (the core maintainer's locally-repaired numbers ARE the
  // exact kappa of the mutated graph), (2,3)/(3,4) when the batch carried
  // those maintainers. Theirs are indexed by the ids patched in stage 3,
  // so the vector moves over as is: born ids filled from the side store,
  // dead ids at 0. For a kind whose hierarchy is repaired, the touched
  // level comes from the ids that can have changed: those the maintainer
  // wrote (dead ones included) and those born in the patched id space.
  std::vector<Degree> new_kappa[3];
  Degree touched[3] = {0, 0, 0};
  ForEachKind([&](auto k) {
    using K = decltype(k);
    auto* m = maintainer_of(k);
    if (m == nullptr) return;
    const std::size_t slot = Slot(k);
    if constexpr (K::kTombstones) {
      new_kappa[slot] = m->TakeKappa(*index_of(k));
    } else {
      new_kappa[slot] = m->CoreNumbersView();
    }
    if (old_hierarchy[slot]) {
      touched[slot] =
          TouchedLevel(old_kappa[slot], new_kappa[slot],
                       {m->ChangedIds(),
                        std::get<KindDelta<K::kS>>(deltas).born_ids});
    }
  });

  // Stage 5.5: localized hierarchy repair. Everything above the touched
  // level is spliced from the old forest; everything at or below is
  // re-swept from the new kappa. The repair re-sweeps per member, so an
  // uncompressed arena (already patched in stage 4) serves it by
  // contiguous scans instead of per-member intersections and id lookups;
  // the fly space otherwise.
  std::unique_ptr<NucleusHierarchy> repaired[3];
  ForEachKind([&](auto k) {
    using K = decltype(k);
    const std::size_t slot = Slot(k);
    if (!old_hierarchy[slot]) return;
    const std::vector<Degree>& kappa = new_kappa[slot];
    Degree level = touched[slot];
    if constexpr (!K::kTombstones) {
      // No r-clique of this space dies or is born, so a delta s-clique can
      // re-link equal-kappa components with no kappa change at all: its
      // min-member level (new kappa if born, old kappa if dead) joins the
      // bound.
      const auto min_level = [](const auto& members,
                                const std::vector<Degree>& by_id) {
        Degree m = by_id[members[0]];
        for (CliqueId r : members) m = std::min(m, by_id[r]);
        return m;
      };
      const KindDelta<K::kS>& d = std::get<KindDelta<K::kS>>(deltas);
      for (const auto& s : d.born) {
        level = std::max(level, min_level(s, kappa));
      }
      for (const auto& s : d.dead) {
        level = std::max(level, min_level(s, old_kappa[slot]));
      }
    }
    const KindState<typename K::Space>& st = State(k);
    const typename K::Space space = K::MakeSpace(*graph_, *index_of(k));
    repaired[slot] = std::make_unique<NucleusHierarchy>(
        st.arena ? RepairHierarchy(*st.arena, *old_hierarchy[slot], kappa,
                                   space.LiveRFlags(), level)
                 : RepairHierarchy(space, *old_hierarchy[slot], kappa,
                                   space.LiveRFlags(), level));
  });

  // Install the result caches: tau caches restart cold, kappa is re-seeded
  // where a maintainer ran, and the repaired hierarchies go in.
  ForEachKind([&](auto k) {
    using K = decltype(k);
    const std::size_t slot = Slot(k);
    ResultCell& cell = State(k);
    std::lock_guard<std::mutex> clk(cell.mu);
    cell.ResetResults();
    if (maintainer_of(k) != nullptr) {
      cell.kappa = std::move(new_kappa[slot]);
      if constexpr (K::kKappaSeeds != nullptr) BumpStat(K::kKappaSeeds);
    }
    if (repaired[slot]) {
      cell.hierarchy = std::move(repaired[slot]);
      BumpStat(&SessionStats::hierarchy_repairs);
    }
  });

  // Stage 6: compaction. Patching keeps commits O(delta) but leaves
  // tombstones every sweep still iterates over; once a layer's dead
  // fraction crosses the threshold, re-densify it. The edge layer rebuild
  // is a cheap linear scan done eagerly; the triangle layer drops lazily —
  // its rebuild is the expensive enumeration and the next (3,4) caller
  // pays it. Either way the kind on top of the layer drops its state and
  // re-seeds kappa in the fresh lexicographic id order, read off the
  // patched index before it goes, so the exact values survive the
  // re-densify; its hierarchy goes too, since its members are ids of the
  // retired id space.
  const auto compact = [&](auto k, const auto& patched) {
    KindState<typename decltype(k)::Space>& st = State(k);
    std::optional<std::vector<Degree>> fresh;
    {
      std::lock_guard<std::mutex> clk(st.mu);
      if (st.kappa.has_value()) fresh = KappaInFreshOrder(patched, *st.kappa);
    }
    st.Reset();
    if (fresh.has_value()) {
      std::lock_guard<std::mutex> clk(st.mu);
      st.kappa = std::move(fresh);
    }
    BumpStat(&SessionStats::compactions);
  };
  if (eidx != nullptr &&
      eidx->NumEdges() - eidx->NumLiveEdges() >= kMinDeadForCompaction &&
      eidx->DeadFraction() > kDeadFractionForCompaction) {
    compact(TrussKind{}, *eidx);
    edge_index_.Install(EdgeIndex(*graph_));
    BumpStat(&SessionStats::edge_index_builds);
  }
  if (tidx != nullptr &&
      tidx->NumTriangles() - tidx->NumLiveTriangles() >=
          kMinDeadForCompaction &&
      tidx->DeadFraction() > kDeadFractionForCompaction) {
    compact(Nucleus34Kind{}, *tidx);
    triangle_index_.Reset();
  }
  return Status::Ok();
}

void NucleusSession::ResetDerivedState() {
  ++reset_epoch_;
  ForEachKind([&](auto k) { State(k).Reset(); });
  edge_index_.Reset();
  triangle_index_.Reset();
}

void NucleusSession::InvalidateDerivedState() {
  std::unique_lock<std::shared_mutex> lk(session_mu_);
  ResetDerivedState();
}

SessionStats NucleusSession::stats() const {
  std::lock_guard<std::mutex> lk(stats_mu_);
  return stats_;
}

SessionStateStats NucleusSession::Stats() const {
  // Shared session lock: concurrent with every read path, excluded by
  // commits/invalidation — the snapshot never sees a half-applied delta.
  std::shared_lock<std::shared_mutex> lk(session_mu_);
  SessionStateStats s;
  s.counters = stats();
  s.num_vertices = graph_->NumVertices();
  s.num_edges = graph_->NumEdges();
  // Graph CSR: offsets ((n+1) x size_t) + neighbor array (2m x VertexId).
  s.graph_bytes =
      (graph_->NumVertices() + 1) * sizeof(std::size_t) +
      graph_->NeighborArray().size() * sizeof(VertexId);
  if (const EdgeIndex* eidx = edge_index_.TryGet(); eidx != nullptr) {
    s.edge_ids = eidx->NumEdges();
    s.live_edges = eidx->NumLiveEdges();
    // Endpoint pairs + per-vertex forward offsets.
    s.index_bytes += s.edge_ids * sizeof(std::pair<VertexId, VertexId>) +
                     (s.num_vertices + 1) * sizeof(std::size_t);
  }
  if (const TriangleIndex* tidx = triangle_index_.TryGet(); tidx != nullptr) {
    s.triangle_ids = tidx->NumTriangles();
    s.live_triangles = tidx->NumLiveTriangles();
    // Vertex triples + the sorted id-lookup keys + the per-vertex
    // lookup offsets.
    s.index_bytes +=
        s.triangle_ids * (3 * sizeof(VertexId) + sizeof(TriangleId) + 8) +
        (s.num_vertices + 1) * sizeof(std::size_t);
  }
  ForEachKind([&](auto k) {
    const auto& st = State(k);
    const std::size_t slot = Slot(k);
    {
      std::lock_guard<std::mutex> alk(st.arena_mu);
      if (st.arena) s.arena_bytes[slot] = st.arena->MemoryBytes();
      if (st.compressed) {
        s.arena_compressed_bytes[slot] = st.compressed->MemoryBytes();
      }
    }
    std::lock_guard<std::mutex> clk(st.mu);
    s.kappa_cached[slot] = st.kappa.has_value();
    s.hierarchy_cached[slot] = st.hierarchy != nullptr;
  });
  return s;
}

}  // namespace nucleus
