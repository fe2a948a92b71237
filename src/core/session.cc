#include "src/core/session.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <string>
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

}  // namespace

NucleusSession::NucleusSession(Graph&& graph)
    : storage_(std::move(graph)), graph_(&storage_) {}

NucleusSession::NucleusSession(const Graph& graph) : graph_(&graph) {}

void NucleusSession::BumpStat(std::uint64_t SessionStats::* field) {
  std::lock_guard<std::mutex> lk(stats_mu_);
  ++(stats_.*field);
}

const EdgeIndex& NucleusSession::EdgesShared(double* build_seconds) {
  return edge_index_.GetOrBuild([&] {
    Timer t;
    EdgeIndex idx(*graph_);
    if (build_seconds != nullptr) *build_seconds += t.Seconds();
    BumpStat(&SessionStats::edge_index_builds);
    return idx;
  });
}

const TriangleIndex& NucleusSession::TrianglesShared(int threads,
                                                     double* build_seconds) {
  return triangle_index_.GetOrBuild([&] {
    Timer t;
    TriangleIndex idx(*graph_, std::max(threads, 1));
    if (build_seconds != nullptr) *build_seconds += t.Seconds();
    BumpStat(&SessionStats::triangle_index_builds);
    return idx;
  });
}

const EdgeTriangleCsr& NucleusSession::EdgeTrianglesShared(int threads) {
  return edge_triangle_csr_.GetOrBuild([&] {
    const EdgeIndex& edges = EdgesShared(nullptr);
    const TriangleIndex& tris = TrianglesShared(threads, nullptr);
    BumpStat(&SessionStats::edge_triangle_csr_builds);
    return EdgeTriangleCsr(edges, tris, std::max(threads, 1));
  });
}

StatusOr<const EdgeIndex*> NucleusSession::TryEdgesShared(
    double* build_seconds) {
  return edge_index_.GetOrTryBuild([&]() -> StatusOr<EdgeIndex> {
    NUCLEUS_FAULT_POINT("edge_index_build");
    Timer t;
    EdgeIndex idx(*graph_);
    if (build_seconds != nullptr) *build_seconds += t.Seconds();
    BumpStat(&SessionStats::edge_index_builds);
    return idx;
  });
}

StatusOr<const TriangleIndex*> NucleusSession::TryTrianglesShared(
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

StatusOr<const EdgeTriangleCsr*> NucleusSession::TryEdgeTrianglesShared(
    int threads, RunControl ctl) {
  return edge_triangle_csr_.GetOrTryBuild(
      [&]() -> StatusOr<EdgeTriangleCsr> {
        NUCLEUS_FAULT_POINT("edge_triangle_csr_build");
        auto edges = TryEdgesShared(nullptr);
        if (!edges.ok()) return edges.status();
        auto tris = TryTrianglesShared(threads, nullptr, ctl);
        if (!tris.ok()) return tris.status();
        EdgeTriangleCsr csr(**edges, **tris, std::max(threads, 1), ctl);
        if (csr.aborted()) return ctl.StopStatus();
        BumpStat(&SessionStats::edge_triangle_csr_builds);
        return csr;
      });
}

const EdgeIndex& NucleusSession::Edges() {
  std::shared_lock<std::shared_mutex> lk(session_mu_);
  return EdgesShared(nullptr);
}

const TriangleIndex& NucleusSession::Triangles(int threads) {
  std::shared_lock<std::shared_mutex> lk(session_mu_);
  return TrianglesShared(threads, nullptr);
}

const EdgeTriangleCsr& NucleusSession::EdgeTriangles(int threads) {
  std::shared_lock<std::shared_mutex> lk(session_mu_);
  return EdgeTrianglesShared(threads);
}

std::size_t NucleusSession::NumRCliquesShared(DecompositionKind kind) {
  switch (kind) {
    case DecompositionKind::kCore:
      return graph_->NumVertices();
    case DecompositionKind::kTruss: {
      // The id-space size of the patched index when one exists (it may
      // exceed the live edge count by tombstones), else the edge count a
      // fresh index would cover.
      const EdgeIndex* edges = edge_index_.TryGet();
      return edges != nullptr ? edges->NumEdges() : graph_->NumEdges();
    }
    case DecompositionKind::kNucleus34:
      return TrianglesShared(1, nullptr).NumTriangles();
  }
  return 0;
}

std::size_t NucleusSession::NumRCliques(DecompositionKind kind) {
  std::shared_lock<std::shared_mutex> lk(session_mu_);
  return NumRCliquesShared(kind);
}

std::optional<StatusOr<DecomposeResult>> NucleusSession::TryServeFromCache(
    DecompositionKind kind, const DecomposeOptions& options) {
  // Traced runs bypass the caches — the caller wants the iteration
  // record, not just the fixed point.
  if (!options.use_result_cache || options.trace != nullptr) {
    return std::nullopt;
  }
  ResultCell& cell = results_[static_cast<int>(kind)];
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

void NucleusSession::StoreResult(DecompositionKind kind,
                                 const DecomposeOptions& options,
                                 const DecomposeResult& result) {
  ResultCell& cell = results_[static_cast<int>(kind)];
  std::lock_guard<std::mutex> lk(cell.mu);
  if (result.exact) {
    // kappa is unique: first exact result wins, repeats are identical.
    if (!cell.kappa.has_value()) cell.kappa = result.kappa;
  } else if (options.max_iterations > 0 && options.trace == nullptr) {
    cell.tau_cache[{options.method, options.max_iterations}] =
        ResultCell::Truncated{result.kappa, result.iterations, false};
  }
}

template <typename Space, typename MakeSpace>
StatusOr<DecomposeResult> NucleusSession::DecomposeWithSpace(
    DecompositionKind kind, const DecomposeOptions& options,
    ArenaCell<Space>* cell, std::uint64_t SessionStats::* arena_counter,
    MakeSpace&& make_space, double index_seconds, RunControl ctl) {
  const Space* base = nullptr;
  const CsrSpace<Space>* arena = nullptr;
  const CompressedCsrSpace<Space>* compressed = nullptr;
  double arena_seconds = 0.0;
  std::vector<Degree> initial;
  {
    std::lock_guard<std::mutex> lk(cell->mu);
    // Pin the on-the-fly space: it is both the direct engine input and the
    // base the arena keeps a pointer into.
    if (!cell->space) {
      cell->space = std::make_unique<Space>(make_space());
    }
    base = cell->space.get();

    // Validate kGiven orders here so the engines never throw on session
    // input (the legacy free functions translate this Status back into the
    // std::invalid_argument they used to raise).
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
          BumpStat(arena_counter);
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
          BumpStat(arena_counter);
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
  StoreResult(kind, options, *out);
  return out;
}

StatusOr<DecomposeResult> NucleusSession::DecomposeShared(
    DecompositionKind kind, const DecomposeOptions& options,
    RunControl ctl) {
  BumpStat(&SessionStats::decompose_calls);
  // Cache hits are served even past a deadline — answering from memory is
  // the one thing a bounded request can always afford.
  if (auto hit = TryServeFromCache(kind, options)) {
    return std::move(*hit);
  }
  switch (kind) {
    case DecompositionKind::kCore:
      return DecomposeWithSpace(
          kind, options, &core_, &SessionStats::core_arena_builds,
          [this] { return CoreSpace(*graph_); }, /*index_seconds=*/0.0,
          ctl);
    case DecompositionKind::kTruss: {
      double index_seconds = 0.0;
      auto edges = TryEdgesShared(&index_seconds);
      if (!edges.ok()) return edges.status();
      return DecomposeWithSpace(
          kind, options, &truss_, &SessionStats::truss_arena_builds,
          [this, &edges] { return TrussSpace(*graph_, **edges); },
          index_seconds, ctl);
    }
    case DecompositionKind::kNucleus34: {
      double index_seconds = 0.0;
      auto tris = TryTrianglesShared(options.threads, &index_seconds, ctl);
      if (!tris.ok()) return tris.status();
      return DecomposeWithSpace(
          kind, options, &nucleus34_, &SessionStats::nucleus34_arena_builds,
          [this, &tris] { return Nucleus34Space(*graph_, **tris); },
          index_seconds, ctl);
    }
  }
  return Status::Internal("unknown DecompositionKind");
}

StatusOr<DecomposeResult> NucleusSession::Decompose(
    DecompositionKind kind, const DecomposeOptions& options) {
  if (Status s = ValidateCommonOptions(options); !s.ok()) return s;
  // The deadline clock starts at the public boundary, so index builds,
  // arena builds, and the engine run all share one budget.
  const RunControl ctl = options.MakeControl();
  std::shared_lock<std::shared_mutex> lk(session_mu_);
  return DecomposeShared(kind, options, ctl);
}

StatusOr<const NucleusHierarchy*> NucleusSession::Hierarchy(
    DecompositionKind kind, const DecomposeOptions& options) {
  if (Status s = ValidateCommonOptions(options); !s.ok()) return s;
  const RunControl ctl = options.MakeControl();
  std::shared_lock<std::shared_mutex> lk(session_mu_);
  ResultCell& cell = results_[static_cast<int>(kind)];
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
  StatusOr<NucleusHierarchy> h =
      !r->peel_levels.empty() && r->kappa.size() == NumRCliquesShared(kind)
          ? HierarchyFromPeelShared(kind, std::move(*r), ctl)
          : HierarchyForShared(kind, r->kappa, ctl);
  if (!h.ok()) return h.status();

  std::lock_guard<std::mutex> clk(cell.mu);
  if (!cell.hierarchy) {
    cell.hierarchy =
        std::make_unique<NucleusHierarchy>(std::move(h).value());
    BumpStat(&SessionStats::hierarchy_builds);
  }
  return static_cast<const NucleusHierarchy*>(cell.hierarchy.get());
}

StatusOr<NucleusHierarchy> NucleusSession::HierarchyFromPeelShared(
    DecompositionKind kind, DecomposeResult&& result, RunControl ctl) {
  PeelResult peel;
  peel.order = std::move(result.peel_order);
  peel.levels = std::move(result.peel_levels);
  NucleusHierarchy h;
  switch (kind) {
    case DecompositionKind::kCore:
      h = BuildHierarchy(CoreSpace(*graph_), peel, ctl);
      break;
    case DecompositionKind::kTruss:
      h = BuildHierarchy(TrussSpace(*graph_, EdgesShared(nullptr)), peel,
                         ctl);
      break;
    case DecompositionKind::kNucleus34:
      h = BuildHierarchy(Nucleus34Space(*graph_, TrianglesShared(1, nullptr)),
                         peel, ctl);
      break;
  }
  if (h.aborted) return ctl.StopStatus();
  return h;
}

StatusOr<NucleusHierarchy> NucleusSession::HierarchyForShared(
    DecompositionKind kind, std::span<const Degree> kappa, RunControl ctl) {
  const std::size_t n = NumRCliquesShared(kind);
  if (kappa.size() != n) {
    return Status::InvalidArgument(
        "kappa has " + std::to_string(kappa.size()) + " entries, expected " +
        std::to_string(n) + " for this kind");
  }
  const std::vector<Degree> k(kappa.begin(), kappa.end());
  NucleusHierarchy h;
  switch (kind) {
    case DecompositionKind::kCore:
      h = BuildHierarchy(CoreSpace(*graph_), k, {}, ctl);
      break;
    case DecompositionKind::kTruss: {
      // Mirrors BuildTrussHierarchy: a patched index keeps tombstoned ids
      // in the id space; exclude them so removed edges do not surface as
      // phantom singleton nuclei. Same for (3,4) below.
      const TrussSpace space(*graph_, EdgesShared(nullptr));
      h = BuildHierarchy(space, k, space.LiveRFlags(), ctl);
      break;
    }
    case DecompositionKind::kNucleus34: {
      const Nucleus34Space space(*graph_, TrianglesShared(1, nullptr));
      h = BuildHierarchy(space, k, space.LiveRFlags(), ctl);
      break;
    }
  }
  if (h.aborted) return ctl.StopStatus();
  return h;
}

StatusOr<NucleusHierarchy> NucleusSession::HierarchyFor(
    DecompositionKind kind, std::span<const Degree> kappa) {
  std::shared_lock<std::shared_mutex> lk(session_mu_);
  return HierarchyForShared(kind, kappa, RunControl());
}

StatusOr<QueryEstimate> NucleusSession::EstimateQueries(
    DecompositionKind kind, std::span<const CliqueId> ids,
    const QueryOptions& options) {
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
  // CliqueId aliases VertexId/EdgeId/TriangleId, so the spans re-view the
  // same memory with the kind-specific meaning.
  switch (kind) {
    case DecompositionKind::kCore: {
      for (CliqueId id : ids) {
        if (id >= graph_->NumVertices()) {
          return Status::InvalidArgument("query vertex id out of range: " +
                                         std::to_string(id));
        }
      }
      return EstimateCoreNumbers(
          *graph_, std::span<const VertexId>(ids.data(), ids.size()),
          options);
    }
    case DecompositionKind::kTruss: {
      const EdgeIndex& edges = EdgesShared(nullptr);
      for (CliqueId id : ids) {
        if (id >= edges.NumEdges()) {
          return Status::InvalidArgument("query edge id out of range: " +
                                         std::to_string(id));
        }
        if (!edges.IsLive(id)) {
          return Status::InvalidArgument(
              "query edge id names a removed (tombstoned) edge: " +
              std::to_string(id));
        }
      }
      return EstimateTrussNumbers(
          *graph_, edges, std::span<const EdgeId>(ids.data(), ids.size()),
          options);
    }
    case DecompositionKind::kNucleus34: {
      const TriangleIndex& tris = TrianglesShared(options.threads, nullptr);
      for (CliqueId id : ids) {
        if (id >= tris.NumTriangles()) {
          return Status::InvalidArgument("query triangle id out of range: " +
                                         std::to_string(id));
        }
        if (!tris.IsLive(id)) {
          return Status::InvalidArgument(
              "query triangle id names a removed (tombstoned) triangle: " +
              std::to_string(id));
        }
      }
      return EstimateNucleus34Numbers(
          *graph_, tris,
          std::span<const TriangleId>(ids.data(), ids.size()), options);
    }
  }
  return Status::Internal("unknown DecompositionKind");
}

bool NucleusSession::UpdateBatch::InsertEdge(VertexId u, VertexId v) {
  const bool applied = maintainer_.InsertEdge(u, v);
  if (!applied) return false;
  if (truss_maintainer_) truss_maintainer_->InsertEdge(u, v);
  if (n34_maintainer_) n34_maintainer_->InsertEdge(u, v);
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
  const bool applied = maintainer_.RemoveEdge(u, v);
  if (!applied) return false;
  if (truss_maintainer_) truss_maintainer_->RemoveEdge(u, v);
  if (n34_maintainer_) n34_maintainer_->RemoveEdge(u, v);
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
  std::optional<std::vector<Degree>> core_kappa;
  {
    std::lock_guard<std::mutex> clk(results_[0].mu);
    core_kappa = results_[0].kappa;
  }
  std::optional<std::vector<Degree>> truss_kappa;
  {
    std::lock_guard<std::mutex> clk(results_[1].mu);
    truss_kappa = results_[1].kappa;
  }
  std::optional<std::vector<Degree>> n34_kappa;
  {
    std::lock_guard<std::mutex> clk(results_[2].mu);
    n34_kappa = results_[2].kappa;
  }
  // Truss / (3,4) maintenance piggybacks on the cached exact kappa — a
  // cold internal decomposition on every BeginUpdates would defeat the
  // point for callers that never ask for those kinds.
  std::optional<DynamicTrussMaintainer> truss_maintainer;
  if (truss_kappa.has_value()) {
    const EdgeIndex* edges = edge_index_.TryGet();
    if (edges != nullptr && truss_kappa->size() == edges->NumEdges()) {
      truss_maintainer.emplace(*graph_, *edges, *truss_kappa);
    }
  }
  std::optional<DynamicNucleus34Maintainer> n34_maintainer;
  if (n34_kappa.has_value()) {
    const TriangleIndex* tris = triangle_index_.TryGet();
    if (tris != nullptr && n34_kappa->size() == tris->NumTriangles()) {
      n34_maintainer.emplace(*graph_, *tris, *n34_kappa);
    }
  }
  DynamicCoreMaintainer core_maintainer =
      core_kappa.has_value()
          ? DynamicCoreMaintainer(*graph_, std::move(*core_kappa))
          : DynamicCoreMaintainer(*graph_);
  return UpdateBatch(this, std::move(core_maintainer),
                     std::move(truss_maintainer), std::move(n34_maintainer),
                     commit_epoch_);
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
  Status s = PropagateDelta(delta, batch->maintainer_.ToGraph(), *batch, ctl);
  if (!s.ok()) return s;
  BumpStat(&SessionStats::commits);
  ++commit_epoch_;
  return Status::Ok();
}

Status NucleusSession::PropagateDelta(const EdgeDelta& delta,
                                      Graph&& new_graph,
                                      const UpdateBatch& batch,
                                      RunControl ctl) {
  const DynamicTrussMaintainer* truss_maintainer =
      batch.truss_maintainer_ ? &*batch.truss_maintainer_ : nullptr;
  const DynamicNucleus34Maintainer* n34_maintainer =
      batch.n34_maintainer_ ? &*batch.n34_maintainer_ : nullptr;
  EdgeIndex* eidx = edge_index_.Mutable();
  TriangleIndex* tidx = triangle_index_.Mutable();
  EdgeTriangleCsr* etc = edge_triangle_csr_.Mutable();
  const bool patch_core_arena = core_.arena.has_value();
  const bool patch_truss_arena = truss_.arena.has_value();
  const bool patch_n34_arena = nucleus34_.arena.has_value();
  assert(!patch_truss_arena || eidx != nullptr);
  assert(!patch_n34_arena || tidx != nullptr);
  assert(etc == nullptr || (eidx != nullptr && tidx != nullptr));
  const bool need_tri_edges =
      eidx != nullptr && (etc != nullptr || patch_truss_arena ||
                          !truss_.fly_degrees.empty());
  const bool need_tri_delta = tidx != nullptr || need_tri_edges;
  const bool need_4c_delta =
      tidx != nullptr &&
      (patch_n34_arena || !nucleus34_.fly_degrees.empty());
  const bool need_tri_ids =
      tidx != nullptr && (etc != nullptr || need_4c_delta);

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
  std::vector<EdgeId> removed_edge_ids;
  if (eidx != nullptr) {
    removed_edge_ids.reserve(delta.removed.size());
    for (const auto& [u, v] : delta.removed) {
      removed_edge_ids.push_back(eidx->EdgeIdOf(u, v));
    }
  }
  const auto tri_edge_ids = [](const EdgeIndex& idx,
                               const std::array<VertexId, 3>& t) {
    return std::array<EdgeId, 3>{idx.EdgeIdOf(t[0], t[1]),
                                 idx.EdgeIdOf(t[0], t[2]),
                                 idx.EdgeIdOf(t[1], t[2])};
  };
  const auto quad_tri_ids = [](const TriangleIndex& idx,
                               const std::array<VertexId, 4>& q) {
    return std::array<TriangleId, 4>{idx.TriangleIdOf(q[0], q[1], q[2]),
                                     idx.TriangleIdOf(q[0], q[1], q[3]),
                                     idx.TriangleIdOf(q[0], q[2], q[3]),
                                     idx.TriangleIdOf(q[1], q[2], q[3])};
  };
  std::vector<std::array<EdgeId, 3>> dead_tri_edges;
  if (need_tri_edges) {
    dead_tri_edges.reserve(tdelta.dead.size());
    for (const auto& t : tdelta.dead) {
      dead_tri_edges.push_back(tri_edge_ids(*eidx, t));
    }
  }
  std::vector<TriangleId> dead_tri_ids;
  if (need_tri_ids) {
    dead_tri_ids.reserve(tdelta.dead.size());
    for (const auto& t : tdelta.dead) {
      dead_tri_ids.push_back(tidx->TriangleIdOf(t[0], t[1], t[2]));
    }
  }
  std::vector<std::array<TriangleId, 4>> dead_4c_tris;
  if (need_4c_delta) {
    dead_4c_tris.reserve(fdelta.dead.size());
    for (const auto& q : fdelta.dead) {
      dead_4c_tris.push_back(quad_tri_ids(*tidx, q));
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
  // core maintainer always does); unqualified hierarchies die with the
  // result-cell reset in stage 6. (Runs after the fallible stage 1: the
  // moves out of the result cells are themselves cache mutations.)
  std::unique_ptr<NucleusHierarchy> old_hierarchy[3];
  std::vector<Degree> old_kappa[3];
  const bool can_repair[3] = {
      true, truss_maintainer != nullptr && eidx != nullptr,
      n34_maintainer != nullptr && tidx != nullptr};
  for (int kind = 0; kind < 3; ++kind) {
    ResultCell& cell = results_[kind];
    std::lock_guard<std::mutex> clk(cell.mu);
    if (!can_repair[kind] || !cell.hierarchy || !cell.kappa.has_value()) {
      continue;
    }
    old_hierarchy[kind] = std::move(cell.hierarchy);
    old_kappa[kind] = std::move(*cell.kappa);
  }

  // Stage 2: install the new graph (everything old-graph-dependent is
  // done). The owned storage's address is stable, so space objects keep
  // pointing at valid memory; their contents are re-seated below.
  storage_ = std::move(new_graph);
  graph_ = &storage_;

  // Stage 3: patch the indices in place (graph-independent structures).
  if (eidx != nullptr) {
    eidx->ApplyDelta(delta.removed, delta.inserted);
  }
  std::vector<TriangleId> born_tri_ids;
  if (tidx != nullptr) {
    born_tri_ids = tidx->ApplyDelta(tdelta.dead, tdelta.born);
  }
  std::vector<std::array<EdgeId, 3>> born_tri_edges;
  if (need_tri_edges) {
    born_tri_edges.reserve(tdelta.born.size());
    for (const auto& t : tdelta.born) {
      born_tri_edges.push_back(tri_edge_ids(*eidx, t));
    }
  }
  std::vector<std::array<TriangleId, 4>> born_4c_tris;
  if (need_4c_delta) {
    born_4c_tris.reserve(fdelta.born.size());
    for (const auto& q : fdelta.born) {
      born_4c_tris.push_back(quad_tri_ids(*tidx, q));
    }
  }

  // Stage 4: patch the per-edge triangle CSR.
  if (etc != nullptr) {
    const auto to_patches =
        [&](const std::vector<std::array<VertexId, 3>>& triples,
            const std::vector<TriangleId>& ids,
            const std::vector<std::array<EdgeId, 3>>& edges) {
          std::vector<EdgeTriangleCsr::TrianglePatch> patches;
          patches.reserve(triples.size());
          for (std::size_t i = 0; i < triples.size(); ++i) {
            const auto& t = triples[i];
            // Edge j's opposite vertex completes it into the triangle:
            // (t0,t1)->t2, (t0,t2)->t1, (t1,t2)->t0.
            patches.push_back(EdgeTriangleCsr::TrianglePatch{
                ids[i], edges[i], {t[2], t[1], t[0]}});
          }
          return patches;
        };
    etc->ApplyDelta(to_patches(tdelta.dead, dead_tri_ids, dead_tri_edges),
                    to_patches(tdelta.born, born_tri_ids, born_tri_edges),
                    removed_edge_ids, eidx->NumEdges());
  }

  // Stage 5: patch or drop the arena cells. Space objects are re-seated
  // in place (assignment keeps their address, which the arena pins).
  // Compressed arenas are IMMUTABLE (a varint byte stream has no slack for
  // sentinels), so they are dropped here and rebuilt lazily by the next
  // decompose of the kind; only uncompressed arenas are patched in place.
  const auto drop_compressed = [&](auto& cell) {
    if (cell.compressed.has_value()) {
      cell.compressed.reset();
      BumpStat(&SessionStats::compressed_drops);
    }
    cell.failed_budget_compressed = 0;
  };
  drop_compressed(core_);
  drop_compressed(truss_);
  drop_compressed(nucleus34_);
  const auto members_of = [](const auto& id_arrays) {
    std::vector<std::vector<CliqueId>> out;
    out.reserve(id_arrays.size());
    for (const auto& arr : id_arrays) {
      out.emplace_back(arr.begin(), arr.end());
    }
    return out;
  };
  if (patch_core_arena) {
    std::vector<std::vector<CliqueId>> dead_s, born_s;
    dead_s.reserve(delta.removed.size());
    for (const auto& [u, v] : delta.removed) {
      dead_s.push_back({u, v});
    }
    born_s.reserve(delta.inserted.size());
    for (const auto& [u, v] : delta.inserted) {
      born_s.push_back({u, v});
    }
    core_.arena->ApplyPatch(dead_s, born_s, {}, graph_->NumVertices());
    *core_.space = CoreSpace(*graph_);
  } else {
    core_.space.reset();
  }
  core_.fly_degrees.clear();  // O(n) to recount: not worth patching
  core_.failed_budget = 0;

  if (patch_truss_arena) {
    truss_.arena->ApplyPatch(members_of(dead_tri_edges),
                             members_of(born_tri_edges), removed_edge_ids,
                             eidx->NumEdges());
    *truss_.space = TrussSpace(*graph_, *eidx);
  } else {
    truss_.space.reset();
  }
  if (!truss_.fly_degrees.empty() && eidx != nullptr) {
    truss_.fly_degrees.resize(eidx->NumEdges(), 0);
    for (const auto& edges3 : dead_tri_edges) {
      for (EdgeId e : edges3) --truss_.fly_degrees[e];
    }
    for (const auto& edges3 : born_tri_edges) {
      for (EdgeId e : edges3) ++truss_.fly_degrees[e];
    }
  } else {
    truss_.fly_degrees.clear();
  }
  truss_.failed_budget = 0;

  if (patch_n34_arena) {
    nucleus34_.arena->ApplyPatch(members_of(dead_4c_tris),
                                 members_of(born_4c_tris), dead_tri_ids,
                                 tidx->NumTriangles());
    *nucleus34_.space = Nucleus34Space(*graph_, *tidx);
  } else {
    nucleus34_.space.reset();
  }
  if (!nucleus34_.fly_degrees.empty() && tidx != nullptr &&
      need_4c_delta) {
    nucleus34_.fly_degrees.resize(tidx->NumTriangles(), 0);
    for (const auto& tris4 : dead_4c_tris) {
      for (TriangleId t : tris4) --nucleus34_.fly_degrees[t];
    }
    for (const auto& tris4 : born_4c_tris) {
      for (TriangleId t : tris4) ++nucleus34_.fly_degrees[t];
    }
    // Patched-in triangles start at their counted d_4 = 0 plus born K4s;
    // dead triangles decremented to exactly 0 (all their K4s died).
  } else {
    nucleus34_.fly_degrees.clear();
  }
  nucleus34_.failed_budget = 0;

  // Stage 6: result caches. Every kind whose maintainer ran is re-seeded
  // with the exact post-delta kappa — (1,2) always (the core maintainer's
  // locally-repaired numbers ARE the exact kappa of the mutated graph),
  // (2,3)/(3,4) when the batch carried those maintainers; tau caches
  // restart cold, and hierarchies are repaired in stage 6.5 below.
  for (ResultCell& cell : results_) {
    std::lock_guard<std::mutex> clk(cell.mu);
    cell.Reset();
  }
  const std::vector<Degree>& new_core_kappa =
      batch.maintainer_.CoreNumbersView();
  {
    std::lock_guard<std::mutex> clk(results_[0].mu);
    results_[0].kappa = new_core_kappa;
  }
  std::vector<Degree> new_truss_kappa;
  if (truss_maintainer != nullptr) {
    if (eidx != nullptr) {
      new_truss_kappa.assign(eidx->NumEdges(), 0);
      for (EdgeId e = 0; e < eidx->NumEdges(); ++e) {
        if (!eidx->IsLive(e)) continue;
        const auto [u, v] = eidx->Endpoints(e);
        new_truss_kappa[e] = truss_maintainer->TrussNumberOf(u, v);
      }
    } else {
      // No index to patch: a later (2,3) call builds a fresh index whose
      // lexicographic id order is exactly the maintainer's export order.
      new_truss_kappa = truss_maintainer->TrussNumbersInIndexOrder();
    }
    std::lock_guard<std::mutex> clk(results_[1].mu);
    results_[1].kappa = new_truss_kappa;
    BumpStat(&SessionStats::truss_kappa_seeds);
  }
  std::vector<Degree> new_n34_kappa;
  if (n34_maintainer != nullptr) {
    if (tidx != nullptr) {
      new_n34_kappa.assign(tidx->NumTriangles(), 0);
      for (TriangleId t = 0; t < tidx->NumTriangles(); ++t) {
        if (!tidx->IsLive(t)) continue;
        const auto& tri = tidx->Vertices(t);
        new_n34_kappa[t] =
            n34_maintainer->Nucleus34NumberOf(tri[0], tri[1], tri[2]);
      }
    } else {
      new_n34_kappa = n34_maintainer->Nucleus34NumbersInIndexOrder();
    }
    std::lock_guard<std::mutex> clk(results_[2].mu);
    results_[2].kappa = new_n34_kappa;
    BumpStat(&SessionStats::nucleus34_kappa_seeds);
  }

  // Stage 6.5: localized hierarchy repair. The touched-level bound is the
  // largest level any kappa change / born id / dead id reaches (born ids
  // enter the old-vs-new diff as 0 -> kappa, dead ids as kappa -> 0); for
  // the core space — whose r-cliques never die or get born — the delta's
  // s-cliques (the edges themselves) can also re-link equal-kappa
  // components with no kappa change, so their min-member levels join the
  // bound. Everything above the bound is spliced from the old forest;
  // everything at or below is re-swept from the new kappa.
  const auto touched_level = [](const std::vector<Degree>& before,
                                const std::vector<Degree>& after) {
    Degree level = 0;
    const std::size_t n = std::max(before.size(), after.size());
    for (std::size_t i = 0; i < n; ++i) {
      const Degree b = i < before.size() ? before[i] : 0;
      const Degree a = i < after.size() ? after[i] : 0;
      if (b != a) level = std::max(level, std::max(b, a));
    }
    return level;
  };
  const auto install_repaired = [&](int kind, NucleusHierarchy&& repaired) {
    std::lock_guard<std::mutex> clk(results_[kind].mu);
    results_[kind].hierarchy =
        std::make_unique<NucleusHierarchy>(std::move(repaired));
    BumpStat(&SessionStats::hierarchy_repairs);
  };
  if (old_hierarchy[0]) {
    Degree level = touched_level(old_kappa[0], new_core_kappa);
    for (const auto& [u, v] : delta.inserted) {
      level = std::max(level,
                       std::min(new_core_kappa[u], new_core_kappa[v]));
    }
    for (const auto& [u, v] : delta.removed) {
      level = std::max(level, std::min(old_kappa[0][u], old_kappa[0][v]));
    }
    const CoreSpace space(*graph_);
    install_repaired(0, RepairHierarchy(space, *old_hierarchy[0],
                                        new_core_kappa, space.LiveRFlags(),
                                        level));
  }
  // The repair re-sweeps per member, so an uncompressed arena (already
  // patched in stage 5) serves it by contiguous scans instead of
  // per-member intersections and id lookups; the fly space otherwise.
  const auto repair = [&](const auto& space, const auto& cell,
                          const NucleusHierarchy& old,
                          const std::vector<Degree>& kappa, Degree level) {
    return cell.arena ? RepairHierarchy(*cell.arena, old, kappa,
                                        space.LiveRFlags(), level)
                      : RepairHierarchy(space, old, kappa,
                                        space.LiveRFlags(), level);
  };
  if (old_hierarchy[1] && eidx != nullptr) {
    install_repaired(
        1, repair(TrussSpace(*graph_, *eidx), truss_, *old_hierarchy[1],
                  new_truss_kappa,
                  touched_level(old_kappa[1], new_truss_kappa)));
  }
  if (old_hierarchy[2] && tidx != nullptr) {
    install_repaired(
        2, repair(Nucleus34Space(*graph_, *tidx), nucleus34_,
                  *old_hierarchy[2], new_n34_kappa,
                  touched_level(old_kappa[2], new_n34_kappa)));
  }

  // Stage 7: compaction. Patching keeps commits O(delta) but leaves
  // tombstones every sweep still iterates over; once a layer's dead
  // fraction crosses the threshold, re-densify it. The edge layer rebuild
  // is a cheap linear scan done eagerly (so the (2,3) seed can be remapped
  // to the fresh ids); the triangle layer drops lazily — its rebuild is
  // the expensive enumeration and the next (3,4) caller pays it, with the
  // (3,4) seed re-exported in the fresh lexicographic id order so the
  // maintainer's exact values survive the re-densify. Hierarchies of a
  // compacted layer are dropped: their members are ids of the retired
  // id space.
  if (eidx != nullptr) {
    const std::size_t dead = eidx->NumEdges() - eidx->NumLiveEdges();
    if (dead >= kMinDeadForCompaction &&
        eidx->DeadFraction() > kDeadFractionForCompaction) {
      edge_index_.Install(EdgeIndex(*graph_));
      BumpStat(&SessionStats::edge_index_builds);
      BumpStat(&SessionStats::compactions);
      edge_triangle_csr_.Reset();
      truss_.Reset();
      {
        std::lock_guard<std::mutex> clk(results_[1].mu);
        if (truss_maintainer != nullptr) {
          results_[1].kappa = truss_maintainer->TrussNumbersInIndexOrder();
        }
        results_[1].hierarchy.reset();
      }
      eidx = nullptr;  // invalidated
      etc = nullptr;
    }
  }
  if (tidx != nullptr) {
    const std::size_t dead =
        tidx->NumTriangles() - tidx->NumLiveTriangles();
    if (dead >= kMinDeadForCompaction &&
        tidx->DeadFraction() > kDeadFractionForCompaction) {
      triangle_index_.Reset();
      edge_triangle_csr_.Reset();
      nucleus34_.Reset();
      BumpStat(&SessionStats::compactions);
      {
        std::lock_guard<std::mutex> clk(results_[2].mu);
        if (n34_maintainer != nullptr) {
          results_[2].kappa = n34_maintainer->Nucleus34NumbersInIndexOrder();
        }
        results_[2].hierarchy.reset();
      }
      tidx = nullptr;
    }
  }
  return Status::Ok();
}

void NucleusSession::ResetDerivedState() {
  core_.Reset();
  truss_.Reset();
  nucleus34_.Reset();
  edge_triangle_csr_.Reset();
  edge_index_.Reset();
  triangle_index_.Reset();
  for (ResultCell& cell : results_) {
    std::lock_guard<std::mutex> clk(cell.mu);
    cell.Reset();
  }
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
  if (const EdgeTriangleCsr* etc = edge_triangle_csr_.TryGet();
      etc != nullptr) {
    // Per-edge offsets + one (triangle, opposite-vertex) entry per
    // triangle-edge incidence (3 per triangle).
    s.index_bytes +=
        (s.edge_ids + 1) * sizeof(std::uint64_t) +
        3 * s.triangle_ids * sizeof(std::pair<TriangleId, VertexId>);
  }
  {
    std::lock_guard<std::mutex> alk(core_.mu);
    if (core_.arena) s.arena_bytes[0] = core_.arena->MemoryBytes();
    if (core_.compressed) {
      s.arena_compressed_bytes[0] = core_.compressed->MemoryBytes();
    }
  }
  {
    std::lock_guard<std::mutex> alk(truss_.mu);
    if (truss_.arena) s.arena_bytes[1] = truss_.arena->MemoryBytes();
    if (truss_.compressed) {
      s.arena_compressed_bytes[1] = truss_.compressed->MemoryBytes();
    }
  }
  {
    std::lock_guard<std::mutex> alk(nucleus34_.mu);
    if (nucleus34_.arena) s.arena_bytes[2] = nucleus34_.arena->MemoryBytes();
    if (nucleus34_.compressed) {
      s.arena_compressed_bytes[2] = nucleus34_.compressed->MemoryBytes();
    }
  }
  for (int k = 0; k < 3; ++k) {
    std::lock_guard<std::mutex> clk(results_[k].mu);
    s.kappa_cached[k] = results_[k].kappa.has_value();
    s.hierarchy_cached[k] = results_[k].hierarchy != nullptr;
  }
  return s;
}

}  // namespace nucleus
