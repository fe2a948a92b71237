// Session-centric public API. A NucleusSession is constructed once from a
// Graph and owns every piece of derived state — EdgeIndex, TriangleIndex,
// the per-space CSR co-member arenas, exact kappa values, truncated-run tau
// values, and nucleus hierarchies — built lazily on first use, cached, and
// shared across every subsequent call. Callers that issue repeated
// decompositions, queries, or updates against the same graph hold one
// session so the indices and arenas are paid for once.
//
// The three (r,s) instances are one code path: session.cc keeps a kind
// table (per kind: its space type, the index the space is made from, its
// SessionStats counters, its id noun, whether its ids can be tombstoned)
// and every entry point, commit stage and snapshot is written once over
// it. The table is the single per-kind seam; KindName / ParseKindName
// below read their names from it too.
//
// Quickstart:
//   NucleusSession session(LoadEdgeListText("graph.txt"));  // owns the graph
//   DecomposeOptions opts;
//   opts.method = Method::kAnd;
//   opts.threads = 8;  // an inherited Options knob, so not designated-
//                      // initializable: {.method = ...} works, {.threads
//                      // = ...} does not (C++20 aggregates with bases)
//   auto r = session.Decompose(DecompositionKind::kTruss, opts);
//   if (!r.ok()) { /* r.status() explains */ }
//   // r->kappa[e] = truss number of edge e (EdgeIndex id order).
//   auto r2 = session.Decompose(DecompositionKind::kTruss);  // warm: served
//   // from the kappa cache, no index or arena rebuild (r2->index_seconds
//   // == 0, r2->served_from_cache).
//
// Mutation path (incremental commits): UpdateBatch::Commit no longer
// invalidates the derived state wholesale. The committed edge delta is
// propagated through every cached layer in place — EdgeIndex ids are
// tombstoned/appended, the dead/born triangle and 4-clique sets are
// enumerated from the delta's neighborhoods only and applied as patches to
// TriangleIndex and the CSR co-member arenas — and the kappa caches are
// re-seeded from the exact dynamic maintainers
// (DynamicCoreMaintainer for (1,2), DynamicTrussMaintainer for (2,3),
// DynamicNucleus34Maintainer for (3,4)), which keep kappa indexed by the
// session's ids so the commit installs their vectors directly (see
// UpdateBatch). After a small commit the next Decompose of ANY kind is a
// cache hit with ZERO rebuilds. Cached hierarchies are repaired in place
// too (RepairHierarchy re-links only the levels the delta touched — found
// from the ids the batch changed, not by scanning the whole kappa vector —
// splicing the untouched top of the forest; the result is bitwise-equal
// to a full rebuild and counted in SessionStats::hierarchy_repairs)
// whenever the space's maintainer ran this commit — otherwise they drop
// and the next Hierarchy() rebuilds.
// Patched indices keep tombstoned ids addressable (kappa vectors are
// indexed by the id space, dead ids pinned at 0; see
// EdgeIndex::NumLiveEdges); once the tombstone fraction of an id space
// crosses kDeadFractionForCompaction the commit compacts that layer
// (counted in SessionStats::compactions), re-ordering the (2,3)/(3,4)
// kappa seeds into the fresh index order (a sort of the live ids by vertex
// tuple) so the exact values survive the id re-densify.
//
// Error handling: the session boundary never throws on malformed input —
// every entry point returns Status / StatusOr (see common/status.h).
//
// Thread safety: Decompose / Hierarchy / EstimateQueries / Edges /
// Triangles may be called concurrently from any number of threads. Internally the session holds a shared_mutex in shared mode on
// every read path and exclusively in Commit / InvalidateDerivedState, and
// each piece of derived state lives in its own cell (build-outside,
// install-under-lock; common/state_cell.h) — so a cold (3,4) arena build
// blocks only other (3,4) callers, never an unrelated (1,2) read, and
// commits simply wait for in-flight reads to drain. References returned
// by Edges()/Triangles()/Hierarchy() are valid until the next mutating
// Commit or InvalidateDerivedState: a commit usually patches the index
// objects in place, but cached hierarchies are always dropped and a
// compacting commit replaces the indices outright — do not hold such a
// reference across a commit.
#ifndef NUCLEUS_CORE_SESSION_H_
#define NUCLEUS_CORE_SESSION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/clique/compressed_csr_space.h"
#include "src/clique/csr_space.h"
#include "src/clique/delta.h"
#include "src/clique/edge_index.h"
#include "src/clique/spaces.h"
#include "src/clique/triangles.h"
#include "src/common/state_cell.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/graph/graph.h"
#include "src/local/and.h"
#include "src/local/dynamic.h"
#include "src/local/dynamic_nucleus34.h"
#include "src/local/dynamic_truss.h"
#include "src/local/options.h"
#include "src/local/query.h"
#include "src/local/snd.h"
#include "src/peel/hierarchy.h"
#include "src/peel/peel_engine.h"

namespace nucleus {

/// Which (r,s) instance to run.
enum class DecompositionKind {
  kCore,       // (1, 2): kappa over vertices
  kTruss,      // (2, 3): kappa over edges
  kNucleus34,  // (3, 4): kappa over triangles
};

/// Canonical name of the kind: "core", "truss" or "nucleus34".
const char* KindName(DecompositionKind kind);
/// Parses a canonical kind name or one of its aliases ("(1,2)" / "12",
/// "(2,3)" / "23", "nucleus" / "(3,4)" / "34"); kInvalidArgument naming the
/// canonical names otherwise.
StatusOr<DecompositionKind> ParseKindName(const std::string& name);

/// Which algorithm computes the kappa values.
enum class Method {
  kPeeling,  // exact, global (Algorithm 1); see DecomposeOptions::peel
  kSnd,      // local synchronous iteration (Algorithm 2)
  kAnd,      // local asynchronous iteration (Algorithm 3)
};

/// Request options: the shared Options knobs plus method selection and the
/// AND-specific controls.
struct DecomposeOptions : Options {
  Method method = Method::kAnd;
  /// Peel strategy for method == kPeeling (peel/peel_engine.h): the
  /// sequential bucket queue or the level-synchronous parallel peel, which
  /// honors `threads`. kAuto picks parallel whenever threads > 1. Both
  /// strategies produce identical kappa (it is unique), so the session's
  /// exact-result cache is strategy-agnostic: a peel-parallel request is a
  /// cache hit on kappa computed by peel-sequential, SND, or AND, and vice
  /// versa.
  PeelStrategy peel_strategy = PeelStrategy::kAuto;
  /// AND processing order.
  AndOrder order = AndOrder::kNatural;
  /// Used when order == AndOrder::kGiven; must be a permutation of [0, n).
  std::vector<CliqueId> given_order;
  /// Seed for order == AndOrder::kRandom.
  std::uint64_t seed = 1;
  /// AND notification mechanism.
  bool use_notification = true;
  /// Serve repeat requests from the session's result caches instead of
  /// re-running an engine. Exact requests (max_iterations == 0) hit the
  /// kappa cache; truncated requests (max_iterations > 0) are served from
  /// the cached exact kappa when one exists (exact beats truncated: kappa
  /// is the fixed point every truncated run approaches from above) and
  /// otherwise from a per-(kind, method, max_iterations) tau cache of
  /// previous truncated runs (the remaining AND knobs — order, seed,
  /// threads — are not part of the key: an asynchronous truncated run is
  /// scheduling-dependent anyway, so any cached tau of the same engine
  /// and budget is an equally valid certified upper bound). Traced runs
  /// always bypass. Turn this off to force a fresh engine run (e.g. when
  /// timing the engines or studying the truncation trajectory itself).
  bool use_result_cache = true;
};

/// Result of one decomposition request.
struct DecomposeResult {
  /// kappa (or tau, if truncated) per r-clique. Index meaning depends on
  /// the kind: vertex id / EdgeIndex id / TriangleIndex id. After a
  /// commit removed edges, the id space may contain tombstoned ids whose
  /// value is pinned at 0 (see the mutation-path comment above).
  std::vector<Degree> kappa;
  /// Number of r-clique ids (the id space size; equals the live r-clique
  /// count until a commit tombstones ids).
  std::size_t num_r_cliques = 0;
  /// Sweeps used by the local methods (0 for peeling and cache hits).
  int iterations = 0;
  /// True for peeling, converged local runs, and exact cache hits.
  bool exact = true;
  /// Wall-clock seconds of the decomposition proper (excludes index and
  /// arena construction, reported separately below).
  double seconds = 0.0;
  /// Seconds THIS call spent building the edge/triangle index (0 when the
  /// session already had it cached, and always 0 for kCore).
  double index_seconds = 0.0;
  /// Seconds THIS call spent materializing the CSR co-member arena (0 when
  /// cached, on the fly, or over budget).
  double arena_seconds = 0.0;
  /// True when the request was answered from the session's result caches
  /// without running any engine.
  bool served_from_cache = false;
  /// The session state the result was served at. A mutating commit or
  /// InvalidateDerivedState moves it, nothing else does, so two exact
  /// results of one kind with the same epoch carry the same kappa. Serving
  /// layers key encoded copies of kappa on it.
  std::uint64_t epoch = 0;
  /// The peel's level partition (live r-cliques in non-decreasing kappa
  /// order, segmented into equal-kappa runs) — populated only by a fresh
  /// method == kPeeling engine run, empty for the local methods and for
  /// cache hits. Hierarchy() consumes it directly (zero re-bucketing)
  /// when the exact run it triggers is a peel.
  std::vector<CliqueId> peel_order;
  std::vector<PeelLevel> peel_levels;
};

/// Monotone counters exposing what the session has built and served; the
/// reuse contract ("index built exactly once", "incremental commits do not
/// rebuild") is asserted against these.
struct SessionStats {
  std::uint64_t edge_index_builds = 0;
  std::uint64_t triangle_index_builds = 0;
  std::uint64_t core_arena_builds = 0;
  std::uint64_t truss_arena_builds = 0;
  std::uint64_t nucleus34_arena_builds = 0;
  std::uint64_t decompose_calls = 0;
  std::uint64_t decompose_cache_hits = 0;
  std::uint64_t hierarchy_builds = 0;
  std::uint64_t query_calls = 0;
  std::uint64_t commits = 0;
  /// Mutating commits that propagated the delta through cached state in
  /// place (vs. commits with nothing cached to patch).
  std::uint64_t incremental_commits = 0;
  /// Commits that re-densified an id space because its tombstone fraction
  /// crossed kDeadFractionForCompaction.
  std::uint64_t compactions = 0;
  /// Commits that re-seeded the (2,3) kappa cache from the batch's
  /// DynamicTrussMaintainer.
  std::uint64_t truss_kappa_seeds = 0;
  /// Commits that re-seeded the (3,4) kappa cache from the batch's
  /// DynamicNucleus34Maintainer.
  std::uint64_t nucleus34_kappa_seeds = 0;
  /// Cached hierarchies repaired in place by a commit (localized level
  /// re-sweep instead of a full rebuild; one count per repaired kind).
  std::uint64_t hierarchy_repairs = 0;
  /// Deadline-aware degradations: a budgeted arena build whose deadline
  /// share expired while the overall request was still alive fell back to
  /// the on-the-fly space instead of failing the request.
  std::uint64_t degraded_builds = 0;
  /// Arena builds that produced the delta-compressed representation
  /// (compressed_csr_space.h) — the explicit kCompressed mode, or kAuto
  /// degrading there after the uncompressed arena exceeded the budget.
  /// Also counted in the per-kind *_arena_builds.
  std::uint64_t compressed_builds = 0;
  /// Mutating commits that dropped an immutable compressed arena (it
  /// cannot be patched in place); the next decompose of that kind rebuilds
  /// it lazily.
  std::uint64_t compressed_drops = 0;
};

/// Read-only snapshot of the session's observable state: the monotone
/// counters plus what is currently cached and (approximately) how much
/// memory it pins — the per-graph record a serving layer's /metricz and
/// eviction policy consume. Copyable and self-contained: nothing in it
/// refers back into the session. Byte figures for the CSR arenas are the
/// arenas' own accounting; graph and index bytes are close structural
/// estimates (payload vectors, not hash-map overhead).
struct SessionStateStats {
  SessionStats counters;
  /// Current graph (the mutated copy after committed updates).
  std::size_t num_vertices = 0;
  std::size_t num_edges = 0;
  /// Id-space sizes and live counts of the cached indices (0 when the
  /// index has not been built). Ids exceed live counts by the tombstones
  /// commits left behind.
  std::size_t edge_ids = 0;
  std::size_t live_edges = 0;
  std::size_t triangle_ids = 0;
  std::size_t live_triangles = 0;
  /// Per-kind cache occupancy, indexed by DecompositionKind.
  bool kappa_cached[3] = {false, false, false};
  bool hierarchy_cached[3] = {false, false, false};
  /// Resident bytes of the materialized co-member arenas, per kind, split
  /// by representation: arena_bytes is the uncompressed CSR arena,
  /// arena_compressed_bytes the delta-compressed byte arena (a kind holds
  /// at most one of the two).
  std::uint64_t arena_bytes[3] = {0, 0, 0};
  std::uint64_t arena_compressed_bytes[3] = {0, 0, 0};
  /// Estimated bytes of the graph's CSR arrays.
  std::uint64_t graph_bytes = 0;
  /// Estimated bytes of the edge and triangle indices.
  std::uint64_t index_bytes = 0;

  /// Everything the session pins, the registry's eviction currency —
  /// compressed arenas priced at their real (compressed) footprint.
  std::uint64_t TotalBytes() const {
    std::uint64_t total = graph_bytes + index_bytes;
    for (int k = 0; k < 3; ++k) {
      total += arena_bytes[k] + arena_compressed_bytes[k];
    }
    return total;
  }
};

class NucleusSession {
 public:
  /// Tombstone fraction of an id space above which a mutating commit
  /// compacts (rebuilds fresh, re-densifying ids) instead of patching
  /// further. Patching keeps commits O(delta); compaction bounds the id
  /// slack every engine sweep still iterates over.
  static constexpr double kDeadFractionForCompaction = 0.25;
  /// Compaction never triggers below this many tombstones (small graphs
  /// churn their whole edge set without ever amortizing a rebuild).
  static constexpr std::size_t kMinDeadForCompaction = 64;

  /// Owning construction: the session takes the graph by move.
  explicit NucleusSession(Graph&& graph);
  /// Borrowing construction: the caller keeps `graph` alive for the
  /// session's lifetime. A
  /// committed UpdateBatch switches the session to an internal mutated
  /// copy; the borrowed graph is never modified.
  explicit NucleusSession(const Graph& graph);

  // The session hands out internal pointers (indices, arenas, hierarchies),
  // so it is pinned in memory.
  NucleusSession(const NucleusSession&) = delete;
  NucleusSession& operator=(const NucleusSession&) = delete;

  /// The graph every cached index refers to (the mutated copy after a
  /// committed UpdateBatch).
  const Graph& graph() const { return *graph_; }

  /// Runs (or serves from cache) a decomposition. Builds whatever index /
  /// arena the kind and options require on first use; repeat calls reuse
  /// them, and repeat requests are answered from the result caches (see
  /// DecomposeOptions::use_result_cache for the exact-beats-truncated
  /// serving rule).
  StatusOr<DecomposeResult> Decompose(DecompositionKind kind,
                                      const DecomposeOptions& options = {});

  /// The nucleus hierarchy of the kind, built once and cached. kappa comes
  /// from the cache when an exact decomposition already ran; otherwise an
  /// exact run with `options` (max_iterations forced to 0) happens first.
  /// The pointer stays valid until Commit / InvalidateDerivedState.
  StatusOr<const NucleusHierarchy*> Hierarchy(
      DecompositionKind kind, const DecomposeOptions& options = {});

  /// Uncached hierarchy from caller-provided kappa values (must match the
  /// kind's r-clique id count). Reuses the session's indices.
  StatusOr<NucleusHierarchy> HierarchyFor(DecompositionKind kind,
                                          std::span<const Degree> kappa);

  /// Query-driven local estimation (paper Section 1.2), unified across all
  /// three spaces: ids are vertex ids (kCore), EdgeIndex ids (kTruss), or
  /// TriangleIndex ids (kNucleus34); tombstoned ids are rejected as
  /// kInvalidArgument. Estimates are certified upper bounds of kappa,
  /// tightening monotonically with options.radius. Thread-safe; concurrent
  /// callers share the cached indices. `ctl` bounds a cold index build and
  /// the sweeps; a stopped query returns ctl.StopStatus().
  StatusOr<QueryEstimate> EstimateQueries(DecompositionKind kind,
                                          std::span<const CliqueId> ids,
                                          const QueryOptions& options = {},
                                          RunControl ctl = {});

  /// A mutation handle over the session's graph: insert/remove edges with
  /// exact local repair of core numbers (DynamicCoreMaintainer) and — when
  /// the session holds exact (2,3) / (3,4) kappa and the index it is
  /// indexed by — of truss numbers (DynamicTrussMaintainer) and kappa_4
  /// (DynamicNucleus34Maintainer), then Commit() to publish the mutated
  /// graph back into the session with incremental delta propagation (see
  /// the mutation-path comment at the top). An uncommitted batch is
  /// discarded.
  ///
  /// The batch holds one adjacency: a WorkingGraph copied from the
  /// session's graph in BeginUpdates. Each InsertEdge / RemoveEdge changes
  /// it once and then has every maintainer repair over it; the
  /// maintainers keep no adjacency of their own, and Commit materializes
  /// the new graph from it.
  ///
  /// The truss and (3,4) maintainers keep kappa in a vector indexed by
  /// the session's edge / triangle ids (the base), written in place, plus
  /// a small side store for the edges and triangles born inside the batch.
  /// Isolation: BeginUpdates gives each maintainer its own copy of the
  /// index and of the cached kappa, because another batch's commit patches
  /// the session's index in place and a compaction frees it; a batch never
  /// reads session state after BeginUpdates. Commit moves the vector into
  /// the kappa cache once the session's index is patched (born ids filled
  /// from the side store), so after a successful Commit the batch no
  /// longer maintains truss or (3,4) (MaintainsTruss() and
  /// MaintainsNucleus34() turn false).
  class UpdateBatch {
   public:
    /// Move transfers the handle; the moved-from batch can no longer
    /// Commit (it reports kFailedPrecondition).
    UpdateBatch(UpdateBatch&& other) noexcept
        : session_(other.session_),
          graph_(std::move(other.graph_)),
          maintainer_(std::move(other.maintainer_)),
          truss_maintainer_(std::move(other.truss_maintainer_)),
          n34_maintainer_(std::move(other.n34_maintainer_)),
          net_(std::move(other.net_)),
          epoch_(other.epoch_),
          reset_epoch_(other.reset_epoch_),
          mutations_(other.mutations_),
          committed_(other.committed_) {
      other.session_ = nullptr;
    }
    UpdateBatch(const UpdateBatch&) = delete;
    UpdateBatch& operator=(const UpdateBatch&) = delete;

    /// Inserts undirected edge {u, v}; false (no-op) if present or u == v.
    bool InsertEdge(VertexId u, VertexId v);
    /// Removes undirected edge {u, v}; false if absent.
    bool RemoveEdge(VertexId u, VertexId v);

    /// Exact core numbers of the batch's working graph (live view).
    const std::vector<Degree>& CoreNumbers() const {
      return maintainer_.CoreNumbersView();
    }
    /// True when the batch also repairs truss numbers (the session had
    /// exact (2,3) kappa cached when BeginUpdates ran); Commit then
    /// re-seeds the (2,3) kappa cache.
    bool MaintainsTruss() const { return truss_maintainer_.has_value(); }
    /// Exact truss number of {u, v} in the batch's working graph, or
    /// kInvalidClique when absent / not maintaining truss.
    Degree TrussNumberOf(VertexId u, VertexId v) const {
      return truss_maintainer_
                 ? truss_maintainer_->TrussNumberOf(graph_, u, v)
                 : kInvalidClique;
    }
    /// True when the batch also repairs (3,4)-nucleus numbers (the session
    /// had exact (3,4) kappa cached when BeginUpdates ran); Commit then
    /// re-seeds the (3,4) kappa cache.
    bool MaintainsNucleus34() const { return n34_maintainer_.has_value(); }
    /// Exact kappa_4 of triangle {u, v, w} in the batch's working graph,
    /// or kInvalidClique when absent / not maintaining (3,4).
    Degree Nucleus34NumberOf(VertexId u, VertexId v, VertexId w) const {
      return n34_maintainer_
                 ? n34_maintainer_->Nucleus34NumberOf(graph_, u, v, w)
                 : kInvalidClique;
    }
    /// Vertices recomputed by the last mutation (locality measure).
    std::size_t LastRepairWork() const {
      return maintainer_.LastRepairWork();
    }
    /// Edges recomputed by the last mutation's truss repair (0 when not
    /// maintaining truss).
    std::size_t LastTrussRepairWork() const {
      return truss_maintainer_ ? truss_maintainer_->LastRepairWork() : 0;
    }
    /// Triangles recomputed by the last mutation's (3,4) repair (0 when
    /// not maintaining (3,4)).
    std::size_t LastNucleus34RepairWork() const {
      return n34_maintainer_ ? n34_maintainer_->LastRepairWork() : 0;
    }
    /// Mutations applied so far (insertions + removals that took effect).
    std::size_t NumMutations() const { return mutations_; }

    /// Publishes the mutated graph into the session (see class comment).
    /// kFailedPrecondition on a second call, on a moved-from handle, or
    /// when the batch is stale — another batch committed mutations after
    /// this one began, so publishing this snapshot would silently drop
    /// them. A commit whose net delta is empty leaves all cached state
    /// untouched.
    ///
    /// Failure atomicity: every fallible step (delta enumeration — which a
    /// stoppable `ctl` can cancel — and the injected commit fault points)
    /// runs BEFORE the first cache mutation, so a commit that returns
    /// non-OK leaves the session exactly as if never attempted, the batch
    /// stays uncommitted, and a retry of Commit() can succeed.
    Status Commit(RunControl ctl = {});

   private:
    friend class NucleusSession;
    UpdateBatch(NucleusSession* session, WorkingGraph graph,
                DynamicCoreMaintainer maintainer,
                std::optional<DynamicTrussMaintainer> truss_maintainer,
                std::optional<DynamicNucleus34Maintainer> n34_maintainer,
                std::uint64_t epoch, std::uint64_t reset_epoch)
        : session_(session),
          graph_(std::move(graph)),
          maintainer_(std::move(maintainer)),
          truss_maintainer_(std::move(truss_maintainer)),
          n34_maintainer_(std::move(n34_maintainer)),
          epoch_(epoch),
          reset_epoch_(reset_epoch) {}

    // Normalized endpoint-pair key for net_ (the encoding EdgeIndex's
    // overlay uses internally).
    static std::uint64_t PairKey(VertexId u, VertexId v) {
      if (u > v) std::swap(u, v);
      return (static_cast<std::uint64_t>(u) << 32) | v;
    }
    // The net delta relative to the branch graph: pair-key -> inserted?
    // (an insert-then-remove of the same pair cancels out).
    EdgeDelta NetDelta() const;

    NucleusSession* session_ = nullptr;
    WorkingGraph graph_;  // the batch's one adjacency
    DynamicCoreMaintainer maintainer_;
    std::optional<DynamicTrussMaintainer> truss_maintainer_;
    std::optional<DynamicNucleus34Maintainer> n34_maintainer_;
    std::unordered_map<std::uint64_t, bool> net_;  // key -> inserted
    std::uint64_t epoch_ = 0;  // graph epoch this batch branched from
    // Session reset epoch at branch time: the ids the truss / (3,4)
    // maintainers index by name the session's ids only while it holds.
    std::uint64_t reset_epoch_ = 0;
    std::size_t mutations_ = 0;
    bool committed_ = false;
  };

  /// Starts a mutation batch from the current graph. Seeds the core
  /// maintainer with the cached exact core numbers when available
  /// (skipping its internal decomposition), and attaches a truss / (3,4)
  /// maintainer when the exact (2,3) / (3,4) kappa is cached (so the
  /// commit can re-seed those caches instead of invalidating).
  UpdateBatch BeginUpdates();

  // Lazily built, cached, shared index surface. References stay valid
  // until the next mutating Commit or InvalidateDerivedState (commits
  // usually patch in place, but a compacting commit replaces the
  // objects; see thread-safety note above). A first-time build goes
  // through the same fallible builder as every entry point, with an
  // unstoppable control: it can fail only at an armed fault point
  // (NUCLEUS_FAULT_INJECTION builds), and since a reference cannot carry
  // a Status, the process then aborts with the status message.

  /// Canonical edge ids of the current graph.
  const EdgeIndex& Edges();
  /// Canonical triangle ids of the current graph; `threads` parallelizes a
  /// first-time build (ignored afterwards).
  const TriangleIndex& Triangles(int threads = 1);

  /// Number of r-clique ids of the kind (building the needed index; a
  /// failed build aborts as for Edges()). This is the id-space size: it
  /// may exceed the live count after commits removed edges (see the
  /// mutation-path comment).
  std::size_t NumRCliques(DecompositionKind kind);

  /// Drops every cached index, arena, kappa/tau vector, and hierarchy.
  /// The next call rebuilds from the current graph. Requires the same
  /// exclusivity as Commit (it takes the writer lock).
  void InvalidateDerivedState();

  /// Snapshot of the build/serve counters.
  SessionStats stats() const;

  /// Thread-safe read-only snapshot of counters + cached-state occupancy +
  /// memory footprint (see SessionStateStats). Takes the session lock in
  /// shared mode, so it can run concurrently with any number of reads and
  /// never observes a commit mid-flight; each cell is peeked under its own
  /// mutex, never building anything.
  SessionStateStats Stats() const;

 private:
  // The result half of a kind's state: exact kappa, the tau cache of
  // truncated runs — keyed by (method, max_iterations), since unlike kappa
  // a truncated tau differs between engines (the remaining AND knobs
  // order/seed/threads are deliberately not part of the key; see
  // use_result_cache) — and the hierarchy.
  struct ResultCell {
    struct Truncated {
      std::vector<Degree> tau;
      int iterations = 0;
      bool exact = false;
    };
    mutable std::mutex mu;
    std::optional<std::vector<Degree>> kappa;
    std::map<std::pair<Method, int>, Truncated> tau_cache;
    std::unique_ptr<NucleusHierarchy> hierarchy;

    void ResetResults() {
      kappa.reset();
      tau_cache.clear();
      hierarchy.reset();
    }
  };

  // Everything the session caches for one kind: the results above plus
  // the materialized-arena half under its own mutex (so same-kind arena
  // builders serialize while other kinds, and cache-served reads of this
  // one, proceed): the base (on-the-fly) space pinned behind unique_ptr
  // so CsrSpace's internal pointer stays valid, and the arena itself.
  template <typename Space>
  struct KindState : ResultCell {
    mutable std::mutex arena_mu;  // Stats() peeks from const context
    std::unique_ptr<Space> space;
    std::optional<CsrSpace<Space>> arena;
    // The delta-compressed alternative (at most one representation is
    // held: the uncompressed arena wins when both could exist). Immutable:
    // commits drop it (SessionStats::compressed_drops) and the next
    // decompose rebuilds lazily, unlike `arena`, which is patched.
    std::optional<CompressedCsrSpace<Space>> compressed;
    // Largest budgets a build attempt failed under, per representation,
    // so hopeless builds are not retried every call (cleared on every
    // mutating commit — the graph may have shrunk). Separate memos keep a
    // failed UNCOMPRESSED attempt from blocking the compressed rung: a
    // budget retry after a degrade picks compressed, not on-the-fly.
    std::uint64_t failed_budget = 0;
    std::uint64_t failed_budget_compressed = 0;
    // Cached initial S-degrees (d_s) for on-the-fly engine runs — the
    // by-product of a failed budgeted arena build, or counted once on the
    // first fly run — so the counting enumeration is never repeated.
    std::vector<Degree> fly_degrees;

    void Reset() {
      {
        std::lock_guard<std::mutex> lk(mu);
        ResetResults();
      }
      arena.reset();  // holds a pointer into *space: drop first
      compressed.reset();
      space.reset();
      failed_budget = 0;
      failed_budget_compressed = 0;
      fly_degrees.clear();
    }
  };

  // The kind's state, selected by its kind-table entry (session.cc).
  template <typename K>
  KindState<typename K::Space>& State(K) {
    return std::get<KindState<typename K::Space>>(kinds_);
  }
  template <typename K>
  const KindState<typename K::Space>& State(K) const {
    return std::get<KindState<typename K::Space>>(kinds_);
  }
  ResultCell& Results(DecompositionKind kind);

  // Shared-lock-held internals (callers hold session_mu_ in shared or
  // exclusive mode).
  //
  // The one builder of every index: EdgeIndex and TriangleIndex (and
  // Graph, the (1,2) space's vertex "index", returned as is). A cached index is returned as-is even past a deadline; a build
  // is cancellable via ctl where the index supports it and runs behind
  // its injected fault point, and a failed build installs NOTHING (the
  // next caller rebuilds from scratch). build_seconds (when non-null)
  // accumulates the time spent building in this call.
  template <typename Index>
  StatusOr<const Index*> IndexShared(int threads, double* build_seconds,
                                     RunControl ctl);
  StatusOr<DecomposeResult> DecomposeShared(DecompositionKind kind,
                                            const DecomposeOptions& options,
                                            RunControl ctl);
  template <typename K>
  StatusOr<DecomposeResult> DecomposeKind(K kind,
                                          const DecomposeOptions& options,
                                          const typename K::Index& index,
                                          double index_seconds,
                                          RunControl ctl);
  // Builds the kind's hierarchy from exact kappa over the on-the-fly
  // space — from `peel`'s level partition when it carries one (a fresh
  // peel run; no kappa re-bucketing), else by bucketing kappa.
  StatusOr<NucleusHierarchy> HierarchyShared(DecompositionKind kind,
                                             const std::vector<Degree>& kappa,
                                             PeelResult* peel,
                                             RunControl ctl);

  // Serves a repeat request from the kind's result cell, or std::nullopt
  // on a miss. Caller holds session_mu_ shared.
  std::optional<StatusOr<DecomposeResult>> TryServeFromCache(
      ResultCell& cell, const DecomposeOptions& options);
  // Stores an engine run's outcome into the kind's result cell.
  void StoreResult(ResultCell& cell, const DecomposeOptions& options,
                   const DecomposeResult& result);

  Status CommitUpdates(UpdateBatch* batch, RunControl ctl);
  // The delta-propagation pipeline (caller holds session_mu_ exclusively).
  // Takes the new kappa seeds out of the batch's maintainers and reads
  // what they changed for the hierarchy repairs; `new_graph` is the
  // maintainer-materialized post-delta graph.
  // Staged apply: every fallible step (cancellable delta enumeration,
  // injected fault points) precedes the first cache mutation — a non-OK
  // return leaves every layer untouched.
  Status PropagateDelta(const EdgeDelta& delta, Graph&& new_graph,
                        UpdateBatch& batch, RunControl ctl);
  void ResetDerivedState();
  void BumpStat(std::uint64_t SessionStats::* field);

  Graph storage_;        // owned graph (empty when borrowing, pre-commit)
  const Graph* graph_;   // points at storage_ or at the borrowed graph

  // Reads (Decompose/Hierarchy/queries/index accessors) hold this shared;
  // Commit and InvalidateDerivedState hold it exclusive. All finer state
  // below has its own cell/mutex, so unrelated reads never serialize.
  mutable std::shared_mutex session_mu_;

  StateCell<EdgeIndex> edge_index_;
  StateCell<TriangleIndex> triangle_index_;
  std::tuple<KindState<CoreSpace>, KindState<TrussSpace>,
             KindState<Nucleus34Space>>
      kinds_;

  // Bumped on every mutating commit; outstanding UpdateBatches compare
  // their branch epoch against it so a stale batch cannot silently drop a
  // newer batch's mutations. Guarded by session_mu_ (read shared in
  // BeginUpdates, written exclusive in Commit).
  std::uint64_t commit_epoch_ = 0;
  // Bumped by InvalidateDerivedState, which drops the indices outright: a
  // later rebuild may number ids differently, so batches branched before
  // it cannot seed kappa by id (guarded like commit_epoch_).
  std::uint64_t reset_epoch_ = 0;
  mutable std::mutex stats_mu_;
  SessionStats stats_;
};

}  // namespace nucleus

#endif  // NUCLEUS_CORE_SESSION_H_
