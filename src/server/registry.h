// Multi-tenant graph registry: named NucleusSessions loaded/evicted at
// runtime, with per-graph arena budgets and LRU eviction under one global
// memory budget. Entries are handed out as shared_ptr, so eviction is
// always safe under load: an evicted entry disappears from the registry
// (later lookups report kNotFound) while requests already holding the
// handle finish against the still-alive session — no use-after-free, no
// blocking the evictor on in-flight work.
#ifndef NUCLEUS_SERVER_REGISTRY_H_
#define NUCLEUS_SERVER_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/session.h"
#include "src/graph/graph.h"

namespace nucleus {

class GraphRegistry {
 public:
  struct Config {
    /// LRU eviction triggers once the summed footprint of all resident
    /// sessions exceeds this. 0 = unbounded (no eviction).
    std::uint64_t global_budget_bytes = std::uint64_t{4} << 30;
    /// Arena materialization budget handed to sessions whose Load/Add call
    /// did not name one.
    std::uint64_t default_arena_budget_bytes = std::uint64_t{512} << 20;
  };

  /// One served graph. The session is the multi-request state (indices,
  /// arenas, kappa caches); the two locks layer the registry's coarse
  /// serving contract over the session's internal fine-grained one:
  ///  - update_mu serializes mutation batches (two concurrent UpdateBatch
  ///    commits would make one fail as stale — queueing them is the
  ///    service behavior callers expect);
  ///  - graph_mu protects request handlers whose response must come from
  ///    one graph state: those that hold session-internal references
  ///    across response assembly (the raw Graph in densest, the hierarchy
  ///    pointer while streaming) and include_kappa decomposes, which hold
  ///    it from the session call through the kappa slot lookup. Such reads
  ///    take it shared; a committing update takes it exclusive and clears
  ///    the kappa slots inside that section, so a commit can never
  ///    invalidate a reference mid-response, and no encoded kappa outlives
  ///    the commit that changed it. Other value-returning session calls
  ///    need neither lock.
  /// The kappa slots are keyed by the session's own epoch, so a commit
  /// made on the session directly rather than through the update
  /// endpoint still retires them; their bytes then stay resident until
  /// the kind's next exact read.
  struct Entry {
    Entry(std::string name_in, Graph&& graph, std::uint64_t arena_budget)
        : name(std::move(name_in)),
          arena_budget_bytes(arena_budget),
          session(std::move(graph)) {}

    /// The cached fragment of `kind` when one was encoded at `epoch` (a
    /// DecomposeResult::epoch), else null. On a miss, *admit says whether
    /// the caller should encode and AdmitKappa: a fragment is admitted on
    /// the second exact read of an epoch, so a kind read once per epoch
    /// never pins its encoding.
    std::shared_ptr<const std::string> FindKappa(DecompositionKind kind,
                                                 std::uint64_t epoch,
                                                 bool* admit);
    /// Installs the `[...]` encoding of `kind`'s exact kappa at `epoch`,
    /// unless the slot moved to another epoch meanwhile.
    void AdmitKappa(DecompositionKind kind, std::uint64_t epoch,
                    std::shared_ptr<const std::string> fragment);
    /// Drops every cached fragment (a commit, under exclusive graph_mu).
    void ClearKappa();
    /// Bytes the cached fragments hold.
    std::uint64_t KappaFragmentBytes() const;
    /// The eviction currency: the session's SessionStateStats::TotalBytes
    /// plus the cached fragments.
    std::uint64_t FootprintBytes() const;

    const std::string name;
    const std::uint64_t arena_budget_bytes;
    NucleusSession session;
    std::mutex update_mu;
    std::shared_mutex graph_mu;
    /// LRU clock value of the most recent Get (registry-global ticks).
    std::atomic<std::uint64_t> last_used{0};

   private:
    // One kind's encoded kappa array. `epoch` is the last epoch an exact
    // read saw; `fragment` is set only once that epoch was read twice.
    struct KappaSlot {
      static constexpr std::uint64_t kNoEpoch = ~std::uint64_t{0};
      std::uint64_t epoch = kNoEpoch;
      std::shared_ptr<const std::string> fragment;
    };
    // Guards kappa_slots_. Held only inside the methods above, never
    // across an encode or another lock.
    mutable std::mutex kappa_mu_;
    KappaSlot kappa_slots_[3];  // indexed by DecompositionKind
  };

  explicit GraphRegistry(Config config) : config_(config) {}

  /// The named graph, bumping its LRU recency; kNotFound when absent (or
  /// already evicted).
  StatusOr<std::shared_ptr<Entry>> Get(const std::string& name);

  /// Loads a graph from disk (format auto-detected: binary CSR dump or
  /// SNAP text edge list) and registers it. kFailedPrecondition when the
  /// name is taken; IO/parse failures propagate from the loader.
  /// arena_budget_bytes == 0 uses the config default. Registering may
  /// LRU-evict other entries to respect the global budget; the newcomer
  /// itself is always admitted.
  StatusOr<std::shared_ptr<Entry>> Load(const std::string& name,
                                        const std::string& path,
                                        std::uint64_t arena_budget_bytes = 0);

  /// Registers an in-process graph (tests, benches, generators).
  StatusOr<std::shared_ptr<Entry>> Add(const std::string& name, Graph&& graph,
                                       std::uint64_t arena_budget_bytes = 0);

  /// Drops the named graph; kNotFound when absent. In-flight requests
  /// holding the entry finish normally.
  Status Evict(const std::string& name);

  /// Resident entries, name-sorted.
  std::vector<std::shared_ptr<Entry>> List() const;

  /// Re-checks the global budget and LRU-evicts past it — the server calls
  /// this after requests, since footprints grow as arenas/indices build
  /// lazily long after Load admitted the entry. Returns entries evicted.
  int EnforceBudget();

  std::size_t NumResident() const;
  /// Summed footprint of all resident entries (Entry::FootprintBytes).
  std::uint64_t TotalBytes() const;
  /// Entries evicted over the registry's lifetime (explicit + budget).
  std::uint64_t Evictions() const { return evictions_.load(); }

  const Config& config() const { return config_; }

 private:
  StatusOr<std::shared_ptr<Entry>> Register(const std::string& name,
                                            Graph&& graph,
                                            std::uint64_t arena_budget_bytes);
  // Evicts least-recently-used entries until the global budget holds,
  // never evicting `keep`. Caller holds mu_.
  int EnforceBudgetLocked(const Entry* keep);

  const Config config_;
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<Entry>> entries_;
  std::atomic<std::uint64_t> clock_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace nucleus

#endif  // NUCLEUS_SERVER_REGISTRY_H_
