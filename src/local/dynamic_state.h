// State the three dynamic maintainers (dynamic.h, dynamic_truss.h,
// dynamic_nucleus34.h) share: the mutable working graph, which none of
// them owns (a session batch holds one and passes it to every maintainer
// it carries), and the exact kappa per r-clique, indexed by id, together
// with the two traversals every mutation runs over it.
//
// Ids. A maintainer numbers its r-cliques by a base index — vertex ids for
// (1,2), EdgeIndex ids for (2,3), TriangleIndex ids for (3,4) — and gives
// every r-clique born after construction a slot past the base id range. A
// small side store keyed by the sorted vertex tuple maps born r-cliques to
// their slots, so it only ever holds r-cliques the maintainer saw born. A
// base id whose r-clique died keeps its slot at kappa 0 (and gets it back
// if the r-clique is re-born); liveness itself is the working graph's.
// Every visited set, bumped set and repair queue is an id-indexed stamp or
// flag vector: no hash container holds an entry per r-clique of the graph.
#ifndef NUCLEUS_LOCAL_DYNAMIC_STATE_H_
#define NUCLEUS_LOCAL_DYNAMIC_STATE_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <queue>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/h_index.h"
#include "src/common/types.h"
#include "src/graph/graph.h"

namespace nucleus {

/// Sorted adjacency lists of a mutable simple graph on a fixed vertex set.
class WorkingGraph {
 public:
  explicit WorkingGraph(const Graph& g);

  std::size_t NumVertices() const { return adj_.size(); }
  std::size_t NumEdges() const { return num_edges_; }
  std::span<const VertexId> Neighbors(VertexId v) const { return adj_[v]; }

  /// False for absent edges and for invalid pairs (u == v, out of range).
  bool HasEdge(VertexId u, VertexId v) const;
  /// Adds {u, v}; false (no-op) if invalid or present.
  bool Insert(VertexId u, VertexId v);
  /// Removes {u, v}; false (no-op) if invalid or absent.
  bool Erase(VertexId u, VertexId v);

  /// Materializes the current graph as an immutable CSR Graph.
  Graph ToGraph() const;

 private:
  std::vector<std::vector<VertexId>> adj_;
  std::size_t num_edges_ = 0;
};

/// Hash of a sorted vertex tuple (side-store key).
struct VertexTupleHash {
  template <std::size_t N>
  std::size_t operator()(const std::array<VertexId, N>& t) const {
    std::uint64_t h = t[0];
    for (std::size_t i = 1; i < N; ++i) h = h * 0x9e3779b97f4a7c15ULL ^ t[i];
    return static_cast<std::size_t>(h ^ (h >> 32));
  }
};

/// Exact kappa per r-clique id (see the file comment for the id layout).
/// R is the number of vertices of an r-clique.
///
/// The traversals take the maintainer's s-clique enumeration as
/// `for_each(id, fn)`: it calls fn(co) once per s-clique containing the
/// live r-clique `id`, with `co` the ids of the other member r-cliques.
template <std::size_t R>
class KappaStore {
 public:
  using Tuple = std::array<VertexId, R>;

  /// `kappa` holds one value per base id.
  explicit KappaStore(std::vector<Degree> kappa)
      : kappa_(std::move(kappa)),
        base_ids_(kappa_.size()),
        changed_mark_(base_ids_, 0),
        stamp_(base_ids_, 0),
        queued_(base_ids_, 0) {}

  Degree operator[](CliqueId id) const { return kappa_[id]; }
  const std::vector<Degree>& values() const { return kappa_; }
  std::size_t NumBaseIds() const { return base_ids_; }

  /// Writes kappa of `id`.
  void Set(CliqueId id, Degree value) {
    if (id < base_ids_ && changed_mark_[id] == 0) {
      changed_mark_[id] = 1;
      changed_.push_back(id);
    }
    kappa_[id] = value;
  }

  /// Base ids written since construction, each once, in first-write order
  /// (a superset of the base ids whose value differs from the start).
  std::span<const CliqueId> ChangedIds() const { return changed_; }

  /// Slot of a tuple in the side store (whether its r-clique is alive now
  /// or not), or kInvalidClique if it was never born.
  CliqueId FindBorn(const Tuple& t) const {
    if (born_.empty()) return kInvalidClique;
    const auto it = born_.find(t);
    return it == born_.end() ? kInvalidClique : it->second;
  }

  /// Slot of a born tuple: its existing one, else a fresh one at kappa 0.
  CliqueId Born(const Tuple& t) {
    const auto [it, fresh] =
        born_.try_emplace(t, static_cast<CliqueId>(kappa_.size()));
    if (fresh) {
      born_tuples_.push_back(t);
      kappa_.push_back(0);
      stamp_.push_back(0);
      queued_.push_back(0);
    }
    return it->second;
  }

  /// Vertex tuple of side-store slot `id` (id >= NumBaseIds()).
  const Tuple& BornTuple(CliqueId id) const {
    return born_tuples_[id - base_ids_];
  }

  /// The old r-cliques an insertion may raise by one: for each level
  /// m < `levels`, a BFS over s-cliques whose members all hold kappa >= m.
  /// It starts from the `sources` holding kappa >= m and expands only the
  /// r-cliques it reaches at exactly m, which are the risers. The BFS
  /// reads values as they are, so callers apply the bumps afterwards. No
  /// riser is listed twice: a level's BFS visits each id once, and an id
  /// rises only at its own level.
  ///
  /// Every s-clique the insertion created must contain a source, and every
  /// r-clique it created must be one. Then the risers that do rise to
  /// m + 1 are all found: take a set C of them connected through s-cliques
  /// whose members all end at kappa >= m + 1. If none of those s-cliques
  /// were new, C together with the old (m + 1)-level would already have
  /// been an (m + 1)-level before the insertion. So one of them is new and
  /// holds a source, and C is reached from it through r-cliques at m
  /// alone; the r-cliques above m need not be crossed.
  template <typename ForEach>
  std::vector<CliqueId> Risers(std::span<const CliqueId> sources,
                               Degree levels, ForEach&& for_each) {
    std::vector<CliqueId> risers;
    std::vector<CliqueId> frontier;
    for (Degree m = 0; m < levels; ++m) {
      NextStamp();
      frontier.clear();
      for (CliqueId s : sources) {
        if (kappa_[s] >= m && Visit(s)) frontier.push_back(s);
      }
      for (std::size_t head = 0; head < frontier.size(); ++head) {
        for_each(frontier[head], [&](std::span<const CliqueId> co) {
          for (CliqueId c : co) {
            if (kappa_[c] < m) return;
          }
          for (CliqueId c : co) {
            if (kappa_[c] == m && Visit(c)) {
              risers.push_back(c);
              frontier.push_back(c);
            }
          }
        });
      }
    }
    return risers;
  }

  /// Worklist h-index repair to the fixed point from `seeds` (ids whose
  /// inputs changed). Every value must be an upper bound of the new kappa
  /// on entry. Returns the number of recomputations (work measure).
  template <typename ForEach>
  std::size_t Repair(std::span<const CliqueId> seeds, ForEach&& for_each) {
    std::size_t work = 0;
    std::queue<CliqueId> queue;
    const auto push = [&](CliqueId id) {
      if (queued_[id] == 0) {
        queued_[id] = 1;
        queue.push(id);
      }
    };
    for (CliqueId s : seeds) push(s);
    while (!queue.empty()) {
      const CliqueId id = queue.front();
      queue.pop();
      queued_[id] = 0;
      ++work;
      auto& rhos = scratch_.values();
      rhos.clear();
      co_.clear();
      for_each(id, [&](std::span<const CliqueId> co) {
        Degree rho = kInvalidClique;
        for (CliqueId c : co) rho = std::min(rho, kappa_[c]);
        rhos.push_back(rho);
        co_.insert(co_.end(), co.begin(), co.end());
      });
      const Degree h = std::min<Degree>(scratch_.Compute(), kappa_[id]);
      if (h != kappa_[id]) {
        Set(id, h);
        for (CliqueId c : co_) push(c);  // wake the co-members
      }
    }
    return work;
  }

  /// Moves the values out onto a patched id space of `num_ids` ids: the
  /// base index after the net delta of this store's mutations was applied
  /// to it. Base ids keep their slots (0 for dead ones); each born tuple
  /// alive there lands on `id_of(tuple)`, which must return kInvalidClique
  /// for tuples that are not. The store is empty afterwards.
  template <typename IdOf>
  std::vector<Degree> Take(std::size_t num_ids, IdOf&& id_of) {
    std::vector<std::pair<CliqueId, Degree>> born;
    for (const auto& [tuple, slot] : born_) {
      const CliqueId id = id_of(tuple);
      if (id != kInvalidClique) born.emplace_back(id, kappa_[slot]);
    }
    std::vector<Degree> out = std::move(kappa_);
    out.resize(base_ids_);
    out.resize(num_ids, 0);
    // Side-store slots may have doubled the capacity; the result outlives
    // the batch as a kappa cache, so it keeps only what it holds.
    out.shrink_to_fit();
    for (const auto& [id, k] : born) out[id] = k;
    kappa_.clear();
    born_.clear();
    born_tuples_.clear();
    return out;
  }

 private:
  void NextStamp() {
    if (++current_stamp_ == 0) {  // wrapped: forget every old mark
      std::fill(stamp_.begin(), stamp_.end(), 0);
      current_stamp_ = 1;
    }
  }
  // True the first time `id` is visited under the current stamp.
  bool Visit(CliqueId id) {
    if (stamp_[id] == current_stamp_) return false;
    stamp_[id] = current_stamp_;
    return true;
  }

  std::vector<Degree> kappa_;  // base ids, then side-store slots
  std::size_t base_ids_ = 0;
  std::unordered_map<Tuple, CliqueId, VertexTupleHash> born_;
  std::vector<Tuple> born_tuples_;  // by slot - base_ids_
  std::vector<std::uint8_t> changed_mark_;  // per base id
  std::vector<CliqueId> changed_;
  // Traversal scratch, one entry per id: the BFS visit stamp and the
  // repair queue flag (cleared on pop, so all-zero between mutations).
  std::vector<std::uint32_t> stamp_;
  std::uint32_t current_stamp_ = 0;
  std::vector<std::uint8_t> queued_;
  HIndexScratch scratch_;
  std::vector<CliqueId> co_;  // co-member ids of the r-clique in repair
};

}  // namespace nucleus

#endif  // NUCLEUS_LOCAL_DYNAMIC_STATE_H_
