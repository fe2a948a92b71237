// Incremental k-core maintenance under edge insertions/deletions — an
// extension showcasing what the paper's locality buys: after a mutation,
// core numbers are repaired by running the h-index fixed point only on a
// small affected region instead of redecomposing the graph.
//
// Correctness rests on two facts from the paper's theory plus the classic
// single-edge core-update theorem:
//  (1) iterating the U operator from ANY tau with kappa <= tau <= d_2
//      pointwise converges to kappa (sandwich: U preserves ">= kappa" for
//      any upper bound, and is dominated by the run started from d_2);
//  (2) inserting {u,v} can only increase core numbers, by at most 1, and
//      only inside the subcore of k = min(kappa(u), kappa(v)) reachable
//      from the endpoints through kappa == k vertices; deleting can only
//      decrease them.
// So after a mutation we rebuild a valid upper bound tau0 (bump the
// insertion subcore by one / clamp to new degrees on deletion) and run a
// worklist-driven asynchronous repair to the new fixed point.
#ifndef NUCLEUS_LOCAL_DYNAMIC_H_
#define NUCLEUS_LOCAL_DYNAMIC_H_

#include <cstddef>
#include <span>
#include <vector>

#include "src/common/types.h"
#include "src/graph/graph.h"
#include "src/local/dynamic_state.h"

namespace nucleus {

/// Maintains exact core numbers of a mutable simple graph. The graph is
/// the caller's: it changes the edge first, then reports the change, and
/// passes the graph to every call that reads adjacency.
class DynamicCoreMaintainer {
 public:
  /// Starts from an existing graph (core numbers computed internally).
  explicit DynamicCoreMaintainer(const Graph& g);

  /// Starts from known exact core numbers (e.g. the session's kappa
  /// cache), skipping the decomposition; one value per vertex.
  explicit DynamicCoreMaintainer(std::vector<Degree> kappa);

  /// Repairs core numbers after {u, v} was inserted into g.
  void EdgeInserted(const WorkingGraph& g, VertexId u, VertexId v);

  /// Repairs core numbers after {u, v} was erased from g.
  void EdgeErased(const WorkingGraph& g, VertexId u, VertexId v);

  /// Current exact core numbers.
  const std::vector<Degree>& CoreNumbersView() const {
    return kappa_.values();
  }

  /// Vertices whose core number was written since construction (each
  /// once; a superset of those whose value changed).
  std::span<const CliqueId> ChangedIds() const {
    return kappa_.ChangedIds();
  }

  /// Vertices whose tau was recomputed during the last mutation (work
  /// measure; the point of locality is that this stays small).
  std::size_t LastRepairWork() const { return last_repair_work_; }

 private:
  // Runs the worklist repair from the given seeds and their neighbors;
  // kappa_ must be a valid upper bound (kappa <= tau <= degree) on entry.
  void Repair(const WorkingGraph& g, std::vector<CliqueId> seeds);

  KappaStore<1> kappa_;
  std::size_t last_repair_work_ = 0;
};

}  // namespace nucleus

#endif  // NUCLEUS_LOCAL_DYNAMIC_H_
