// Nucleus hierarchy (forest) construction. Given the kappa indices of the
// r-cliques, the k-(r,s) nuclei for all k form a laminar family under
// S-connectivity: each k-nucleus is contained in exactly one (k-1)-nucleus.
// We build that forest with a union-find sweep over decreasing kappa:
// an s-clique becomes "alive" at level k = min kappa of its members, at
// which point it S-connects its members. Every component that gains members
// or merges at level k becomes a hierarchy node with the previously built
// nodes as children.
#ifndef NUCLEUS_PEEL_HIERARCHY_H_
#define NUCLEUS_PEEL_HIERARCHY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/clique/spaces.h"
#include "src/common/cancel.h"
#include "src/common/types.h"
#include "src/peel/peel_engine.h"

namespace nucleus {

/// The nucleus forest. Node ids index `nodes`; parents have strictly
/// smaller k than children... (parents are the *sparser*, enclosing nuclei).
struct NucleusHierarchy {
  struct Node {
    /// The k of this k-(r,s) nucleus.
    Degree k = 0;
    /// Parent node id, or -1 for forest roots.
    int parent = -1;
    /// Children node ids (denser sub-nuclei).
    std::vector<int> children;
    /// r-cliques whose kappa equals k and that first appear in this node.
    std::vector<CliqueId> new_members;
    /// Total r-cliques in the nucleus (this node + descendants).
    std::size_t size = 0;
  };

  std::vector<Node> nodes;
  /// Ids of forest roots (k-minimal nuclei / isolated r-cliques).
  std::vector<int> roots;
  /// For each r-clique: the node in which it first appears (its maximum
  /// nucleus; Definition: the maximal subgraph around it of >= kappa).
  std::vector<int> node_of_clique;

  /// True when the construction was stopped via a RunControl before the
  /// sweep completed. The forest is then partial and must be discarded.
  bool aborted = false;

  /// Depth of the forest (number of nodes on the longest root-leaf path).
  std::size_t Depth() const;
};

/// Builds the hierarchy for any clique space from precomputed kappa values
/// (from peeling or converged SND/AND). `live`, when non-empty, marks
/// which r-clique ids exist (patched indices keep tombstoned ids in the
/// id space); dead ids are excluded from every node and get
/// node_of_clique == -1. Empty means all ids are live.
/// Spaces that report each s-clique once with its full member list
/// (ForEachSCliqueMembers: the canonical core, truss and (3,4) spaces)
/// are swept in one global pass over their s-cliques; any other space
/// enumerates per member. Both give the same forest (hierarchy_impl.h).
/// A stoppable `ctl` (on any overload, and on RepairHierarchy) abandons
/// the construction mid-stream; the returned forest then has
/// `aborted == true` and must be discarded.
template <typename Space>
NucleusHierarchy BuildHierarchy(const Space& space,
                                const std::vector<Degree>& kappa,
                                std::span<const std::uint8_t> live = {},
                                RunControl ctl = {});

/// Builds the hierarchy straight from a peel run's level partition
/// (PeelResult::levels / order), skipping the kappa re-bucketing pass.
/// The engine already excluded tombstoned ids from the partition, so no
/// separate liveness span is needed. Level segments are canonicalized to
/// ascending id order first, so the result is bitwise-identical to the
/// kappa overload whatever peel strategy produced the partition.
template <typename Space>
NucleusHierarchy BuildHierarchy(const Space& space, const PeelResult& peel,
                                RunControl ctl = {});

/// Localized hierarchy repair after a graph delta: splices the nodes of
/// `old_hierarchy` whose k exceeds `max_touched_level` (their levels are
/// untouched by the delta) onto a union-find sweep resumed over the
/// repaired levels only, producing a forest bitwise-identical to
/// BuildHierarchy(space, kappa, live) at a cost proportional to the
/// touched levels. Preconditions: `old_hierarchy` was built by any
/// BuildHierarchy path (they are all canonical) against the pre-delta
/// space; `kappa`/`live` describe the post-delta space; and
/// `max_touched_level` is >= every level the delta touched — for every id
/// whose kappa changed max(old, new), for every born id its new kappa,
/// for every dead id its old kappa, and (for spaces whose r-cliques never
/// die, i.e. the core space) the min-member level of every dead/born
/// s-clique. Ids above that level keep their kappa, liveness, and alive
/// s-cliques, which is what makes the kept prefix exact.
template <typename Space>
NucleusHierarchy RepairHierarchy(const Space& space,
                                 const NucleusHierarchy& old_hierarchy,
                                 const std::vector<Degree>& kappa,
                                 std::span<const std::uint8_t> live,
                                 Degree max_touched_level,
                                 RunControl ctl = {});

// Explicitly instantiated wrappers.
NucleusHierarchy BuildCoreHierarchy(const Graph& g,
                                    const std::vector<Degree>& kappa);
NucleusHierarchy BuildTrussHierarchy(const Graph& g, const EdgeIndex& edges,
                                     const std::vector<Degree>& kappa);
NucleusHierarchy BuildNucleus34Hierarchy(const Graph& g,
                                         const TriangleIndex& tris,
                                         const std::vector<Degree>& kappa);

}  // namespace nucleus

#endif  // NUCLEUS_PEEL_HIERARCHY_H_
