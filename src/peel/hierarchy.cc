#include "src/peel/hierarchy.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/clique/csr_space.h"
#include "src/peel/hierarchy_impl.h"

namespace nucleus {

std::size_t NucleusHierarchy::Depth() const {
  if (nodes.empty()) return 0;
  std::size_t best = 0;
  // Iterative DFS with explicit depth stack.
  std::vector<std::pair<int, std::size_t>> stack;
  for (int r : roots) stack.emplace_back(r, 1);
  while (!stack.empty()) {
    auto [id, d] = stack.back();
    stack.pop_back();
    best = std::max(best, d);
    for (int c : nodes[id].children) stack.emplace_back(c, d + 1);
  }
  return best;
}

template NucleusHierarchy BuildHierarchy<CoreSpace>(
    const CoreSpace&, const std::vector<Degree>&,
    std::span<const std::uint8_t>, RunControl);
template NucleusHierarchy BuildHierarchy<TrussSpace>(
    const TrussSpace&, const std::vector<Degree>&,
    std::span<const std::uint8_t>, RunControl);
template NucleusHierarchy BuildHierarchy<Nucleus34Space>(
    const Nucleus34Space&, const std::vector<Degree>&,
    std::span<const std::uint8_t>, RunControl);
template NucleusHierarchy BuildHierarchy<CoreSpace>(const CoreSpace&,
                                                    const PeelResult&,
                                                    RunControl);
template NucleusHierarchy BuildHierarchy<TrussSpace>(const TrussSpace&,
                                                     const PeelResult&,
                                                     RunControl);
template NucleusHierarchy BuildHierarchy<Nucleus34Space>(
    const Nucleus34Space&, const PeelResult&, RunControl);
template NucleusHierarchy RepairHierarchy<CoreSpace>(
    const CoreSpace&, const NucleusHierarchy&, const std::vector<Degree>&,
    std::span<const std::uint8_t>, Degree, RunControl);
template NucleusHierarchy RepairHierarchy<TrussSpace>(
    const TrussSpace&, const NucleusHierarchy&, const std::vector<Degree>&,
    std::span<const std::uint8_t>, Degree, RunControl);
template NucleusHierarchy RepairHierarchy<Nucleus34Space>(
    const Nucleus34Space&, const NucleusHierarchy&,
    const std::vector<Degree>&, std::span<const std::uint8_t>, Degree,
    RunControl);
// Arena-backed repairs: the session re-sweeps over its patched arenas.
template NucleusHierarchy RepairHierarchy<CsrSpace<CoreSpace>>(
    const CsrSpace<CoreSpace>&, const NucleusHierarchy&,
    const std::vector<Degree>&, std::span<const std::uint8_t>, Degree,
    RunControl);
template NucleusHierarchy RepairHierarchy<CsrSpace<TrussSpace>>(
    const CsrSpace<TrussSpace>&, const NucleusHierarchy&,
    const std::vector<Degree>&, std::span<const std::uint8_t>, Degree,
    RunControl);
template NucleusHierarchy RepairHierarchy<CsrSpace<Nucleus34Space>>(
    const CsrSpace<Nucleus34Space>&, const NucleusHierarchy&,
    const std::vector<Degree>&, std::span<const std::uint8_t>, Degree,
    RunControl);

NucleusHierarchy BuildCoreHierarchy(const Graph& g,
                                    const std::vector<Degree>& kappa) {
  return BuildHierarchy(CoreSpace(g), kappa);
}

NucleusHierarchy BuildTrussHierarchy(const Graph& g, const EdgeIndex& edges,
                                     const std::vector<Degree>& kappa) {
  // A patched index keeps tombstoned ids in the id space; exclude them so
  // removed edges do not surface as phantom singleton nuclei.
  const TrussSpace space(g, edges);
  return BuildHierarchy(space, kappa, space.LiveRFlags());
}

NucleusHierarchy BuildNucleus34Hierarchy(const Graph& g,
                                         const TriangleIndex& tris,
                                         const std::vector<Degree>& kappa) {
  const Nucleus34Space space(g, tris);
  return BuildHierarchy(space, kappa, space.LiveRFlags());
}

}  // namespace nucleus
