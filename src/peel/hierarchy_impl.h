// BuildHierarchy / RepairHierarchy template definitions; include to
// instantiate for clique spaces beyond the canonical three (see
// core/generic_rs.cc).
//
// The construction consumes a LEVEL PARTITION — the r-cliques grouped by
// kappa, visited from the densest level down. The peel engine emits that
// structure directly (PeelResult::levels), so the PeelResult overload runs
// with zero re-bucketing; the kappa-vector overload (used when kappa comes
// from a cache or a converged local run) derives the partition in one
// counting pass first.
//
// TWO FEEDERS, ONE SWEEP. Each level's union step joins the r-cliques of
// every s-clique that becomes alive at that level (its minimum member
// level). Two feeders produce those s-cliques:
//   - one-pass (fresh builds over spaces with ForEachSCliqueMembers: the
//     canonical core, truss and (3,4) spaces): every s-clique is
//     enumerated exactly once globally, dropped if a member lies outside
//     the partition, and bucketed at its minimum member level; each
//     level then unions its bucket.
//   - per-member (RepairHierarchy, and spaces without that method such as
//     GenericRsSpace or a CsrSpace arena): each newly active r-clique
//     enumerates its own s-cliques and keeps those whose members are all
//     active — once per member, with the space's per-member intersections.
// Both hand the same s-cliques to the same level, and the node-creation
// step that follows is shared.
//
// CANONICAL FORM: every construction path feeds each level's members in
// ascending id order (the kappa overload buckets ids ascending; the
// PeelResult overload sorts each level segment first). The sweep's output
// depends only on that order and on the components after each level's
// union step — not on the order the unions ran in, and DSU representative
// choices never leak into the node array (children are sorted, nodes are
// numbered by their smallest new member's position) — so hierarchies of
// the same (space, kappa, liveness) are bitwise-identical however they
// were built and whichever feeder ran. That is what lets RepairHierarchy
// splice a kept node prefix onto a resumed per-member sweep and still
// match a one-pass rebuild exactly.
#ifndef NUCLEUS_PEEL_HIERARCHY_IMPL_H_
#define NUCLEUS_PEEL_HIERARCHY_IMPL_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/disjoint_set.h"
#include "src/peel/hierarchy.h"
#include "src/peel/peel_engine.h"

namespace nucleus {

namespace internal {

/// Mutable state of the union-find sweep between levels; RepairHierarchy
/// reconstructs this checkpoint from a kept node prefix instead of
/// replaying the levels above it.
struct HierarchySweepState {
  DisjointSet dsu;
  /// active[r]: r has been introduced (kappa >= the levels processed).
  std::vector<bool> active;
  /// node_of_root[x]: hierarchy node currently topping the component whose
  /// DSU representative is x; -1 if the component is new this level.
  std::vector<int> node_of_root;

  explicit HierarchySweepState(std::size_t n)
      : dsu(n), active(n, false), node_of_root(n, -1) {}
};

/// Spaces that can report every s-clique exactly once with its full
/// member list (the one-pass feeder; see the header comment).
template <typename Space>
concept EnumeratesSCliquesOnce = requires(const Space& space) {
  space.ForEachSCliqueMembers([](std::span<const CliqueId>) {},
                              RunControl());
};

/// Runs the union-find sweep over `levels_desc` — (k, members-with-that-k)
/// in strictly DESCENDING k, live ids only, each level's members in
/// ascending id order (see the canonical-form comment above) — appending
/// nodes to h->nodes and updating the sweep state in place. Levels already
/// reflected in `state` must not reappear here.
///
/// The union step of level i is the feeder's:
/// `union_level(i, newly, unite)` must call unite(a, b) for r-cliques a, b
/// of every s-clique that becomes alive at that level (all members at
/// kappa >= k, at least one at k), in any order, and return false when
/// stopped — the forest is then partial and h->aborted tells callers to
/// discard it.
template <typename UnionLevel>
void RunHierarchySweep(
    NucleusHierarchy* h, HierarchySweepState* state,
    std::span<const std::pair<Degree, std::span<const CliqueId>>>
        levels_desc,
    UnionLevel&& union_level) {
  for (std::size_t i = 0; i < levels_desc.size(); ++i) {
    const auto& [level, newly] = levels_desc[i];
    if (newly.empty()) continue;

    // Union step. Track the old top nodes that get merged so they become
    // children of the new node.
    std::unordered_map<CliqueId, std::vector<int>> pending_children;
    auto absorb = [&](CliqueId root, std::vector<int>* out) {
      if (state->node_of_root[root] != -1) {
        out->push_back(state->node_of_root[root]);
        state->node_of_root[root] = -1;
      }
      auto it = pending_children.find(root);
      if (it != pending_children.end()) {
        out->insert(out->end(), it->second.begin(), it->second.end());
        pending_children.erase(it);
      }
    };
    const auto unite = [&](CliqueId a, CliqueId b) {
      const CliqueId ra = state->dsu.Find(a);
      const CliqueId rb = state->dsu.Find(b);
      if (ra == rb) return;
      std::vector<int> children;
      absorb(ra, &children);
      absorb(rb, &children);
      const CliqueId merged = state->dsu.Union(ra, rb);
      if (!children.empty()) {
        auto& vec = pending_children[merged];
        vec.insert(vec.end(), children.begin(), children.end());
      }
    };
    if (!union_level(i, newly, unite)) {
      h->aborted = true;
      return;
    }

    // Node creation step: one node per distinct component that contains a
    // member of `newly`.
    std::unordered_map<CliqueId, int> node_for;
    for (CliqueId r : newly) {
      const CliqueId root = state->dsu.Find(r);
      auto [it, inserted] = node_for.try_emplace(root, -1);
      if (inserted) {
        const int id = static_cast<int>(h->nodes.size());
        h->nodes.emplace_back();
        NucleusHierarchy::Node& node = h->nodes.back();
        node.k = level;
        std::vector<int> children;
        absorb(root, &children);
        std::sort(children.begin(), children.end());
        children.erase(std::unique(children.begin(), children.end()),
                       children.end());
        node.children = std::move(children);
        for (int c : node.children) h->nodes[c].parent = id;
        state->node_of_root[root] = id;
        it->second = id;
      }
      h->nodes[it->second].new_members.push_back(r);
      h->node_of_clique[r] = it->second;
    }
  }
}

/// Per-member feeder: every newly active r-clique enumerates its own
/// s-cliques and unions those whose members are all active. An s-clique
/// first alive at level k has a member of that level, so enumerating from
/// `newly` finds all of them.
template <typename Space>
void SweepPerMember(
    const Space& space, NucleusHierarchy* h, HierarchySweepState* state,
    std::span<const std::pair<Degree, std::span<const CliqueId>>>
        levels_desc,
    RunControl ctl) {
  const bool can_stop = ctl.CanStop();
  CheckEvery<64> poll;
  RunHierarchySweep(
      h, state, levels_desc,
      [&](std::size_t, std::span<const CliqueId> newly, const auto& unite) {
        for (CliqueId r : newly) state->active[r] = true;
        for (CliqueId r : newly) {
          // The per-member s-clique enumeration dominates this feeder's
          // cost, so the stop poll sits here.
          if (can_stop && poll.Due() && ctl.ShouldStop()) return false;
          space.ForEachSClique(r, [&](std::span<const CliqueId> co) {
            for (CliqueId c : co) {
              if (!state->active[c]) return;  // s-clique not alive yet
            }
            for (CliqueId c : co) unite(r, c);
          });
        }
        return true;
      });
}

/// One-pass feeder: enumerates every s-clique once, buckets it at the
/// level where it becomes alive (its sparsest member's level; s-cliques
/// with a member outside the partition — a dead id, or one above the
/// partition's levels — never become alive and are dropped), then unions
/// each level's bucket. Costs one global s-clique enumeration instead of
/// one per member, with no per-member intersections.
template <typename Space>
void SweepOnePass(
    const Space& space, NucleusHierarchy* h, HierarchySweepState* state,
    std::span<const std::pair<Degree, std::span<const CliqueId>>>
        levels_desc,
    RunControl ctl) {
  const std::size_t n = space.NumRCliques();
  // level_of[r]: index into levels_desc of r's level (0 = densest), or
  // kOutside. An s-clique becomes alive at the largest index among its
  // members, so one max per s-clique both buckets and filters it.
  constexpr std::uint32_t kOutside = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> level_of(n, kOutside);
  for (std::size_t i = 0; i < levels_desc.size(); ++i) {
    for (CliqueId r : levels_desc[i].second) {
      level_of[r] = static_cast<std::uint32_t>(i);
    }
  }
  std::vector<std::vector<CliqueId>> buckets(levels_desc.size());
  std::size_t arity = 0;  // members per s-clique (C(s, r))
  space.ForEachSCliqueMembers(
      [&](std::span<const CliqueId> members) {
        std::uint32_t at = 0;
        for (CliqueId m : members) {
          const std::uint32_t l = m < n ? level_of[m] : kOutside;
          if (l == kOutside) return;
          at = std::max(at, l);
        }
        arity = members.size();
        buckets[at].insert(buckets[at].end(), members.begin(), members.end());
      },
      ctl);
  const bool can_stop = ctl.CanStop();
  if (can_stop && ctl.ShouldStop()) {
    h->aborted = true;
    return;
  }
  CheckEvery<64> poll;
  RunHierarchySweep(
      h, state, levels_desc,
      [&](std::size_t i, std::span<const CliqueId>, const auto& unite) {
        const std::vector<CliqueId>& bucket = buckets[i];
        for (std::size_t p = 0; p < bucket.size(); p += arity) {
          if (can_stop && poll.Due() && ctl.ShouldStop()) return false;
          for (std::size_t j = 1; j < arity; ++j) {
            unite(bucket[p], bucket[p + j]);
          }
        }
        std::vector<CliqueId>().swap(buckets[i]);  // consumed
        return true;
      });
}

/// Sizes and roots, recomputed from scratch (safe on a repaired forest
/// whose kept prefix carries stale sizes). Children are created at a
/// higher level, hence earlier, so every child id < its parent id and one
/// forward pass accumulates bottom-up.
inline void FinalizeHierarchy(NucleusHierarchy* h) {
  h->roots.clear();
  for (auto& node : h->nodes) node.size = node.new_members.size();
  for (std::size_t id = 0; id < h->nodes.size(); ++id) {
    const int p = h->nodes[id].parent;
    if (p >= 0) h->nodes[p].size += h->nodes[id].size;
  }
  for (std::size_t id = 0; id < h->nodes.size(); ++id) {
    if (h->nodes[id].parent == -1) h->roots.push_back(static_cast<int>(id));
  }
}

/// Union-find sweep over a full level partition (fresh build), fed in one
/// pass when the space supports it.
template <typename Space>
NucleusHierarchy BuildHierarchyFromLevels(
    const Space& space, std::size_t n,
    std::span<const std::pair<Degree, std::span<const CliqueId>>>
        levels_desc,
    RunControl ctl = {}) {
  NucleusHierarchy h;
  h.node_of_clique.assign(n, -1);
  if (n == 0) return h;
  HierarchySweepState state(n);
  if constexpr (EnumeratesSCliquesOnce<Space>) {
    SweepOnePass(space, &h, &state, levels_desc, ctl);
  } else {
    SweepPerMember(space, &h, &state, levels_desc, ctl);
  }
  if (h.aborted) return h;  // partial; caller discards
  FinalizeHierarchy(&h);
  return h;
}

/// Bucket live ids (ascending) by kappa and list the non-empty levels
/// densest-first. `max_level` bounds which ids participate (only kappa <=
/// max_level; pass the max Degree for all). Storage for the buckets lives
/// in *by_level (kept alive by the caller while the spans are used).
inline std::vector<std::pair<Degree, std::span<const CliqueId>>>
LevelsDescFromKappa(const std::vector<Degree>& kappa,
                    std::span<const std::uint8_t> live, Degree max_level,
                    std::vector<std::vector<CliqueId>>* by_level) {
  const std::size_t n = kappa.size();
  const auto is_live = [&](CliqueId r) { return live.empty() || live[r]; };
  Degree kmax = 0;
  for (CliqueId r = 0; r < n; ++r) {
    if (is_live(r) && kappa[r] <= max_level) kmax = std::max(kmax, kappa[r]);
  }
  by_level->assign(static_cast<std::size_t>(kmax) + 1, {});
  for (CliqueId r = 0; r < n; ++r) {
    if (is_live(r) && kappa[r] <= max_level) (*by_level)[kappa[r]].push_back(r);
  }
  std::vector<std::pair<Degree, std::span<const CliqueId>>> levels_desc;
  levels_desc.reserve(by_level->size());
  for (Degree level = kmax + 1; level-- > 0;) {
    if (!(*by_level)[level].empty()) {
      levels_desc.emplace_back(
          level, std::span<const CliqueId>((*by_level)[level]));
    }
  }
  return levels_desc;
}

}  // namespace internal

template <typename Space>
NucleusHierarchy BuildHierarchy(const Space& space,
                                const std::vector<Degree>& kappa,
                                std::span<const std::uint8_t> live,
                                RunControl ctl) {
  const std::size_t n = space.NumRCliques();
  if (n == 0) return internal::BuildHierarchyFromLevels(space, n, {});

  // Derive the level partition from kappa (live ids only, largest level
  // first), then run the shared sweep.
  std::vector<std::vector<CliqueId>> by_level;
  const auto levels_desc = internal::LevelsDescFromKappa(
      kappa, live, std::numeric_limits<Degree>::max(), &by_level);
  return internal::BuildHierarchyFromLevels(space, n, levels_desc, ctl);
}

template <typename Space>
NucleusHierarchy BuildHierarchy(const Space& space, const PeelResult& peel,
                                RunControl ctl) {
  // The peel engine already partitioned the live ids into equal-kappa
  // segments of `order` (ascending kappa); sort each segment so the sweep
  // sees the canonical ascending-id member order whatever strategy peeled
  // (the sequential bucket queue emits extraction order within levels).
  std::vector<CliqueId> order = peel.order;
  for (const PeelLevel& level : peel.levels) {
    std::sort(order.begin() + static_cast<std::ptrdiff_t>(level.begin),
              order.begin() + static_cast<std::ptrdiff_t>(level.end));
  }
  std::vector<std::pair<Degree, std::span<const CliqueId>>> levels_desc;
  levels_desc.reserve(peel.levels.size());
  for (std::size_t i = peel.levels.size(); i-- > 0;) {
    const PeelLevel& level = peel.levels[i];
    levels_desc.emplace_back(
        level.k, std::span<const CliqueId>(order.data() + level.begin,
                                           level.end - level.begin));
  }
  return internal::BuildHierarchyFromLevels(space, space.NumRCliques(),
                                            levels_desc, ctl);
}

template <typename Space>
NucleusHierarchy RepairHierarchy(const Space& space,
                                 const NucleusHierarchy& old_hierarchy,
                                 const std::vector<Degree>& kappa,
                                 std::span<const std::uint8_t> live,
                                 Degree max_touched_level, RunControl ctl) {
  const std::size_t n = space.NumRCliques();
  NucleusHierarchy h;
  h.node_of_clique.assign(n, -1);
  if (n == 0) return h;

  // Keep the untouched top of the forest: nodes are created densest level
  // first, so node.k is non-increasing in node id and the nodes with
  // k > max_touched_level are exactly a prefix. Their levels' member sets,
  // kappa values, and alive s-cliques are unchanged by the delta (that is
  // what max_touched_level certifies), so a full rebuild would recreate
  // this prefix bit for bit.
  std::size_t prefix = 0;
  while (prefix < old_hierarchy.nodes.size() &&
         old_hierarchy.nodes[prefix].k > max_touched_level) {
    ++prefix;
  }
  h.nodes.assign(old_hierarchy.nodes.begin(),
                 old_hierarchy.nodes.begin() + prefix);

  // Reconstruct the sweep checkpoint the full build would reach after the
  // kept levels: per-node subtree tops (parents outside the prefix were
  // created at repaired levels and are re-linked by the resumed sweep),
  // then actives, the DSU components, and the component -> top-node map.
  internal::HierarchySweepState state(n);
  std::vector<int> top(prefix);
  for (std::size_t i = prefix; i-- > 0;) {
    const int p = h.nodes[i].parent;  // parent id > child id: already set
    if (p < 0 || static_cast<std::size_t>(p) >= prefix) {
      h.nodes[i].parent = -1;
      top[i] = static_cast<int>(i);
    } else {
      top[i] = top[p];
    }
  }
  std::vector<CliqueId> anchor(prefix, kInvalidClique);
  for (std::size_t i = 0; i < prefix; ++i) {
    const std::size_t t = static_cast<std::size_t>(top[i]);
    for (CliqueId r : h.nodes[i].new_members) {
      state.active[r] = true;
      h.node_of_clique[r] = static_cast<int>(i);
      if (anchor[t] == kInvalidClique) {
        anchor[t] = r;
      } else {
        state.dsu.Union(anchor[t], r);
      }
    }
  }
  for (std::size_t i = 0; i < prefix; ++i) {
    // Every node has >= 1 new member, so every top has an anchor.
    if (top[i] == static_cast<int>(i)) {
      state.node_of_root[state.dsu.Find(anchor[i])] = static_cast<int>(i);
    }
  }

  // Resume the sweep over the repaired levels from the new kappa.
  std::vector<std::vector<CliqueId>> by_level;
  const auto levels_desc = internal::LevelsDescFromKappa(
      kappa, live, max_touched_level, &by_level);
  internal::SweepPerMember(space, &h, &state, levels_desc, ctl);
  if (h.aborted) return h;  // partial; caller discards
  internal::FinalizeHierarchy(&h);
  return h;
}

}  // namespace nucleus

#endif  // NUCLEUS_PEEL_HIERARCHY_IMPL_H_
