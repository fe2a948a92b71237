#include "src/local/dynamic.h"

#include <algorithm>

#include "src/peel/kcore.h"

namespace nucleus {

DynamicCoreMaintainer::DynamicCoreMaintainer(const Graph& g)
    : kappa_(CoreNumbers(g)) {}

DynamicCoreMaintainer::DynamicCoreMaintainer(std::vector<Degree> kappa)
    : kappa_(std::move(kappa)) {}

void DynamicCoreMaintainer::EdgeInserted(const WorkingGraph& g, VertexId u,
                                         VertexId v) {
  // Only the k-subcore reachable from the endpoints through kappa == k
  // vertices (k = min endpoint kappa) can rise, and by at most one. Build
  // the new upper bound by bumping exactly that region.
  const Degree k = std::min(kappa_[u], kappa_[v]);
  std::vector<CliqueId> region;
  std::vector<bool> in_region(g.NumVertices(), false);
  for (VertexId s : {u, v}) {
    if (kappa_[s] == k && !in_region[s]) {
      in_region[s] = true;
      region.push_back(s);
    }
  }
  for (std::size_t head = 0; head < region.size(); ++head) {
    for (VertexId y : g.Neighbors(region[head])) {
      if (kappa_[y] == k && !in_region[y]) {
        in_region[y] = true;
        region.push_back(y);
      }
    }
  }
  for (CliqueId x : region) {
    kappa_.Set(x, std::min<Degree>(g.Neighbors(x).size(), kappa_[x] + 1));
  }
  Repair(g, std::move(region));
}

void DynamicCoreMaintainer::EdgeErased(const WorkingGraph& g, VertexId u,
                                       VertexId v) {
  // Deletion can only lower kappa; the old values clamped to the new
  // degrees are a valid upper bound to repair from.
  for (VertexId s : {u, v}) {
    kappa_.Set(s, std::min<Degree>(kappa_[s], g.Neighbors(s).size()));
  }
  Repair(g, {u, v});
}

void DynamicCoreMaintainer::Repair(const WorkingGraph& g,
                                   std::vector<CliqueId> seeds) {
  // The seeds' neighbors are seeds too: their h-index inputs changed.
  const std::size_t n = seeds.size();
  for (std::size_t i = 0; i < n; ++i) {
    for (VertexId y : g.Neighbors(seeds[i])) seeds.push_back(y);
  }
  // For the core instance rho(edge {x,y}) = tau(y).
  last_repair_work_ =
      kappa_.Repair(seeds, [&](CliqueId x, auto&& fn) {
        for (VertexId y : g.Neighbors(x)) {
          const CliqueId co[1] = {y};
          fn(std::span<const CliqueId>(co, 1));
        }
      });
}

}  // namespace nucleus
