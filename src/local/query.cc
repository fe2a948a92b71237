#include "src/local/query.h"

#include <queue>
#include <unordered_map>

#include "src/clique/intersect.h"
#include "src/clique/spaces.h"
#include "src/local/and_impl.h"

namespace nucleus {

namespace {

constexpr std::uint32_t kInf = 0xffffffffu;

// BFS ball of the given radius around the seed vertices. Returns the list
// of vertices in the ball; *dist is sized n with kInf outside the ball.
std::vector<VertexId> VertexBall(const Graph& g,
                                 std::span<const VertexId> seeds, int radius,
                                 std::vector<std::uint32_t>* dist) {
  dist->assign(g.NumVertices(), kInf);
  std::vector<VertexId> ball;
  std::queue<VertexId> frontier;
  for (VertexId s : seeds) {
    if ((*dist)[s] != kInf) continue;
    (*dist)[s] = 0;
    frontier.push(s);
    ball.push_back(s);
  }
  while (!frontier.empty()) {
    const VertexId v = frontier.front();
    frontier.pop();
    if ((*dist)[v] == static_cast<std::uint32_t>(radius)) continue;
    for (VertexId u : g.Neighbors(v)) {
      if ((*dist)[u] == kInf) {
        (*dist)[u] = (*dist)[v] + 1;
        frontier.push(u);
        ball.push_back(u);
      }
    }
  }
  return ball;
}

// The query region as a clique space over dense local ids: the region's
// r-cliques are [0, R) and its co-member lists are one CSR. Co-members
// outside the region carry frozen ids [R, R+B), whose tau the caller
// appends to tau_0 after the R region values.
struct RegionSpace {
  std::size_t arity = 1;
  std::vector<std::uint64_t> offsets{0};
  std::vector<CliqueId> co_members;

  std::size_t NumRCliques() const { return offsets.size() - 1; }

  template <typename Fn>
  void ForEachSClique(CliqueId r, Fn&& fn) const {
    for (std::uint64_t i = offsets[r]; i < offsets[r + 1]; i += arity) {
      fn(std::span<const CliqueId>(co_members.data() + i, arity));
    }
  }
};

// The generic estimator: remaps `region` (the space's ids of the iterated
// r-cliques, each once) to local ids, builds the region's co-member CSR
// with one ForEachSClique walk per r-clique, and runs AND over it from
// tau_0 = S-degrees. `s_degree` gives a boundary id's S-degree.
template <typename Space, typename SDegree>
QueryEstimate EstimateInRegion(const Space& space,
                               const std::vector<CliqueId>& region,
                               std::span<const CliqueId> queries,
                               const SDegree& s_degree,
                               const QueryOptions& options, RunControl ctl) {
  const std::size_t n = region.size();
  std::unordered_map<CliqueId, CliqueId> local;
  local.reserve(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    local.emplace(region[i], static_cast<CliqueId>(i));
  }
  RegionSpace arena;
  arena.arity = static_cast<std::size_t>(CoMemberArity(space));
  arena.offsets.reserve(n + 1);
  std::vector<Degree> tau0(n, 0);
  std::vector<CliqueId> boundary;
  for (std::size_t i = 0; i < n; ++i) {
    space.ForEachSClique(region[i], [&](std::span<const CliqueId> co) {
      for (CliqueId c : co) {
        const auto [it, fresh] = local.try_emplace(
            c, static_cast<CliqueId>(n + boundary.size()));
        if (fresh) boundary.push_back(c);
        arena.co_members.push_back(it->second);
      }
      ++tau0[i];
    });
    arena.offsets.push_back(arena.co_members.size());
  }
  for (CliqueId b : boundary) tau0.push_back(s_degree(b));

  AndOptions and_options;
  and_options.local.max_iterations = options.max_iterations;
  LocalResult run =
      internal::AndSweeps(arena, and_options, std::move(tau0), ctl);
  QueryEstimate result;
  result.region_size = n;
  if (!run.status.ok()) {
    result.status = run.status;
    return result;
  }
  result.iterations = run.iterations + (run.converged ? 1 : 0);
  result.converged = run.converged;
  result.estimates.reserve(queries.size());
  for (CliqueId q : queries) result.estimates.push_back(run.tau[local.at(q)]);
  return result;
}

}  // namespace

QueryEstimate EstimateCoreNumbers(const Graph& g,
                                  std::span<const VertexId> queries,
                                  const QueryOptions& options,
                                  RunControl ctl) {
  std::vector<std::uint32_t> dist;
  const std::vector<VertexId> region =
      VertexBall(g, queries, options.radius, &dist);
  return EstimateInRegion(
      CoreSpace(g), region, queries,
      [&](CliqueId v) { return static_cast<Degree>(g.GetDegree(v)); },
      options, ctl);
}

QueryEstimate EstimateTrussNumbers(const Graph& g, const EdgeIndex& edges,
                                   std::span<const EdgeId> queries,
                                   const QueryOptions& options,
                                   RunControl ctl) {
  std::vector<VertexId> seeds;
  seeds.reserve(queries.size() * 2);
  for (EdgeId e : queries) {
    const auto [u, v] = edges.Endpoints(e);
    seeds.push_back(u);
    seeds.push_back(v);
  }
  std::vector<std::uint32_t> dist;
  std::vector<CliqueId> region;
  for (VertexId u : VertexBall(g, seeds, options.radius, &dist)) {
    for (VertexId v : g.Neighbors(u)) {
      if (u < v && dist[v] != kInf) region.push_back(edges.EdgeIdOf(u, v));
    }
  }
  return EstimateInRegion(
      TrussSpace(g, edges), region, queries,
      [&](CliqueId e) {
        const auto [u, v] = edges.Endpoints(e);
        return static_cast<Degree>(CountCommon(g.Neighbors(u), g.Neighbors(v)));
      },
      options, ctl);
}

QueryEstimate EstimateNucleus34Numbers(const Graph& g,
                                       const TriangleIndex& tris,
                                       std::span<const TriangleId> queries,
                                       const QueryOptions& options,
                                       RunControl ctl) {
  std::vector<VertexId> seeds;
  seeds.reserve(queries.size() * 3);
  for (TriangleId t : queries) {
    const auto& tri = tris.Vertices(t);
    seeds.insert(seeds.end(), tri.begin(), tri.end());
  }
  std::vector<std::uint32_t> dist;
  auto in_ball = [&](VertexId v) { return dist[v] != kInf; };
  // Triangles u < v < w with all three vertices in the ball, enumerated
  // from the ball so the work stays proportional to it.
  std::vector<CliqueId> region;
  for (VertexId u : VertexBall(g, seeds, options.radius, &dist)) {
    for (VertexId v : g.Neighbors(u)) {
      if (v <= u || !in_ball(v)) continue;
      ForEachCommon(g.Neighbors(u), g.Neighbors(v), [&](VertexId w) {
        if (w > v && in_ball(w)) region.push_back(tris.TriangleIdOf(u, v, w));
      });
    }
  }
  return EstimateInRegion(
      Nucleus34Space(g, tris), region, queries,
      [&](CliqueId t) {
        const auto& tri = tris.Vertices(t);
        Degree c = 0;
        ForEachCommon3(g.Neighbors(tri[0]), g.Neighbors(tri[1]),
                       g.Neighbors(tri[2]), [&](VertexId) { ++c; });
        return c;
      },
      options, ctl);
}

}  // namespace nucleus
