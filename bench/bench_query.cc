// Experiment E9 — the paper's query-driven scenario: estimate the core,
// truss and (3,4) numbers of a sample of query vertices/edges/triangles
// from a bounded-radius neighborhood only, without running the global
// decomposition. Reported per radius: estimation quality, region size
// (work), and runtime vs global.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/clique/edge_index.h"
#include "src/clique/triangles.h"
#include "src/common/rng.h"
#include "src/common/timer.h"
#include "src/local/query.h"
#include "src/metrics/accuracy.h"
#include "src/peel/generic_peel.h"

namespace nucleus::bench {
namespace {

// One series: 50 seeded queries out of the kind's n ids, estimated at
// radius 0..max_radius by `estimate(queries, options)`, scored against
// the globally peeled kappa (peel time `global_s`).
template <typename Estimate>
void Series(const Dataset& d, const char* kind, std::uint64_t seed,
            const std::vector<Degree>& kappa, double global_s,
            int max_radius, Estimate&& estimate) {
  Rng rng(seed);
  std::vector<CliqueId> queries;
  for (auto i : rng.SampleWithoutReplacement(kappa.size(), 50)) {
    queries.push_back(static_cast<CliqueId>(i));
  }
  std::vector<Degree> exact;
  for (CliqueId q : queries) exact.push_back(kappa[q]);
  std::printf("%-18s %-6s global peel: %ss, queries=50\n", d.name.c_str(),
              kind, Fmt(global_s).c_str());
  std::printf("  %7s %9s %9s %9s %12s\n", "radius", "sec", "exact%",
              "meanerr", "region");
  for (int radius = 0; radius <= max_radius; ++radius) {
    QueryOptions opt;
    opt.radius = radius;
    Timer t;
    const QueryEstimate est = estimate(queries, opt);
    const double secs = t.Seconds();
    const auto acc = ComputeAccuracy(est.estimates, exact);
    std::printf("  %7d %9s %9s %9s %12zu\n", radius, Fmt(secs).c_str(),
                Fmt(100 * acc.exact_fraction, 1).c_str(),
                Fmt(acc.mean_abs_error, 3).c_str(), est.region_size);
  }
}

void CoreSeries(const Dataset& d) {
  const Graph& g = d.graph;
  Timer t;
  const auto kappa = PeelCore(g).kappa;
  Series(d, "core", 5, kappa, t.Seconds(), 4,
         [&](std::span<const CliqueId> q, const QueryOptions& opt) {
           return EstimateCoreNumbers(g, q, opt);
         });
}

void TrussSeries(const Dataset& d) {
  const Graph& g = d.graph;
  const EdgeIndex edges(g);
  Timer t;
  const auto kappa = PeelTruss(g, edges).kappa;
  Series(d, "truss", 9, kappa, t.Seconds(), 3,
         [&](std::span<const CliqueId> q, const QueryOptions& opt) {
           return EstimateTrussNumbers(g, edges, q, opt);
         });
}

void Nucleus34Series(const Dataset& d) {
  const Graph& g = d.graph;
  const TriangleIndex tris(g);
  Timer t;
  const auto kappa = PeelNucleus34(g, tris).kappa;
  Series(d, "(3,4)", 13, kappa, t.Seconds(), 2,
         [&](std::span<const CliqueId> q, const QueryOptions& opt) {
           return EstimateNucleus34Numbers(g, tris, q, opt);
         });
}

void Run() {
  Header("E9 — query-driven core/truss/(3,4) estimation",
         "estimate kappa for 50 random queries from an h-hop region only; "
         "exact% vs region size is the trade-off");
  for (const auto& d : MediumSuite()) {
    if (d.name == "rmat-web" || d.name == "planted-comm" ||
        d.name == "ws-local") {
      CoreSeries(d);
    }
  }
  for (const auto& d : SmallSuite()) {
    if (d.name == "rmat-web-s" || d.name == "planted-comm-s") {
      TrussSeries(d);
      Nucleus34Series(d);
    }
  }
  std::printf("\npaper shape check: accuracy rises quickly with radius "
              "while the region stays far below the full graph, so "
              "query-driven estimation beats global decomposition for "
              "small query sets.\n");
}

}  // namespace
}  // namespace nucleus::bench

int main() {
  nucleus::bench::Run();
  return 0;
}
