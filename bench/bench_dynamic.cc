// Experiment E15 (extension) — incremental maintenance throughput: exact
// core/truss numbers maintained under random edge churn, versus the
// recompute-from-scratch alternative.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/clique/edge_index.h"
#include "src/common/rng.h"
#include "src/common/timer.h"
#include "src/local/dynamic.h"
#include "src/local/dynamic_truss.h"
#include "src/peel/kcore.h"
#include "src/peel/ktruss.h"

namespace nucleus::bench {
namespace {

// Applies one random insert or remove to g and reports it to m; false when
// the pair was invalid, already present, or absent.
template <typename Maintainer>
bool Mutate(WorkingGraph& g, Maintainer& m, Rng& rng) {
  const std::size_t n = g.NumVertices();
  const VertexId u = static_cast<VertexId>(rng.UniformInt(0, n - 1));
  const VertexId v = static_cast<VertexId>(rng.UniformInt(0, n - 1));
  if (rng.Flip(0.5)) {
    if (!g.Insert(u, v)) return false;
    m.EdgeInserted(g, u, v);
  } else {
    if (!g.Erase(u, v)) return false;
    m.EdgeErased(g, u, v);
  }
  return true;
}

void CoreRow(const Dataset& d, int mutations) {
  WorkingGraph g(d.graph);
  DynamicCoreMaintainer m(d.graph);
  Rng rng(77);
  Timer t;
  std::size_t applied = 0, work = 0;
  for (int i = 0; i < mutations; ++i) {
    if (Mutate(g, m, rng)) {
      ++applied;
      work += m.LastRepairWork();
    }
  }
  const double incr_s = t.Seconds();
  t.Restart();
  const auto check = CoreNumbers(g.ToGraph());
  const double full_s = t.Seconds();
  const bool exact = check == m.CoreNumbersView();
  std::printf("%-18s core  %6zu muts %9s s  %8.1f work/mut  "
              "recompute-each would be ~%8s s  %s\n",
              d.name.c_str(), applied, Fmt(incr_s).c_str(),
              static_cast<double>(work) / std::max<std::size_t>(applied, 1),
              Fmt(full_s * applied, 1).c_str(), exact ? "ok" : "MISMATCH");
}

void TrussRow(const Dataset& d, int mutations) {
  WorkingGraph g(d.graph);
  DynamicTrussMaintainer m(d.graph);
  Rng rng(78);
  Timer t;
  std::size_t applied = 0, work = 0;
  for (int i = 0; i < mutations; ++i) {
    if (Mutate(g, m, rng)) {
      ++applied;
      work += m.LastRepairWork();
    }
  }
  const double incr_s = t.Seconds();
  t.Restart();
  const Graph now = g.ToGraph();
  const EdgeIndex edges(now);
  const auto check = TrussNumbers(now, edges);
  const double full_s = t.Seconds();
  const bool exact = check == m.TrussNumbersInIndexOrder(g);
  std::printf("%-18s truss %6zu muts %9s s  %8.1f work/mut  "
              "recompute-each would be ~%8s s  %s\n",
              d.name.c_str(), applied, Fmt(incr_s).c_str(),
              static_cast<double>(work) / std::max<std::size_t>(applied, 1),
              Fmt(full_s * applied, 1).c_str(), exact ? "ok" : "MISMATCH");
}

void Run() {
  Header("E15 (extension) — incremental maintenance under edge churn",
         "exact kappa maintained by local U-repair; final state "
         "cross-checked against a full decomposition");
  const int muts = FastMode() ? 200 : 1000;
  for (const auto& d : SmallSuite()) {
    CoreRow(d, muts);
  }
  for (const auto& d : SmallSuite()) {
    TrussRow(d, FastMode() ? 100 : 300);
  }
  std::printf("\nshape check: repair work per mutation is far below the "
              "graph size on kappa-diverse graphs, and the maintained "
              "values are exact (right column).\n");
}

}  // namespace
}  // namespace nucleus::bench

int main() {
  nucleus::bench::Run();
  return 0;
}
