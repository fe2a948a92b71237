// A dynamic maintainer (src/local/dynamic*.h) together with the working
// graph it repairs over, mutated the way NucleusSession::UpdateBatch
// mutates a batch: the edge changes in the graph first, then the
// maintainer is told. The maintainer suites drive one maintainer through
// this; a batch drives up to three over the same graph.
#ifndef NUCLEUS_TESTS_TESTLIB_MAINTAINED_GRAPH_H_
#define NUCLEUS_TESTS_TESTLIB_MAINTAINED_GRAPH_H_

#include <cstddef>
#include <utility>

#include "src/common/types.h"
#include "src/graph/graph.h"
#include "src/local/dynamic_state.h"

namespace nucleus {
namespace testlib {

template <typename Maintainer>
class MaintainedGraph {
 public:
  /// Starts from g; the maintainer decomposes g itself.
  explicit MaintainedGraph(const Graph& g) : graph_(g), m_(g) {}
  /// Starts from g with a maintainer built for g elsewhere (e.g. seeded
  /// with known kappa).
  MaintainedGraph(const Graph& g, Maintainer seeded)
      : graph_(g), m_(std::move(seeded)) {}

  /// Inserts {u, v}; false (no-op) if invalid or present.
  bool InsertEdge(VertexId u, VertexId v) {
    if (!graph_.Insert(u, v)) return false;
    m_.EdgeInserted(graph_, u, v);
    return true;
  }
  /// Removes {u, v}; false (no-op) if invalid or absent.
  bool RemoveEdge(VertexId u, VertexId v) {
    if (!graph_.Erase(u, v)) return false;
    m_.EdgeErased(graph_, u, v);
    return true;
  }

  const WorkingGraph& graph() const { return graph_; }
  const Maintainer& maintainer() const { return m_; }
  Maintainer& maintainer() { return m_; }
  Graph ToGraph() const { return graph_.ToGraph(); }
  std::size_t NumEdges() const { return graph_.NumEdges(); }
  std::size_t LastRepairWork() const { return m_.LastRepairWork(); }

 private:
  WorkingGraph graph_;
  Maintainer m_;
};

}  // namespace testlib
}  // namespace nucleus

#endif  // NUCLEUS_TESTS_TESTLIB_MAINTAINED_GRAPH_H_
