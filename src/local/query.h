// Query-driven estimation (Section 1.2 / experiments): the local algorithms
// can estimate the core/truss numbers of a handful of query vertices/edges
// without touching the whole graph. The region around the queries (the
// r-cliques whose vertices all lie in a bounded-radius BFS ball) is
// remapped to dense local ids and iterated by the shared AND engine
// (and_impl.h): in-place sweeps in region order with notification, so an
// r-clique is recomputed only after a neighbour changed. Co-members outside
// the region are frozen at their S-degree, a valid upper bound of kappa.
//
// Converged estimates are the region's greatest fixed point, the same one
// the synchronous (Jacobi) iteration reaches. Every estimate is >= kappa
// and tightens monotonically with the radius. A run capped at k sweeps is
// still >= kappa, and <= what k Jacobi sweeps would give: an in-place
// sweep of a monotone update reads values no higher than the previous
// sweep's, so it never lags.
#ifndef NUCLEUS_LOCAL_QUERY_H_
#define NUCLEUS_LOCAL_QUERY_H_

#include <span>
#include <vector>

#include "src/clique/edge_index.h"
#include "src/clique/triangles.h"
#include "src/common/cancel.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/graph/graph.h"

namespace nucleus {

/// Options for query-driven estimation.
struct QueryOptions {
  /// BFS radius (in hops) of the region around the queries that is allowed
  /// to iterate. Radius 0 = only the queried items themselves.
  int radius = 2;
  /// Cap on the number of in-place h-index sweeps inside the region; 0 =
  /// until the region converges.
  int max_iterations = 0;
  /// Worker threads for first-touch index construction when the query runs
  /// through a NucleusSession (the TriangleIndex build dominates a cold
  /// (3,4) query). The estimation sweep itself is sequential — its whole
  /// point is touching a region too small to be worth parallelizing.
  int threads = 1;
};

/// Result of a query estimation.
struct QueryEstimate {
  /// estimates[i] corresponds to queries[i]; always >= the true kappa.
  std::vector<Degree> estimates;
  /// r-cliques inside the iterated region (work measure).
  std::size_t region_size = 0;
  /// Sweeps executed, including the one that confirmed the fixed point.
  int iterations = 0;
  /// Whether the region reached its fixed point.
  bool converged = false;
  /// Ok unless `ctl` stopped the sweeps (kCancelled / kDeadlineExceeded);
  /// the estimates are then empty.
  Status status = Status::Ok();
};

// Query ids must name live r-cliques of the index (NucleusSession::
// EstimateQueries checks them). Each estimator polls `ctl` during the
// sweeps; a stopped run reports the stop in QueryEstimate::status.

/// Estimates core numbers kappa_2 of the query vertices.
QueryEstimate EstimateCoreNumbers(const Graph& g,
                                  std::span<const VertexId> queries,
                                  const QueryOptions& options = {},
                                  RunControl ctl = {});

/// Estimates truss numbers kappa_3 of the query edges (EdgeIndex ids). The
/// iterated region is every edge with both endpoints inside the BFS ball
/// around the query edges' endpoints; boundary edges keep their triangle
/// count d_3.
QueryEstimate EstimateTrussNumbers(const Graph& g, const EdgeIndex& edges,
                                   std::span<const EdgeId> queries,
                                   const QueryOptions& options = {},
                                   RunControl ctl = {});

/// Estimates (3,4)-nucleus numbers kappa_4 of the query triangles
/// (TriangleIndex ids). The iterated region is every triangle whose three
/// vertices lie inside the BFS ball around the query triangles' vertices;
/// boundary triangles keep their 4-clique degree d_4.
QueryEstimate EstimateNucleus34Numbers(const Graph& g,
                                       const TriangleIndex& tris,
                                       std::span<const TriangleId> queries,
                                       const QueryOptions& options = {},
                                       RunControl ctl = {});

}  // namespace nucleus

#endif  // NUCLEUS_LOCAL_QUERY_H_
