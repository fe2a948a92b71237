// Kappa-vs-peeling reference checker: every suite that validates a local
// (SND/AND) result does it through these helpers so "correct" always means
// "elementwise equal to the exact peeling kappa for the same space".
#ifndef NUCLEUS_TESTS_TESTLIB_REFERENCE_CHECKER_H_
#define NUCLEUS_TESTS_TESTLIB_REFERENCE_CHECKER_H_

#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/core/session.h"
#include "src/graph/graph.h"

namespace nucleus {
namespace testlib {

/// Exact kappa via the peel engine, computed with BOTH strategies
/// (sequential bucket queue and level-synchronous parallel) and
/// EXPECT-asserted equal before being returned, so every reference
/// comparison doubles as an engine-equivalence check. Index order matches
/// NucleusSession: vertex id for kCore, EdgeIndex id for kTruss,
/// TriangleIndex id for kNucleus34.
std::vector<Degree> PeelingKappa(const Graph& g, DecompositionKind kind);

/// EXPECT-asserts tau == PeelingKappa(g, kind) elementwise, reporting the
/// first few mismatching ids. `context` names the configuration under test
/// (e.g. "AND/truss/threads=4/notify=off") in failure messages.
void ExpectMatchesPeeling(const Graph& g, DecompositionKind kind,
                          const std::vector<Degree>& tau,
                          const std::string& context);

/// EXPECT-asserts tau >= kappa elementwise — the Theorem 1 invariant every
/// (possibly truncated) SND/AND run must satisfy.
void ExpectUpperBoundsPeeling(const Graph& g, DecompositionKind kind,
                              const std::vector<Degree>& tau,
                              const std::string& context);

/// EXPECT-asserts after <= before elementwise: the update operator is
/// monotone non-increasing, so each sweep can only lower tau.
void ExpectMonotoneNonIncreasing(const std::vector<Degree>& before,
                                 const std::vector<Degree>& after,
                                 const std::string& context);

}  // namespace testlib
}  // namespace nucleus

#endif  // NUCLEUS_TESTS_TESTLIB_REFERENCE_CHECKER_H_
