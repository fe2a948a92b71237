// Benchmark-owned inputs. Everything a workload replays is drawn here from
// the workload seed by the benchmark's own generator, written to disk once
// per seed, and read back by every run: the SNAP edge list the program
// loads, the edges the churn workload toggles, the ids the query workload
// asks about, and one exact reference kappa per kind computed by the peel
// engine.
#ifndef PERFBENCH_HARNESS_INPUTS_H_
#define PERFBENCH_HARNESS_INPUTS_H_

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Planted-partition shape: `blocks` blocks of `block_size` vertices, edge
/// probability p_in inside a block and p_out across blocks.
struct GraphParams {
  int blocks = 40;
  int block_size = 100;
  double p_in = 0.5;
  double p_out = 0.002;
};

/// The full-size graph every workload uses, and a tiny one for self-tests.
GraphParams FullGraph();
GraphParams TinyGraph();

/// Key of an edge {u, v} / triangle {u, v, w} from its vertices in any
/// order; ids change under commits, keys do not.
std::uint64_t EdgeKey(std::uint32_t u, std::uint32_t v);
std::uint64_t TriangleKey(std::uint32_t u, std::uint32_t v, std::uint32_t w);

/// Reference values sorted by key.
struct KeyedRef {
  std::vector<std::uint64_t> keys;
  std::vector<std::uint32_t> kappa;
  /// The reference value of `key`, or -1 when the key is unknown.
  std::int64_t Find(std::uint64_t key) const;
};

struct Inputs {
  std::string graph_path;
  std::uint64_t num_vertices = 0;
  std::uint64_t num_edges = 0;
  /// Existing edges removed and re-inserted by churn_commits, in order.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> toggles;
  /// Existing edges and triangles asked about by local_queries.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> truss_queries;
  std::vector<std::array<std::uint32_t, 3>> n34_queries;
  /// Exact kappa per kind: core by vertex id, truss and (3,4) keyed.
  std::vector<std::uint32_t> ref_core;
  KeyedRef ref_truss;
  KeyedRef ref_n34;
  /// Node count of the exact hierarchy, per kind (core, truss, (3,4)).
  std::uint64_t ref_nodes[3] = {0, 0, 0};
};

/// Generates the inputs of `seed` into `dir` (created; written through a
/// temporary directory and renamed, so a half-written set never exists).
/// Returns false with *error set on failure.
bool PrepareInputs(std::uint64_t seed, const GraphParams& params,
                   const std::string& dir, std::string* error);

/// Reads a prepared input set.
bool LoadInputs(const std::string& dir, Inputs* inputs, std::string* error);

/// Compares kappa indexed by the program's ids against `ref`. `key_of`
/// maps an id to its key, or UINT64_MAX for a tombstoned id (whose value
/// must be 0). Every live reference key must be covered exactly once.
template <typename KeyOf>
bool MatchesKeyed(const KeyedRef& ref, std::span<const std::uint32_t> got,
                  KeyOf&& key_of, std::string* why) {
  std::size_t live = 0;
  for (std::size_t id = 0; id < got.size(); ++id) {
    const std::uint64_t key = key_of(id);
    if (key == UINT64_MAX) {
      if (got[id] != 0) {
        *why = "dead id " + std::to_string(id) + " has nonzero kappa";
        return false;
      }
      continue;
    }
    ++live;
    const std::int64_t want = ref.Find(key);
    if (want < 0 || static_cast<std::uint32_t>(want) != got[id]) {
      *why = "id " + std::to_string(id) + " kappa " + std::to_string(got[id]) +
             " != reference " + std::to_string(want);
      return false;
    }
  }
  if (live != ref.keys.size()) {
    *why = std::to_string(live) + " live ids, reference has " +
           std::to_string(ref.keys.size());
    return false;
  }
  return true;
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_INPUTS_H_
