#include "perfbench/harness/inputs.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "perfbench/harness/common.h"
#include "src/clique/edge_index.h"
#include "src/clique/triangles.h"
#include "src/graph/io.h"
#include "src/peel/hierarchy.h"
#include "src/peel/kcore.h"
#include "src/peel/ktruss.h"
#include "src/peel/nucleus34.h"

namespace perfbench {

namespace fs = std::filesystem;

namespace {

constexpr int kListLength = 128;
constexpr int kRefThreads = 2;

using Pair = std::pair<std::uint32_t, std::uint32_t>;

bool WriteU32(const std::string& path, const std::vector<std::uint32_t>& v) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(std::uint32_t)));
  return static_cast<bool>(out);
}

bool ReadU32(const std::string& path, std::vector<std::uint32_t>* v) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return false;
  const auto bytes = static_cast<std::size_t>(in.tellg());
  v->resize(bytes / sizeof(std::uint32_t));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(v->data()), static_cast<std::streamsize>(bytes));
  return static_cast<bool>(in);
}

bool WriteKeyed(const std::string& path, KeyedRef ref) {
  std::vector<std::uint32_t> flat;
  flat.reserve(ref.keys.size() * 3);
  for (std::size_t i = 0; i < ref.keys.size(); ++i) {
    flat.push_back(static_cast<std::uint32_t>(ref.keys[i] >> 32));
    flat.push_back(static_cast<std::uint32_t>(ref.keys[i]));
    flat.push_back(ref.kappa[i]);
  }
  return WriteU32(path, flat);
}

bool ReadKeyed(const std::string& path, KeyedRef* ref) {
  std::vector<std::uint32_t> flat;
  if (!ReadU32(path, &flat) || flat.size() % 3 != 0) return false;
  for (std::size_t i = 0; i < flat.size(); i += 3) {
    ref->keys.push_back((static_cast<std::uint64_t>(flat[i]) << 32) | flat[i + 1]);
    ref->kappa.push_back(flat[i + 2]);
  }
  return std::is_sorted(ref->keys.begin(), ref->keys.end());
}

KeyedRef SortedRef(std::vector<std::pair<std::uint64_t, std::uint32_t>> rows) {
  std::sort(rows.begin(), rows.end());
  KeyedRef ref;
  for (const auto& [k, v] : rows) {
    ref.keys.push_back(k);
    ref.kappa.push_back(v);
  }
  return ref;
}

// Edges of the planted partition in generation order, relabelled so that
// vertex ids follow first appearance in that order — the id assignment any
// SNAP loader that densifies ids by first appearance reproduces.
// `block` receives the block of each (relabelled) vertex.
std::vector<Pair> GenerateEdges(const GraphParams& p, Rng* rng, std::vector<int>* block) {
  const std::uint32_t n =
      static_cast<std::uint32_t>(p.blocks) * static_cast<std::uint32_t>(p.block_size);
  std::vector<Pair> edges;
  for (std::uint32_t u = 0; u < n; ++u) {
    for (std::uint32_t v = u + 1; v < n; ++v) {
      const bool same = u / p.block_size == v / p.block_size;
      if (rng->Uniform() < (same ? p.p_in : p.p_out)) edges.push_back({u, v});
    }
  }
  std::vector<std::uint32_t> label(n, UINT32_MAX);
  std::uint32_t next = 0;
  block->assign(n, -1);
  for (auto& [u, v] : edges) {
    for (std::uint32_t* x : {&u, &v}) {
      if (label[*x] == UINT32_MAX) {
        label[*x] = next++;
        (*block)[label[*x]] = static_cast<int>(*x) / p.block_size;
      }
      *x = label[*x];
    }
  }
  return edges;
}

}  // namespace

GraphParams FullGraph() { return GraphParams{}; }
GraphParams TinyGraph() { return GraphParams{4, 24, 0.5, 0.02}; }

std::uint64_t EdgeKey(std::uint32_t u, std::uint32_t v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

std::uint64_t TriangleKey(std::uint32_t u, std::uint32_t v, std::uint32_t w) {
  std::array<std::uint32_t, 3> t{u, v, w};
  std::sort(t.begin(), t.end());
  return (static_cast<std::uint64_t>(t[0]) << 42) |
         (static_cast<std::uint64_t>(t[1]) << 21) | t[2];
}

std::int64_t KeyedRef::Find(std::uint64_t key) const {
  const auto it = std::lower_bound(keys.begin(), keys.end(), key);
  if (it == keys.end() || *it != key) return -1;
  return kappa[static_cast<std::size_t>(it - keys.begin())];
}

bool PrepareInputs(std::uint64_t seed, const GraphParams& params,
                   const std::string& dir, std::string* error) {
  const std::string tmp = dir + ".tmp" + std::to_string(::getpid());
  fs::remove_all(tmp);
  fs::create_directories(tmp);

  Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x5EED);
  std::vector<int> block;
  const std::vector<Pair> edges = GenerateEdges(params, &rng, &block);
  {
    std::ofstream out(tmp + "/graph.txt");
    out << "# planted partition: " << params.blocks << " blocks x "
        << params.block_size << ", p_in " << params.p_in << ", p_out "
        << params.p_out << ", seed " << seed << "\n";
    for (const auto& [u, v] : edges) out << u << '\t' << v << '\n';
    if (!out) {
      *error = "cannot write " + tmp + "/graph.txt";
      return false;
    }
  }

  // The reference reads the file through the program's own loader and
  // must find exactly the generated edge set under the generated ids.
  auto loaded = nucleus::TryLoadGraphAuto(tmp + "/graph.txt");
  if (!loaded.ok()) {
    *error = "loader rejected the generated graph: " + loaded.status().ToString();
    return false;
  }
  const nucleus::Graph& g = *loaded;
  if (g.NumEdges() != edges.size()) {
    *error = "loaded edge count differs from the generated one";
    return false;
  }
  for (const auto& [u, v] : edges) {
    if (!g.HasEdge(u, v)) {
      *error = "loaded graph renumbered the generated vertex ids";
      return false;
    }
  }

  nucleus::PeelOptions peel;
  peel.strategy = nucleus::PeelStrategy::kParallel;
  peel.threads = kRefThreads;
  const std::vector<nucleus::Degree> core = nucleus::CoreNumbers(g, peel);
  const nucleus::EdgeIndex edge_index(g);
  const std::vector<nucleus::Degree> truss = nucleus::TrussNumbers(
      g, edge_index, kRefThreads, nucleus::PeelStrategy::kParallel);
  const nucleus::TriangleIndex tris(g, kRefThreads);
  const std::vector<nucleus::Degree> n34 = nucleus::Nucleus34Numbers(
      g, tris, kRefThreads, nucleus::PeelStrategy::kParallel);

  std::vector<std::pair<std::uint64_t, std::uint32_t>> rows;
  for (std::size_t e = 0; e < truss.size(); ++e) {
    const auto [u, v] = edge_index.Endpoints(static_cast<nucleus::EdgeId>(e));
    rows.push_back({EdgeKey(u, v), truss[e]});
  }
  const KeyedRef truss_ref = SortedRef(std::move(rows));
  rows.clear();
  for (std::size_t t = 0; t < n34.size(); ++t) {
    const auto& tri = tris.Vertices(static_cast<nucleus::TriangleId>(t));
    rows.push_back({TriangleKey(tri[0], tri[1], tri[2]), n34[t]});
  }
  const KeyedRef n34_ref = SortedRef(std::move(rows));
  const std::size_t nodes[3] = {
      nucleus::BuildCoreHierarchy(g, core).nodes.size(),
      nucleus::BuildTrussHierarchy(g, edge_index, truss).nodes.size(),
      nucleus::BuildNucleus34Hierarchy(g, tris, n34).nodes.size()};

  // Op lists. Toggled edges are uniform over the cross-block edges: a
  // toggle inside a block costs seconds per cycle with a twofold spread
  // between edges, too few and too uneven for a steady per-run median,
  // while a cross-block toggle runs the whole commit path at a steady cost.
  // Truss query edges are uniform over all edges; query triangles are a
  // uniform edge closed by a uniform common neighbour.
  std::ostringstream ops;
  std::vector<Pair> cross;
  for (const Pair& e : edges) {
    if (block[e.first] != block[e.second]) cross.push_back(e);
  }
  for (int i = 0; i < kListLength && !cross.empty(); ++i) {
    const Pair e = cross[rng.Below(cross.size())];
    ops << "toggle " << e.first << ' ' << e.second << '\n';
  }
  for (int i = 0; i < kListLength; ++i) {
    const Pair e = edges[rng.Below(edges.size())];
    ops << "qtruss " << e.first << ' ' << e.second << '\n';
  }
  for (int found = 0; found < kListLength;) {
    const Pair e = edges[rng.Below(edges.size())];
    std::vector<std::uint32_t> common;
    std::set_intersection(g.Neighbors(e.first).begin(), g.Neighbors(e.first).end(),
                          g.Neighbors(e.second).begin(), g.Neighbors(e.second).end(),
                          std::back_inserter(common));
    if (common.empty()) continue;
    ops << "qn34 " << e.first << ' ' << e.second << ' '
        << common[rng.Below(common.size())] << '\n';
    ++found;
  }
  {
    std::ofstream out(tmp + "/ops.txt");
    out << ops.str();
  }
  if (!WriteU32(tmp + "/ref_core.bin",
                std::vector<std::uint32_t>(core.begin(), core.end())) ||
      !WriteKeyed(tmp + "/ref_truss.bin", truss_ref) ||
      !WriteKeyed(tmp + "/ref_n34.bin", n34_ref)) {
    *error = "cannot write reference files under " + tmp;
    return false;
  }
  {
    // Written last: its presence marks a complete input set.
    std::ofstream out(tmp + "/meta.txt");
    out << "seed " << seed << "\nvertices " << g.NumVertices() << "\nedges "
        << g.NumEdges() << "\nnodes_core " << nodes[0] << "\nnodes_truss "
        << nodes[1] << "\nnodes_n34 " << nodes[2] << "\n";
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::rename(tmp, dir, ec);
  if (ec) {
    *error = "cannot move " + tmp + " to " + dir + ": " + ec.message();
    return false;
  }
  return true;
}

bool LoadInputs(const std::string& dir, Inputs* in, std::string* error) {
  std::ifstream meta(dir + "/meta.txt");
  if (!meta) {
    *error = "no prepared inputs in " + dir;
    return false;
  }
  std::string key;
  std::uint64_t value = 0;
  while (meta >> key >> value) {
    if (key == "vertices") in->num_vertices = value;
    if (key == "edges") in->num_edges = value;
    if (key == "nodes_core") in->ref_nodes[0] = value;
    if (key == "nodes_truss") in->ref_nodes[1] = value;
    if (key == "nodes_n34") in->ref_nodes[2] = value;
  }
  std::ifstream ops(dir + "/ops.txt");
  std::string kind;
  while (ops >> kind) {
    std::uint32_t u = 0, v = 0, w = 0;
    ops >> u >> v;
    if (kind == "toggle") in->toggles.push_back({u, v});
    if (kind == "qtruss") in->truss_queries.push_back({u, v});
    if (kind == "qn34") {
      ops >> w;
      in->n34_queries.push_back({u, v, w});
    }
  }
  in->graph_path = fs::absolute(dir + "/graph.txt").string();
  if (!ReadU32(dir + "/ref_core.bin", &in->ref_core) ||
      !ReadKeyed(dir + "/ref_truss.bin", &in->ref_truss) ||
      !ReadKeyed(dir + "/ref_n34.bin", &in->ref_n34) || in->toggles.empty() ||
      in->truss_queries.empty() || in->n34_queries.empty()) {
    *error = "incomplete inputs in " + dir;
    return false;
  }
  return true;
}

}  // namespace perfbench
