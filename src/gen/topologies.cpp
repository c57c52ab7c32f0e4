#include "gen/topologies.h"

#include <stdexcept>
#include <unordered_set>

#include "gen/clause_draw.h"

namespace discsp::gen {

namespace {
std::uint64_t edge_key(VarId u, VarId v) {
  return (static_cast<std::uint64_t>(u) << 32) | static_cast<std::uint32_t>(v);
}
}  // namespace

EdgeList ring_edges(int n) {
  if (n < 3) throw std::invalid_argument("a ring needs at least 3 nodes");
  EdgeList edges;
  edges.reserve(static_cast<std::size_t>(n));
  for (VarId u = 0; u < n; ++u) {
    const VarId v = static_cast<VarId>((u + 1) % n);
    edges.emplace_back(std::min(u, v), std::max(u, v));
  }
  return edges;
}

EdgeList grid_edges(int rows, int cols) {
  if (rows < 1 || cols < 1) throw std::invalid_argument("grid dimensions must be positive");
  EdgeList edges;
  auto node = [cols](int r, int c) { return static_cast<VarId>(r * cols + c); };
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (c + 1 < cols) edges.emplace_back(node(r, c), node(r, c + 1));
      if (r + 1 < rows) edges.emplace_back(node(r, c), node(r + 1, c));
    }
  }
  return edges;
}

EdgeList complete_edges(int n) {
  if (n < 2) throw std::invalid_argument("a complete graph needs at least 2 nodes");
  EdgeList edges;
  edges.reserve(static_cast<std::size_t>(n) * (n - 1) / 2);
  for (VarId u = 0; u < n; ++u) {
    for (VarId v = static_cast<VarId>(u + 1); v < n; ++v) {
      edges.emplace_back(u, v);
    }
  }
  return edges;
}

EdgeList random_edges(int n, std::size_t m, Rng& rng) {
  const std::size_t max_edges = static_cast<std::size_t>(n) * (n - 1) / 2;
  if (m > max_edges) {
    throw std::invalid_argument("requested more edges than the simple graph allows");
  }
  EdgeList edges;
  std::unordered_set<std::uint64_t> seen;
  while (edges.size() < m) {
    auto u = static_cast<VarId>(rng.index(static_cast<std::size_t>(n)));
    auto v = static_cast<VarId>(rng.index(static_cast<std::size_t>(n)));
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    if (!seen.insert(edge_key(u, v)).second) continue;
    edges.emplace_back(u, v);
  }
  return edges;
}

sat::Cnf random_ksat(int n, std::size_t m, int k, Rng& rng) {
  if (n < k || k < 1) throw std::invalid_argument("need n >= k >= 1");
  sat::Cnf cnf(n);
  std::vector<sat::Lit> lits;
  std::size_t guard = 0;
  while (cnf.num_clauses() < m) {
    if (++guard > 1000 * m + 10000) {
      throw std::runtime_error("random clause sampling did not converge");
    }
    draw_random_clause(n, static_cast<std::size_t>(k), rng, lits);
    cnf.add_clause(lits);  // a duplicate is refused and redrawn
  }
  return cnf;
}

}  // namespace discsp::gen
