#include "gen/coloring_gen.h"

#include <cmath>
#include <stdexcept>
#include <unordered_set>

namespace discsp::gen {

namespace {
std::uint64_t edge_key(VarId u, VarId v) {
  return (static_cast<std::uint64_t>(u) << 32) | static_cast<std::uint32_t>(v);
}
}  // namespace

ColoringInstance generate_coloring(const ColoringParams& params, Rng& rng) {
  const int n = params.n;
  const int k = params.num_colors;
  if (n <= 1) throw std::invalid_argument("coloring generator needs n >= 2");
  if (k < 2) throw std::invalid_argument("coloring generator needs >= 2 colors");
  const auto m = static_cast<std::size_t>(std::llround(params.edge_ratio * n));

  ColoringInstance inst;
  inst.num_colors = k;

  // Balanced planted partition: shuffle node order, deal colors round-robin.
  std::vector<VarId> nodes(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) nodes[static_cast<std::size_t>(i)] = i;
  rng.shuffle(nodes);
  inst.planted.assign(static_cast<std::size_t>(n), 0);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    inst.planted[static_cast<std::size_t>(nodes[i])] = static_cast<Value>(i % static_cast<std::size_t>(k));
  }

  // Count available cross-class pairs to fail fast on impossible requests.
  std::vector<std::size_t> class_size(static_cast<std::size_t>(k), 0);
  for (Value c : inst.planted) ++class_size[static_cast<std::size_t>(c)];
  std::size_t cross_pairs = 0;
  for (int a = 0; a < k; ++a) {
    for (int b = a + 1; b < k; ++b) {
      cross_pairs += class_size[static_cast<std::size_t>(a)] * class_size[static_cast<std::size_t>(b)];
    }
  }
  if (m > cross_pairs) {
    throw std::invalid_argument("requested " + std::to_string(m) + " edges but only " +
                                std::to_string(cross_pairs) + " cross-class pairs exist");
  }

  std::unordered_set<std::uint64_t> seen;
  seen.reserve(m * 2);
  while (inst.edges.size() < m) {
    auto u = static_cast<VarId>(rng.index(static_cast<std::size_t>(n)));
    auto v = static_cast<VarId>(rng.index(static_cast<std::size_t>(n)));
    if (u == v) continue;
    if (inst.planted[static_cast<std::size_t>(u)] == inst.planted[static_cast<std::size_t>(v)]) continue;
    if (u > v) std::swap(u, v);
    if (!seen.insert(edge_key(u, v)).second) continue;
    inst.edges.emplace_back(u, v);
  }

  inst.problem.add_variables(n, k);
  for (const auto& [u, v] : inst.edges) {
    for (Value c = 0; c < k; ++c) {
      inst.problem.add_nogood({{u, c}, {v, c}});
    }
  }
  return inst;
}

ColoringInstance generate_coloring3(int n, Rng& rng) {
  return generate_coloring(ColoringParams{.n = n, .edge_ratio = 2.7, .num_colors = 3}, rng);
}

DistributedProblem distribute(const ColoringInstance& instance) {
  return DistributedProblem::one_var_per_agent(instance.problem);
}

}  // namespace discsp::gen
