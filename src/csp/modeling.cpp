#include "csp/modeling.h"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <unordered_set>

namespace discsp::model {

void add_not_equal(Problem& problem, VarId u, VarId v) {
  if (u == v) throw std::invalid_argument("not_equal needs two distinct variables");
  const Value shared = std::min(problem.domain_size(u), problem.domain_size(v));
  for (Value c = 0; c < shared; ++c) {
    problem.add_nogood({{u, c}, {v, c}});
  }
}

void add_equal(Problem& problem, VarId u, VarId v) {
  if (u == v) throw std::invalid_argument("equal needs two distinct variables");
  for (Value a = 0; a < problem.domain_size(u); ++a) {
    for (Value b = 0; b < problem.domain_size(v); ++b) {
      if (a != b) problem.add_nogood({{u, a}, {v, b}});
    }
  }
}

void add_all_different(Problem& problem, std::span<const VarId> vars) {
  for (std::size_t i = 0; i < vars.size(); ++i) {
    for (std::size_t j = i + 1; j < vars.size(); ++j) {
      add_not_equal(problem, vars[i], vars[j]);
    }
  }
}

void add_min_distance(Problem& problem, VarId u, VarId v, int distance) {
  if (distance <= 0) throw std::invalid_argument("distance must be positive");
  for (Value a = 0; a < problem.domain_size(u); ++a) {
    for (Value b = 0; b < problem.domain_size(v); ++b) {
      if (std::abs(a - b) < distance) problem.add_nogood({{u, a}, {v, b}});
    }
  }
}

void add_forbidden(Problem& problem, std::vector<Assignment> combination) {
  problem.add_nogood(combination);
}

void add_allowed_values(Problem& problem, VarId var, std::span<const Value> allowed) {
  std::unordered_set<Value> keep(allowed.begin(), allowed.end());
  if (keep.empty()) throw std::invalid_argument("allowed value set must not be empty");
  for (Value v = 0; v < problem.domain_size(var); ++v) {
    if (keep.count(v) == 0) problem.add_nogood({{var, v}});
  }
}

void add_forbidden_value(Problem& problem, VarId var, Value value) {
  problem.add_nogood({{var, value}});
}

Problem coloring_problem(int n, int colors,
                         std::span<const std::pair<VarId, VarId>> edges) {
  Problem p;
  p.add_variables(n, colors);
  for (const auto& [u, v] : edges) {
    add_not_equal(p, u, v);
  }
  return p;
}

}  // namespace discsp::model
