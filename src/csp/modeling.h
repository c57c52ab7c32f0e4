// Modeling helpers: build common constraint shapes as extensional nogoods.
//
// The algorithms only ever see nogoods; these helpers keep user models
// readable ("these two variables differ", "all of these differ", "this
// table of combinations is forbidden") while staying within the paper's
// extensional representation.
#pragma once

#include <span>
#include <vector>

#include "csp/problem.h"

namespace discsp::model {

/// u != v: one nogood per shared domain value. Variables may have different
/// domain sizes; only the overlapping value range is constrained.
void add_not_equal(Problem& problem, VarId u, VarId v);

/// u == v: forbid every differing pair (extensional equality).
void add_equal(Problem& problem, VarId u, VarId v);

/// Pairwise not-equal over a set (the classic all_different decomposition).
void add_all_different(Problem& problem, std::span<const VarId> vars);

/// |u - v| >= distance (e.g. scheduling separation). distance = 1 is
/// not-equal.
void add_min_distance(Problem& problem, VarId u, VarId v, int distance);

/// Forbid exactly the given combination of assignments.
void add_forbidden(Problem& problem, std::vector<Assignment> combination);

/// Restrict `var` to the listed values (unary nogoods on the complement).
void add_allowed_values(Problem& problem, VarId var, std::span<const Value> allowed);

/// Forbid var = value (a single unary nogood).
void add_forbidden_value(Problem& problem, VarId var, Value value);

/// Intensional binary constraint: keep the pairs where `keep(a, b)` is true,
/// forbid the rest. The predicate is evaluated over the full domain product,
/// so this is meant for the small domains typical of distributed CSPs.
template <typename Predicate>
void add_binary_relation(Problem& problem, VarId u, VarId v, Predicate&& keep) {
  for (Value a = 0; a < problem.domain_size(u); ++a) {
    for (Value b = 0; b < problem.domain_size(v); ++b) {
      if (!keep(a, b)) problem.add_nogood({{u, a}, {v, b}});
    }
  }
}

/// Build a graph-coloring problem from an edge list (n nodes, k colors).
Problem coloring_problem(int n, int colors,
                         std::span<const std::pair<VarId, VarId>> edges);

}  // namespace discsp::model
