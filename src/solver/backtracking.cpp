#include "solver/backtracking.h"

#include <algorithm>
#include <numeric>

namespace discsp {

BacktrackingSolver::BacktrackingSolver(const Problem& problem) : problem_(problem) {
  const auto n = static_cast<std::size_t>(problem.num_variables());
  assignment_.assign(n, kNoValue);
  order_.resize(n);
  std::iota(order_.begin(), order_.end(), 0);
  // Most-constrained variables first: touching more nogoods means failing
  // earlier, which is the whole game for a chronological solver.
  std::stable_sort(order_.begin(), order_.end(), [&](VarId a, VarId b) {
    return problem.nogoods_of(a).size() > problem.nogoods_of(b).size();
  });
  rank_.resize(n);
  for (std::size_t i = 0; i < n; ++i) rank_[static_cast<std::size_t>(order_[i])] = i;
}

bool BacktrackingSolver::consistent_with_assigned(VarId var) {
  for (std::uint32_t idx : problem_.nogoods_of(var)) {
    const NogoodView ng = problem_.nogood(idx);
    ++stats_.nogood_checks;
    bool violated = true;
    for (const Assignment& a : ng) {
      if (assignment_[static_cast<std::size_t>(a.var)] != a.value) {
        violated = false;
        break;
      }
    }
    if (violated) return false;
  }
  return true;
}

bool BacktrackingSolver::search(std::size_t depth, std::uint64_t limit,
                                std::uint64_t& found, FullAssignment* first_solution) {
  if (depth == order_.size()) {
    ++found;
    if (first_solution != nullptr && found == 1) *first_solution = assignment_;
    return limit != 0 && found >= limit;  // true == stop searching
  }
  const VarId var = order_[depth];
  for (Value d = 0; d < problem_.domain_size(var); ++d) {
    assignment_[static_cast<std::size_t>(var)] = d;
    ++stats_.nodes;
    if (consistent_with_assigned(var)) {
      if (search(depth + 1, limit, found, first_solution)) {
        // leave assignment_ in the solution state when stopping
        return true;
      }
    }
  }
  assignment_[static_cast<std::size_t>(var)] = kNoValue;
  return false;
}

std::optional<FullAssignment> BacktrackingSolver::solve() {
  // The empty nogood has no variables, so the per-variable pruning index
  // never sees it; handle the explicit contradiction up front.
  if (problem_.has_empty_nogood()) return std::nullopt;
  std::fill(assignment_.begin(), assignment_.end(), kNoValue);
  std::uint64_t found = 0;
  FullAssignment solution;
  search(0, 1, found, &solution);
  if (found == 0) return std::nullopt;
  return solution;
}

std::uint64_t BacktrackingSolver::count_solutions(std::uint64_t limit) {
  if (problem_.has_empty_nogood()) return 0;
  std::fill(assignment_.begin(), assignment_.end(), kNoValue);
  std::uint64_t found = 0;
  search(0, limit, found, nullptr);
  return found;
}

std::optional<FullAssignment> solve_backtracking(const Problem& problem) {
  return BacktrackingSolver(problem).solve();
}

std::uint64_t count_solutions(const Problem& problem, std::uint64_t limit) {
  return BacktrackingSolver(problem).count_solutions(limit);
}

}  // namespace discsp
