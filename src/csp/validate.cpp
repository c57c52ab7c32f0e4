#include "csp/validate.h"

#include <cstddef>

namespace discsp {

ValidationReport validate_solution(const Problem& problem, const FullAssignment& a) {
  ValidationReport report;
  if (static_cast<int>(a.size()) != problem.num_variables()) {
    report.error = "assignment has " + std::to_string(a.size()) + " values, problem has " +
                   std::to_string(problem.num_variables()) + " variables";
    return report;
  }
  for (VarId v = 0; v < problem.num_variables(); ++v) {
    const Value val = a[static_cast<std::size_t>(v)];
    if (val < 0 || val >= problem.domain_size(v)) {
      report.error = "x" + std::to_string(v) + " = " + std::to_string(val) +
                     " is outside its domain";
      return report;
    }
  }
  auto lookup = [&](VarId v) { return a[static_cast<std::size_t>(v)]; };
  const NogoodList nogoods = problem.nogoods();
  for (std::size_t i = 0; i < nogoods.size(); ++i) {
    if (nogoods[i].violated_by(lookup)) report.violated.push_back(i);
  }
  report.ok = report.violated.empty();
  return report;
}

namespace {

/// Recursively enumerate completions of `partial`; return true when some
/// completion is a solution (i.e. the nogood is NOT entailed).
bool has_compatible_solution(const Problem& problem, FullAssignment& partial, VarId next) {
  const int n = problem.num_variables();
  if (next == n) return problem.is_solution(partial);
  auto& slot = partial[static_cast<std::size_t>(next)];
  if (slot != kNoValue) return has_compatible_solution(problem, partial, next + 1);
  for (Value d = 0; d < problem.domain_size(next); ++d) {
    slot = d;
    if (has_compatible_solution(problem, partial, next + 1)) {
      slot = kNoValue;
      return true;
    }
  }
  slot = kNoValue;
  return false;
}

}  // namespace

bool nogood_is_entailed(const Problem& problem, const Nogood& ng) {
  FullAssignment partial(static_cast<std::size_t>(problem.num_variables()), kNoValue);
  for (const Assignment& a : ng) {
    partial[static_cast<std::size_t>(a.var)] = a.value;
  }
  return !has_compatible_solution(problem, partial, 0);
}

}  // namespace discsp
