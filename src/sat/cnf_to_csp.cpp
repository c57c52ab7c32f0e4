#include "sat/cnf_to_csp.h"

#include <stdexcept>

namespace discsp::sat {

Problem to_problem(const Cnf& cnf) {
  Problem p;
  p.add_variables(cnf.num_vars(), 2);
  const ClauseList clauses = cnf.clauses();
  p.reserve(clauses.size(), cnf.num_literals());
  std::vector<Assignment> items;
  for (ClauseView c : cnf.clauses()) {
    if (c.is_tautology()) continue;
    items.clear();
    for (Lit l : c) {
      items.push_back({l.var(), l.falsifying_value()});
    }
    p.add_nogood(items);
  }
  return p;
}

DistributedProblem to_distributed(const Cnf& cnf) {
  return DistributedProblem::one_var_per_agent(to_problem(cnf));
}

Cnf to_cnf(const Problem& problem) {
  Cnf cnf(problem.num_variables());
  for (VarId v = 0; v < problem.num_variables(); ++v) {
    if (problem.domain_size(v) != 2) {
      throw std::invalid_argument("to_cnf requires Boolean domains; x" + std::to_string(v) +
                                  " has domain size " + std::to_string(problem.domain_size(v)));
    }
  }
  std::vector<Lit> lits;
  for (NogoodView ng : problem.nogoods()) {
    lits.clear();
    for (const Assignment& a : ng) {
      // Forbidding x=v is the clause literal "x != v": positive when v == 0.
      lits.emplace_back(a.var, a.value == 0);
    }
    cnf.add_clause(lits);
  }
  return cnf;
}

}  // namespace discsp::sat
