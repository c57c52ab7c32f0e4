#include "gen/sat_gen.h"

#include <cmath>
#include <stdexcept>

#include "gen/clause_draw.h"
#include "sat/cnf_to_csp.h"

namespace discsp::gen {

SatInstance generate_sat(const SatParams& params, Rng& rng) {
  const int n = params.n;
  const int k = params.clause_size;
  if (n < k) throw std::invalid_argument("need at least clause_size variables");
  if (k < 1) throw std::invalid_argument("clause_size must be positive");
  const auto m = static_cast<std::size_t>(std::llround(params.clause_ratio * n));

  SatInstance inst;
  inst.cnf.set_num_vars(n);
  inst.planted.resize(static_cast<std::size_t>(n));
  for (auto& v : inst.planted) v = static_cast<Value>(rng.below(2));

  inst.cnf.reserve(m, m * static_cast<std::size_t>(k));
  std::vector<sat::Lit> lits;
  std::size_t attempts = 0;
  const std::size_t max_attempts = 1000 * m + 10000;
  while (inst.cnf.num_clauses() < m) {
    if (++attempts > max_attempts) {
      throw std::runtime_error("clause sampling did not converge; ratio too high for n");
    }
    // k distinct variables, independent random polarities.
    draw_random_clause(n, static_cast<std::size_t>(k), rng, lits);
    if (!sat::satisfied_by(lits, inst.planted)) continue;  // keep the plant a model
    inst.cnf.add_clause(lits);  // a duplicate is refused and redrawn
  }
  return inst;
}

SatInstance generate_sat3(int n, Rng& rng) {
  return generate_sat(SatParams{.n = n, .clause_ratio = 4.3, .clause_size = 3}, rng);
}

DistributedProblem distribute(const SatInstance& instance) {
  return sat::to_distributed(instance.cnf);
}

}  // namespace discsp::gen
