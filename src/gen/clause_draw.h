// The one random clause draw shared by the k-SAT generators (planted 3SAT,
// unique-solution 3ONESAT, uniform random k-SAT).
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "sat/cnf.h"

namespace discsp::gen {

/// Append literals over fresh variables to `lits` until it holds `k`. Each
/// draw takes rng.index(n); a variable already in `lits` is skipped, and a
/// fresh one `v` gets the literal Lit(v, positive(v)), so a `positive` that
/// draws from `rng` does so right after the variable. `lits` may arrive
/// holding anchor literals; the buffer is reused, so no draw allocates once
/// it has grown to k.
template <typename Polarity>
void draw_clause(int n, std::size_t k, Rng& rng, Polarity&& positive,
                 std::vector<sat::Lit>& lits) {
  while (lits.size() < k) {
    const auto v = static_cast<VarId>(rng.index(static_cast<std::size_t>(n)));
    if (std::any_of(lits.begin(), lits.end(), [v](sat::Lit l) { return l.var() == v; })) {
      continue;
    }
    lits.emplace_back(v, positive(v));
  }
}

/// Replace `lits` with k literals over distinct variables, each of random
/// polarity.
inline void draw_random_clause(int n, std::size_t k, Rng& rng, std::vector<sat::Lit>& lits) {
  lits.clear();
  draw_clause(n, k, rng, [&rng](VarId) { return rng.below(2) == 1; }, lits);
}

}  // namespace discsp::gen
