#include "gen/onesat_gen.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "gen/clause_draw.h"
#include "sat/cnf_to_csp.h"
#include "sat/dimacs.h"
#include "solver/model_counter.h"

namespace discsp::gen {

namespace {

/// Clause violated exactly by `model`: one literal per variable, each
/// falsified by the model. Appending it asks "is there any other model?".
sat::Clause blocking_clause(const std::vector<Value>& model) {
  std::vector<sat::Lit> lits;
  lits.reserve(model.size());
  for (std::size_t v = 0; v < model.size(); ++v) {
    lits.emplace_back(static_cast<VarId>(v), model[v] == 0);
  }
  return sat::Clause(std::move(lits));
}

/// Query for a model of `cnf` different from `planted`.
struct AlternativeResult {
  std::vector<Value> model;  // empty when none found
  bool aborted = false;      // decision budget exhausted: inconclusive
};

AlternativeResult find_alternative_model(const sat::Cnf& cnf,
                                         const std::vector<Value>& planted,
                                         std::uint64_t decision_budget) {
  sat::Cnf blocked = cnf;
  blocked.add_clause(blocking_clause(planted));
  sat::ModelCounter counter(blocked);
  counter.set_decision_limit(decision_budget);
  auto models = counter.find_models(1);
  AlternativeResult result;
  if (!models.empty()) {
    result.model = std::move(models.front());
  } else {
    result.aborted = counter.aborted();
  }
  return result;
}

/// Draw into `lits` a random clause satisfied by A (>=1 true literal under
/// A) over 3 distinct variables.
void random_planted_clause(int n, const std::vector<Value>& a, Rng& rng,
                           std::vector<sat::Lit>& lits) {
  do {
    draw_random_clause(n, 3, rng, lits);
  } while (!sat::satisfied_by(lits, a));
}

/// Draw into `lits` a random clause satisfied by A and falsified by B:
/// anchor one literal on a variable where A and B differ (true under A,
/// false under B) and make the other literals false under B. The literals
/// come back sorted, i.e. canonical (their variables are distinct).
void random_elimination_clause(int n, const std::vector<Value>& a, const std::vector<Value>& b,
                               const std::vector<VarId>& diff, Rng& rng,
                               std::vector<sat::Lit>& lits) {
  const VarId anchor = diff[rng.index(diff.size())];
  lits.assign(1, sat::Lit(anchor, a[static_cast<std::size_t>(anchor)] == 1));
  draw_clause(n, 3, rng, [&b](VarId v) { return b[static_cast<std::size_t>(v)] == 0; }, lits);
  std::sort(lits.begin(), lits.end());
}

}  // namespace

OneSatInstance generate_onesat(const OneSatParams& params, Rng& rng) {
  const int n = params.n;
  if (n < 3) throw std::invalid_argument("unique-solution generator needs n >= 3");

  OneSatInstance inst;
  inst.cnf.set_num_vars(n);
  inst.model.resize(static_cast<std::size_t>(n));
  for (auto& v : inst.model) v = static_cast<Value>(rng.below(2));
  const auto& a = inst.model;

  // Phase 1: random planted clauses shrink the model space cheaply.
  const auto base = static_cast<std::size_t>(std::llround(params.base_ratio * n));
  std::vector<sat::Lit> lits;
  while (inst.cnf.num_clauses() < base) {
    random_planted_clause(n, a, rng, lits);
    inst.cnf.add_clause(lits);
  }

  // Phase 2: targeted elimination until A is the only model.
  std::vector<std::vector<Value>> alive;  // alternative models known to survive
  for (;;) {
    if (alive.empty()) {
      auto alt = find_alternative_model(inst.cnf, a, params.decision_budget);
      if (alt.aborted) {
        // The query was too hard for the budget. Tighten the instance with
        // one more random planted clause (sound: A stays a model, others
        // can only die) and ask again on the easier formula.
        do {
          random_planted_clause(n, a, rng, lits);
        } while (!inst.cnf.add_clause(lits));
        continue;
      }
      if (alt.model.empty()) break;  // certified unique
      alive.push_back(std::move(alt.model));
    }
    const auto& b = alive.front();
    std::vector<VarId> diff;
    for (VarId v = 0; v < n; ++v) {
      if (a[static_cast<std::size_t>(v)] != b[static_cast<std::size_t>(v)]) diff.push_back(v);
    }
    // b satisfies the blocking clause, so it differs from a somewhere.
    std::vector<sat::Lit> best;
    std::size_t best_kills = 0;
    for (int c = 0; c < params.candidate_pool; ++c) {
      random_elimination_clause(n, a, b, diff, rng, lits);
      if (inst.cnf.contains(sat::ClauseView(lits))) continue;
      std::size_t kills = 0;
      for (const auto& m : alive) {
        if (!sat::satisfied_by(lits, m)) ++kills;
      }
      if (kills > best_kills) {
        best_kills = kills;
        best = lits;
      }
    }
    if (best_kills == 0) {
      // All candidates were duplicates (tiny n); fall back to any fresh one.
      do {
        random_elimination_clause(n, a, b, diff, rng, best);
      } while (inst.cnf.contains(sat::ClauseView(best)));
    }
    inst.cnf.add_clause(best);
    ++inst.elimination_clauses;
    std::erase_if(alive, [&](const auto& m) { return !sat::satisfied_by(best, m); });
  }

  // Phase 3: pad toward the paper's target ratio. Extra clauses satisfied by
  // A cannot re-introduce models, so uniqueness is preserved.
  const auto target = static_cast<std::size_t>(std::llround(params.clause_ratio * n));
  std::size_t guard = 0;
  while (inst.cnf.num_clauses() < target) {
    random_planted_clause(n, a, rng, lits);
    if (!inst.cnf.add_clause(lits) && ++guard > 100 * target) {
      throw std::runtime_error("padding did not converge");
    }
  }

  inst.achieved_ratio = static_cast<double>(inst.cnf.num_clauses()) / n;
  return inst;
}

OneSatInstance generate_onesat3(int n, Rng& rng) {
  return generate_onesat(OneSatParams{.n = n}, rng);
}

DistributedProblem distribute(const OneSatInstance& instance) {
  return sat::to_distributed(instance.cnf);
}

void save_onesat(const OneSatInstance& instance, const std::string& path) {
  std::ostringstream comment;
  comment << "discsp onesat instance\n";
  comment << "model ";
  for (Value v : instance.model) comment << v;
  comment << '\n';
  comment << "eliminations " << instance.elimination_clauses;
  sat::write_dimacs_file(path, instance.cnf, comment.str());
}

OneSatInstance load_onesat(const std::string& path) {
  OneSatInstance inst;
  inst.cnf = sat::read_dimacs_file(path);

  // Recover the model and elimination count from the comment block.
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("c model ", 0) == 0) {
      const std::string bits = line.substr(8);
      inst.model.reserve(bits.size());
      for (char ch : bits) {
        if (ch == '0' || ch == '1') inst.model.push_back(ch - '0');
      }
    } else if (line.rfind("c eliminations ", 0) == 0) {
      inst.elimination_clauses = static_cast<std::size_t>(std::stoull(line.substr(15)));
    } else if (!line.empty() && line[0] == 'p') {
      break;
    }
  }
  if (static_cast<int>(inst.model.size()) != inst.cnf.num_vars()) {
    throw std::runtime_error("cached onesat file lacks a valid model comment: " + path);
  }
  if (!inst.cnf.satisfied_by(inst.model)) {
    throw std::runtime_error("cached onesat model does not satisfy the formula: " + path);
  }
  inst.achieved_ratio = static_cast<double>(inst.cnf.num_clauses()) / inst.cnf.num_vars();
  return inst;
}

OneSatInstance cached_onesat(const OneSatParams& params, int instance_index,
                             std::uint64_t seed, std::string cache_dir) {
  if (cache_dir.empty()) {
    if (const char* env = std::getenv("REPRO_CACHE_DIR"); env != nullptr) {
      cache_dir = env;
    } else {
      cache_dir = ".repro_cache";
    }
  }
  std::filesystem::create_directories(cache_dir);
  std::ostringstream name;
  name << "onesat_n" << params.n << "_i" << instance_index << "_s" << seed << ".cnf";
  const std::string path = (std::filesystem::path(cache_dir) / name.str()).string();

  if (std::filesystem::exists(path)) {
    try {
      return load_onesat(path);
    } catch (const std::exception&) {
      // Corrupt cache entry: fall through and regenerate.
    }
  }
  Rng rng(seed ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(instance_index + 1)));
  OneSatInstance inst = generate_onesat(params, rng);
  save_onesat(inst, path);
  return inst;
}

}  // namespace discsp::gen
