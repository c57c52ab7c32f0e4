#include "db/db_solver.h"

#include <stdexcept>

#include "db/db_agent.h"

namespace discsp::db {

DbSolver::DbSolver(const DistributedProblem& problem, DbOptions options)
    : problem_(problem), options_(options) {
  if (!problem.is_one_var_per_agent()) {
    throw std::invalid_argument("DB requires one variable per agent");
  }
}

FullAssignment DbSolver::random_initial(Rng& rng) const {
  const Problem& p = problem_.problem();
  FullAssignment initial(static_cast<std::size_t>(p.num_variables()));
  for (VarId v = 0; v < p.num_variables(); ++v) {
    initial[static_cast<std::size_t>(v)] =
        static_cast<Value>(rng.index(static_cast<std::size_t>(p.domain_size(v))));
  }
  return initial;
}

std::vector<std::unique_ptr<sim::Agent>> DbSolver::make_agents(
    const FullAssignment& initial, const Rng& rng) const {
  const Problem& p = problem_.problem();
  if (static_cast<int>(initial.size()) != p.num_variables()) {
    throw std::invalid_argument("initial assignment size mismatch");
  }
  std::vector<std::unique_ptr<sim::Agent>> agents;
  agents.reserve(static_cast<std::size_t>(problem_.num_agents()));
  for (AgentId a = 0; a < problem_.num_agents(); ++a) {
    const VarId var = problem_.variable_of(a);
    const auto own = problem_.nogoods_of_agent(a);
    std::vector<Nogood> nogoods;
    nogoods.reserve(own.size());
    for (std::uint32_t idx : own) nogoods.emplace_back(p.nogood(idx));
    const auto neighbors = problem_.neighbors_of_agent(a);
    DbAgentConfig config;
    config.journal = options_.journal;
    config.journal_config = options_.journal_config;
    config.incremental = options_.incremental;
    agents.push_back(std::make_unique<DbAgent>(
        a, var, p.domain_size(var), initial[static_cast<std::size_t>(var)],
        std::vector<AgentId>(neighbors.begin(), neighbors.end()), std::move(nogoods),
        rng.derive(static_cast<std::uint64_t>(a) + 0x2545f491ULL), config));
  }
  return agents;
}

sim::RunResult DbSolver::solve(const FullAssignment& initial, const Rng& rng) {
  sim::SyncEngine engine(problem_.problem(), make_agents(initial, rng));
  return engine.run(options_.max_cycles);
}

}  // namespace discsp::db
