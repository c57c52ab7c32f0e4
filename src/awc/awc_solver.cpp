#include "awc/awc_solver.h"

#include <stdexcept>

#include "awc/awc_agent.h"

namespace discsp::awc {

AwcSolver::AwcSolver(const DistributedProblem& problem,
                     const learning::LearningStrategy& strategy_prototype,
                     AwcOptions options)
    : problem_(problem), strategy_(strategy_prototype.clone()), options_(options) {
  if (!problem.is_one_var_per_agent()) {
    throw std::invalid_argument("AWC requires one variable per agent");
  }
  auto owners = std::make_shared<std::vector<AgentId>>();
  owners->resize(static_cast<std::size_t>(problem.problem().num_variables()));
  for (VarId v = 0; v < problem.problem().num_variables(); ++v) {
    (*owners)[static_cast<std::size_t>(v)] = problem.owner_of(v);
  }
  owner_of_var_ = std::move(owners);
}

FullAssignment AwcSolver::random_initial(Rng& rng) const {
  const Problem& p = problem_.problem();
  FullAssignment initial(static_cast<std::size_t>(p.num_variables()));
  for (VarId v = 0; v < p.num_variables(); ++v) {
    initial[static_cast<std::size_t>(v)] =
        static_cast<Value>(rng.index(static_cast<std::size_t>(p.domain_size(v))));
  }
  return initial;
}

std::vector<std::unique_ptr<sim::Agent>> AwcSolver::make_agents(
    const FullAssignment& initial, const Rng& rng) const {
  const Problem& p = problem_.problem();
  if (static_cast<int>(initial.size()) != p.num_variables()) {
    throw std::invalid_argument("initial assignment size mismatch");
  }
  auto log = std::make_shared<GenerationLog>();

  std::vector<std::unique_ptr<sim::Agent>> agents;
  agents.reserve(static_cast<std::size_t>(problem_.num_agents()));
  for (AgentId a = 0; a < problem_.num_agents(); ++a) {
    const VarId var = problem_.variable_of(a);
    const auto own = problem_.nogoods_of_agent(a);
    std::vector<Nogood> initial_nogoods;
    initial_nogoods.reserve(own.size());
    for (std::uint32_t idx : own) initial_nogoods.emplace_back(p.nogood(idx));
    const auto links = problem_.neighbors_of_agent(a);
    AwcAgentConfig config;
    config.record_received = options_.record_received;
    config.nogood_capacity = options_.nogood_capacity;
    config.journal = options_.journal;
    config.journal_config = options_.journal_config;
    config.incremental = options_.incremental;
    agents.push_back(std::make_unique<AwcAgent>(
        a, var, p.domain_size(var), initial[static_cast<std::size_t>(var)],
        strategy_->clone(), std::vector<AgentId>(links.begin(), links.end()), initial_nogoods,
        owner_of_var_, log, rng.derive(static_cast<std::uint64_t>(a) + 0x517cc1b7ULL),
        config));
  }
  return agents;
}

sim::RunResult AwcSolver::solve(const FullAssignment& initial, const Rng& rng) {
  sim::SyncEngine engine(problem_.problem(), make_agents(initial, rng));
  return engine.run(options_.max_cycles);
}

}  // namespace discsp::awc
