#include "abt/abt_solver.h"

#include <algorithm>
#include <stdexcept>

#include "abt/abt_agent.h"

namespace discsp::abt {

AbtSolver::AbtSolver(const DistributedProblem& problem, AbtOptions options)
    : problem_(problem), options_(options) {
  if (!problem.is_one_var_per_agent()) {
    throw std::invalid_argument("ABT requires one variable per agent");
  }
  auto owners = std::make_shared<std::vector<AgentId>>();
  owners->resize(static_cast<std::size_t>(problem.problem().num_variables()));
  for (VarId v = 0; v < problem.problem().num_variables(); ++v) {
    (*owners)[static_cast<std::size_t>(v)] = problem.owner_of(v);
  }
  owner_of_var_ = std::move(owners);
}

FullAssignment AbtSolver::random_initial(Rng& rng) const {
  const Problem& p = problem_.problem();
  FullAssignment initial(static_cast<std::size_t>(p.num_variables()));
  for (VarId v = 0; v < p.num_variables(); ++v) {
    initial[static_cast<std::size_t>(v)] =
        static_cast<Value>(rng.index(static_cast<std::size_t>(p.domain_size(v))));
  }
  return initial;
}

std::vector<std::unique_ptr<sim::Agent>> AbtSolver::make_agents(
    const FullAssignment& initial, const Rng& rng) const {
  const Problem& p = problem_.problem();
  if (static_cast<int>(initial.size()) != p.num_variables()) {
    throw std::invalid_argument("initial assignment size mismatch");
  }

  std::vector<std::unique_ptr<sim::Agent>> agents;
  agents.reserve(static_cast<std::size_t>(problem_.num_agents()));
  for (AgentId a = 0; a < problem_.num_agents(); ++a) {
    const VarId var = problem_.variable_of(a);

    // Each constraint is evaluated by its lowest-priority (= largest id)
    // member; everyone else sends ok? to that evaluator.
    std::vector<Nogood> evaluated;
    std::vector<AgentId> outgoing;
    for (std::uint32_t idx : problem_.nogoods_of_agent(a)) {
      const NogoodView ng = p.nogood(idx);
      const VarId evaluator = ng.items().back().var;  // items sorted by var id
      if (evaluator == var) {
        evaluated.emplace_back(ng);
      } else {
        outgoing.push_back(problem_.owner_of(evaluator));
      }
    }
    std::sort(outgoing.begin(), outgoing.end());
    outgoing.erase(std::unique(outgoing.begin(), outgoing.end()), outgoing.end());

    AbtAgentConfig config;
    config.use_resolvent = options_.use_resolvent;
    config.incremental = options_.incremental;
    agents.push_back(std::make_unique<AbtAgent>(
        a, var, p.domain_size(var), initial[static_cast<std::size_t>(var)],
        std::move(outgoing), evaluated, owner_of_var_,
        rng.derive(static_cast<std::uint64_t>(a) + 0x9ae16a3bULL), config));
  }
  return agents;
}

sim::RunResult AbtSolver::solve(const FullAssignment& initial, const Rng& rng) {
  sim::SyncEngine engine(problem_.problem(), make_agents(initial, rng));
  return engine.run(options_.max_cycles);
}

}  // namespace discsp::abt
