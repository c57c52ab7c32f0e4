#include "multi/multi_awc.h"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "awc/awc_agent.h"

namespace discsp::multi {

MultiAwcSolver::MultiAwcSolver(const DistributedProblem& problem,
                               const learning::LearningStrategy& strategy_prototype,
                               MultiAwcOptions options)
    : problem_(problem), strategy_(strategy_prototype.clone()), options_(options) {}

FullAssignment MultiAwcSolver::random_initial(Rng& rng) const {
  const Problem& p = problem_.problem();
  FullAssignment initial(static_cast<std::size_t>(p.num_variables()));
  for (VarId v = 0; v < p.num_variables(); ++v) {
    initial[static_cast<std::size_t>(v)] =
        static_cast<Value>(rng.index(static_cast<std::size_t>(p.domain_size(v))));
  }
  return initial;
}

sim::RunResult MultiAwcSolver::solve(const FullAssignment& initial, const Rng& rng) {
  const Problem& p = problem_.problem();
  if (static_cast<int>(initial.size()) != p.num_variables()) {
    throw std::invalid_argument("initial assignment size mismatch");
  }
  const auto n = static_cast<std::size_t>(p.num_variables());

  // Virtual agent v owns variable v; the directory for virtual routing is
  // therefore the identity.
  auto virtual_owner = std::make_shared<std::vector<AgentId>>(n);
  for (std::size_t v = 0; v < n; ++v) (*virtual_owner)[v] = static_cast<AgentId>(v);
  auto log = std::make_shared<awc::GenerationLog>();

  std::vector<std::unique_ptr<awc::AwcAgent>> agents;
  agents.reserve(n);
  for (VarId v = 0; v < p.num_variables(); ++v) {
    std::vector<Nogood> initial_nogoods;
    for (std::uint32_t idx : p.nogoods_of(v)) initial_nogoods.emplace_back(p.nogood(idx));
    std::vector<AgentId> links;
    for (VarId nb : p.neighbors_of(v)) links.push_back(nb);
    awc::AwcAgentConfig config;
    config.nogood_capacity = options_.nogood_capacity;
    agents.push_back(std::make_unique<awc::AwcAgent>(
        v, v, p.domain_size(v), initial[static_cast<std::size_t>(v)],
        strategy_->clone(), std::move(links), initial_nogoods, virtual_owner, log,
        rng.derive(static_cast<std::uint64_t>(v) + 0x6c62272eULL), config));
  }

  // Engine loop with real-agent accounting.
  sim::RunResult result;
  const int num_real = problem_.num_agents();
  std::vector<std::vector<sim::MessagePayload>> current(n), next(n);

  VarId sending_var = kNoVar;
  std::uint64_t external_messages = 0;
  class RoutingSink final : public sim::MessageSink {
   public:
    RoutingSink(std::vector<std::vector<sim::MessagePayload>>& inboxes,
                const DistributedProblem& dp, const VarId& sender,
                std::uint64_t& external)
        : inboxes_(inboxes), dp_(dp), sender_(sender), external_(external) {}
    void send(AgentId to, sim::MessagePayload payload) override {
      if (to < 0 || static_cast<std::size_t>(to) >= inboxes_.size()) {
        throw std::out_of_range("message to unknown virtual agent");
      }
      // Inter-agent communication counts only when it crosses a real agent
      // boundary; co-located virtual agents talk for free.
      if (dp_.owner_of(sender_) != dp_.owner_of(static_cast<VarId>(to))) ++external_;
      inboxes_[static_cast<std::size_t>(to)].push_back(std::move(payload));
    }

   private:
    std::vector<std::vector<sim::MessagePayload>>& inboxes_;
    const DistributedProblem& dp_;
    const VarId& sender_;
    std::uint64_t& external_;
  };
  RoutingSink sink(next, problem_, sending_var, external_messages);

  auto snapshot = [&]() {
    FullAssignment a(n, kNoValue);
    for (std::size_t v = 0; v < n; ++v) a[v] = agents[v]->current_value();
    return a;
  };

  for (auto& agent : agents) {
    sending_var = agent->variable();
    agent->start(sink);
    agent->take_checks();
  }
  result.metrics.messages = external_messages;

  if (p.is_solution(snapshot())) {
    result.metrics.solved = true;
    result.assignment = snapshot();
    return result;
  }

  std::vector<std::uint64_t> real_checks(static_cast<std::size_t>(num_real));
  bool quiescent = false;
  while (result.metrics.cycles < options_.max_cycles) {
    current.swap(next);
    for (auto& inbox : next) inbox.clear();
    std::fill(real_checks.begin(), real_checks.end(), 0);
    const std::uint64_t external_before = external_messages;

    std::size_t delivered = 0;
    for (std::size_t v = 0; v < n; ++v) {
      awc::AwcAgent& agent = *agents[v];
      sending_var = agent.variable();
      for (auto& msg : current[v]) {
        agent.receive(msg);
        ++delivered;
      }
      agent.compute(sink);
      real_checks[static_cast<std::size_t>(problem_.owner_of(static_cast<VarId>(v)))] +=
          agent.take_checks();
    }

    ++result.metrics.cycles;
    std::uint64_t cycle_max = 0;
    for (std::uint64_t c : real_checks) {
      cycle_max = std::max(cycle_max, c);
      result.metrics.total_checks += c;
    }
    result.metrics.maxcck += cycle_max;

    for (const auto& agent : agents) {
      if (agent->detected_insoluble()) result.metrics.insoluble = true;
    }
    if (result.metrics.insoluble) break;
    if (p.is_solution(snapshot())) {
      result.metrics.solved = true;
      break;
    }
    if (delivered == 0 && external_messages == external_before) {
      // No external traffic is not enough: internal messages may still be
      // flowing. Check total queued work instead.
      bool any_pending = false;
      for (const auto& inbox : next) any_pending |= !inbox.empty();
      if (!any_pending) {
        quiescent = true;
        break;
      }
    }
  }

  result.metrics.messages = external_messages;
  result.metrics.hit_cycle_cap =
      !result.metrics.solved && !result.metrics.insoluble && !quiescent;
  result.assignment = snapshot();
  for (const auto& agent : agents) {
    result.metrics.nogoods_generated += agent->nogoods_generated();
    result.metrics.redundant_generations += agent->redundant_generations();
    const sim::Agent::RecoveryStats rs = agent->recovery_stats();
    result.metrics.store_evictions += rs.store_evictions;
    result.metrics.peak_learned_nogoods =
        std::max(result.metrics.peak_learned_nogoods, rs.peak_learned_nogoods);
  }
  return result;
}

namespace {
DistributedProblem partition_with(Problem problem,
                                  const std::function<AgentId(VarId)>& assign) {
  std::vector<AgentId> owner(static_cast<std::size_t>(problem.num_variables()));
  for (VarId v = 0; v < problem.num_variables(); ++v) {
    owner[static_cast<std::size_t>(v)] = assign(v);
  }
  return DistributedProblem(std::move(problem), std::move(owner));
}
}  // namespace

DistributedProblem partition_round_robin(Problem problem, int num_agents) {
  if (num_agents < 1) throw std::invalid_argument("need at least one agent");
  return partition_with(std::move(problem),
                        [num_agents](VarId v) { return v % num_agents; });
}

DistributedProblem partition_blocks(Problem problem, int num_agents) {
  if (num_agents < 1) throw std::invalid_argument("need at least one agent");
  const int n = problem.num_variables();
  const int block = (n + num_agents - 1) / num_agents;
  return partition_with(std::move(problem), [block](VarId v) { return v / block; });
}

}  // namespace discsp::multi
