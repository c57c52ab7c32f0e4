#include "csp/distributed_problem.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace discsp {

DistributedProblem DistributedProblem::one_var_per_agent(Problem p) {
  std::vector<AgentId> owner(static_cast<std::size_t>(p.num_variables()));
  std::iota(owner.begin(), owner.end(), 0);
  return DistributedProblem(std::move(p), std::move(owner));
}

DistributedProblem::DistributedProblem(Problem p, std::vector<AgentId> owner_of_var)
    : problem_(std::move(p)), owner_(std::move(owner_of_var)) {
  if (static_cast<int>(owner_.size()) != problem_.num_variables()) {
    throw std::invalid_argument("owner map size must equal variable count");
  }
  for (AgentId a : owner_) {
    if (a < 0) throw std::invalid_argument("negative agent id in owner map");
    num_agents_ = std::max(num_agents_, a + 1);
  }
  problem_.shrink_to_fit();
  const auto agents = static_cast<std::size_t>(num_agents_);

  // Counting sort of the variables by owner keeps each row ascending.
  var_offsets_.assign(agents + 1, 0);
  for (AgentId a : owner_) ++var_offsets_[static_cast<std::size_t>(a) + 1];
  std::partial_sum(var_offsets_.begin(), var_offsets_.end(), var_offsets_.begin());
  vars_.resize(owner_.size());
  {
    std::vector<std::uint32_t> fill(var_offsets_.begin(), var_offsets_.end() - 1);
    for (VarId v = 0; v < problem_.num_variables(); ++v) {
      vars_[fill[static_cast<std::size_t>(owner_[static_cast<std::size_t>(v)])]++] = v;
    }
  }
  one_var_per_agent_ = num_agents_ == problem_.num_variables();
  for (std::size_t a = 0; a < agents && one_var_per_agent_; ++a) {
    one_var_per_agent_ = var_offsets_[a + 1] - var_offsets_[a] == 1;
  }

  if (!one_var_per_agent_) {
    nogood_offsets_.reserve(agents + 1);
    nogood_offsets_.push_back(0);
    for (AgentId a = 0; a < num_agents_; ++a) {
      const auto begin = nogoods_.size();
      for (VarId v : variables_of(a)) {
        const auto per_var = problem_.nogoods_of(v);
        nogoods_.insert(nogoods_.end(), per_var.begin(), per_var.end());
      }
      const auto first = nogoods_.begin() + static_cast<std::ptrdiff_t>(begin);
      std::sort(first, nogoods_.end());
      nogoods_.erase(std::unique(first, nogoods_.end()), nogoods_.end());
      nogood_offsets_.push_back(static_cast<std::uint32_t>(nogoods_.size()));
    }
    nogoods_.shrink_to_fit();
  }

  // Neighborhood is symmetric: a nogood relevant to agents a and b is in
  // both agents' lists. So visiting the agents a in ascending order and
  // appending a to the row of every other agent its nogoods reach fills
  // each row sorted and duplicate-free, with no sort: one counting pass,
  // one filling pass.
  std::vector<AgentId> last(agents);  // the agent last appended to each row
  auto for_each_edge = [&](auto&& visit) {
    std::fill(last.begin(), last.end(), kNoAgent);
    for (AgentId a = 0; a < num_agents_; ++a) {
      for (std::uint32_t idx : nogoods_of_agent(a)) {
        for (const Assignment& asg : problem_.nogood(idx)) {
          const auto other = static_cast<std::size_t>(owner_[static_cast<std::size_t>(asg.var)]);
          if (static_cast<AgentId>(other) == a || last[other] == a) continue;
          last[other] = a;
          visit(other, a);
        }
      }
    }
  };
  neighbor_offsets_.assign(agents + 1, 0);
  for_each_edge([&](std::size_t row, AgentId) { ++neighbor_offsets_[row + 1]; });
  std::partial_sum(neighbor_offsets_.begin(), neighbor_offsets_.end(), neighbor_offsets_.begin());
  neighbors_.resize(neighbor_offsets_.back());
  std::vector<std::uint32_t> fill(neighbor_offsets_.begin(), neighbor_offsets_.end() - 1);
  for_each_edge([&](std::size_t row, AgentId a) { neighbors_[fill[row]++] = a; });
}

VarId DistributedProblem::variable_of(AgentId a) const {
  const auto vars = variables_of(a);
  if (vars.size() != 1) {
    throw std::logic_error("agent " + std::to_string(a) + " owns " +
                           std::to_string(vars.size()) +
                           " variables; this algorithm requires exactly one");
  }
  return vars.front();
}

}  // namespace discsp
