// DistributedProblem: a Problem plus the agent ownership structure.
//
// The paper (and the core algorithms here) use the canonical setting where
// every agent owns exactly one variable together with all nogoods relevant
// to it — including the inter-agent nogoods shared with neighbors. The class
// supports general var->agent maps so multi-variable extensions can reuse
// it, but the single-variable accessors are what AWC/ABT/DB consume.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "csp/problem.h"

namespace discsp {

class DistributedProblem {
 public:
  /// The canonical construction: agent i owns variable i.
  static DistributedProblem one_var_per_agent(Problem p);

  /// General construction from an explicit var -> agent map.
  DistributedProblem(Problem p, std::vector<AgentId> owner_of_var);

  const Problem& problem() const { return problem_; }
  int num_agents() const { return num_agents_; }

  AgentId owner_of(VarId v) const { return owner_[static_cast<std::size_t>(v)]; }
  /// The variables agent a owns, ascending.
  std::span<const VarId> variables_of(AgentId a) const { return row(var_offsets_, vars_, a); }

  /// Single-variable accessor for the core algorithms; throws when the agent
  /// owns a different number of variables.
  VarId variable_of(AgentId a) const;

  /// Indices (into problem().nogoods()) of constraints relevant to agent a,
  /// i.e. mentioning at least one of its variables; ascending, no duplicates.
  std::span<const std::uint32_t> nogoods_of_agent(AgentId a) const {
    if (one_var_per_agent_) return problem_.nogoods_of(vars_[static_cast<std::size_t>(a)]);
    return row(nogood_offsets_, nogoods_, a);
  }

  /// Agents owning a variable that shares a nogood with agent a's variables
  /// (sorted, excludes a).
  std::span<const AgentId> neighbors_of_agent(AgentId a) const {
    return row(neighbor_offsets_, neighbors_, a);
  }

  /// True iff every agent owns exactly one variable.
  bool is_one_var_per_agent() const { return one_var_per_agent_; }

 private:
  /// Row `a` of a CSR table: items[offsets[a], offsets[a+1]).
  template <typename T>
  static std::span<const T> row(const std::vector<std::uint32_t>& offsets,
                                const std::vector<T>& items, AgentId a) {
    const auto i = static_cast<std::size_t>(a);
    return std::span<const T>(items).subspan(offsets[i], offsets[i + 1] - offsets[i]);
  }

  Problem problem_;
  std::vector<AgentId> owner_;
  int num_agents_ = 0;
  bool one_var_per_agent_ = false;
  // Per-agent tables as CSR rows. With one variable per agent the nogood
  // list is the variable's own occurrence list, so nogoods_ stays empty.
  std::vector<std::uint32_t> var_offsets_;
  std::vector<VarId> vars_;
  std::vector<std::uint32_t> nogood_offsets_;
  std::vector<std::uint32_t> nogoods_;
  std::vector<std::uint32_t> neighbor_offsets_;
  std::vector<AgentId> neighbors_;
};

}  // namespace discsp
