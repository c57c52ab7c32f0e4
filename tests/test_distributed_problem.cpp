// DistributedProblem: ownership wiring, agent nogood/neighbor derivation.
#include <gtest/gtest.h>

#include <algorithm>

#include "csp/distributed_problem.h"

namespace discsp {
namespace {

template <typename T>
std::vector<T> to_vector(std::span<const T> row) {
  return {row.begin(), row.end()};
}

Problem path_problem() {
  // x0 - x1 - x2 chain of difference constraints over {0,1}.
  Problem p;
  p.add_variables(3, 2);
  for (Value v = 0; v < 2; ++v) {
    p.add_nogood(Nogood{{0, v}, {1, v}});
    p.add_nogood(Nogood{{1, v}, {2, v}});
  }
  return p;
}

TEST(DistributedProblem, OneVarPerAgentIdentityMapping) {
  const auto dp = DistributedProblem::one_var_per_agent(path_problem());
  EXPECT_EQ(dp.num_agents(), 3);
  EXPECT_TRUE(dp.is_one_var_per_agent());
  for (AgentId a = 0; a < 3; ++a) {
    EXPECT_EQ(dp.variable_of(a), a);
    EXPECT_EQ(dp.owner_of(a), a);
  }
}

TEST(DistributedProblem, AgentNogoodsAreTheRelevantOnes) {
  const auto dp = DistributedProblem::one_var_per_agent(path_problem());
  EXPECT_EQ(dp.nogoods_of_agent(0).size(), 2u);  // only the x0-x1 pair
  EXPECT_EQ(dp.nogoods_of_agent(1).size(), 4u);  // both constraints
  EXPECT_EQ(dp.nogoods_of_agent(2).size(), 2u);
  for (std::uint32_t idx : dp.nogoods_of_agent(0)) {
    EXPECT_TRUE(dp.problem().nogood(idx).contains(0));
  }
}

TEST(DistributedProblem, NeighborsExcludeSelfAndDeduplicate) {
  const auto dp = DistributedProblem::one_var_per_agent(path_problem());
  EXPECT_EQ(to_vector(dp.neighbors_of_agent(0)), (std::vector<AgentId>{1}));
  EXPECT_EQ(to_vector(dp.neighbors_of_agent(1)), (std::vector<AgentId>{0, 2}));
  EXPECT_EQ(to_vector(dp.neighbors_of_agent(2)), (std::vector<AgentId>{1}));
}

TEST(DistributedProblem, CustomOwnershipMap) {
  // Two agents: agent 0 owns x0 and x2, agent 1 owns x1.
  DistributedProblem dp(path_problem(), {0, 1, 0});
  EXPECT_EQ(dp.num_agents(), 2);
  EXPECT_FALSE(dp.is_one_var_per_agent());
  EXPECT_EQ(to_vector(dp.variables_of(0)), (std::vector<VarId>{0, 2}));
  EXPECT_EQ(to_vector(dp.variables_of(1)), (std::vector<VarId>{1}));
  EXPECT_THROW(dp.variable_of(0), std::logic_error);
  EXPECT_EQ(dp.variable_of(1), 1);
  // All four constraints touch agent 0's variables.
  EXPECT_EQ(dp.nogoods_of_agent(0).size(), 4u);
  EXPECT_EQ(to_vector(dp.neighbors_of_agent(0)), (std::vector<AgentId>{1}));
  EXPECT_EQ(to_vector(dp.neighbors_of_agent(1)), (std::vector<AgentId>{0}));
}

TEST(DistributedProblem, RejectsBadOwnerMaps) {
  EXPECT_THROW(DistributedProblem(path_problem(), {0, 1}), std::invalid_argument);
  EXPECT_THROW(DistributedProblem(path_problem(), {0, -1, 1}), std::invalid_argument);
}

TEST(DistributedProblem, IsolatedVariableHasNoNeighbors) {
  Problem p;
  p.add_variables(2, 2);  // no constraints
  const auto dp = DistributedProblem::one_var_per_agent(std::move(p));
  EXPECT_TRUE(dp.nogoods_of_agent(0).empty());
  EXPECT_TRUE(dp.neighbors_of_agent(0).empty());
}

TEST(DistributedProblem, MultiVariableAgentsKeepSortedDeduplicatedLists) {
  // Agents own scattered variables, and the constraints are added so that
  // concatenating the owned variables' occurrence lists is out of order and
  // repeats the nogoods binding two variables of one agent.
  Problem p;
  p.add_variables(6, 2);
  p.add_nogood({{4, 0}, {5, 0}});
  p.add_nogood({{0, 1}, {2, 1}});
  p.add_nogood({{1, 0}, {3, 1}});
  p.add_nogood({{0, 0}, {4, 1}, {5, 1}});
  p.add_nogood({{2, 0}, {3, 0}});
  p.add_nogood({{1, 1}, {5, 0}});
  const std::vector<AgentId> owner = {2, 0, 2, 1, 0, 2};
  DistributedProblem dp(p, owner);
  ASSERT_EQ(dp.num_agents(), 3);
  EXPECT_EQ(to_vector(dp.variables_of(0)), (std::vector<VarId>{1, 4}));
  EXPECT_EQ(to_vector(dp.variables_of(1)), (std::vector<VarId>{3}));
  EXPECT_EQ(to_vector(dp.variables_of(2)), (std::vector<VarId>{0, 2, 5}));
  for (AgentId a = 0; a < dp.num_agents(); ++a) {
    std::vector<std::uint32_t> nogoods;
    std::vector<AgentId> neighbors;
    for (std::uint32_t i = 0; i < p.num_nogoods(); ++i) {
      const NogoodView ng = p.nogood(i);
      const bool mine = std::any_of(ng.begin(), ng.end(), [&](const Assignment& x) {
        return owner[static_cast<std::size_t>(x.var)] == a;
      });
      if (!mine) continue;
      nogoods.push_back(i);
      for (const Assignment& x : ng) {
        const AgentId other = owner[static_cast<std::size_t>(x.var)];
        if (other != a && std::find(neighbors.begin(), neighbors.end(), other) == neighbors.end()) {
          neighbors.push_back(other);
        }
      }
    }
    std::sort(neighbors.begin(), neighbors.end());
    EXPECT_EQ(to_vector(dp.nogoods_of_agent(a)), nogoods) << "agent " << a;
    EXPECT_EQ(to_vector(dp.neighbors_of_agent(a)), neighbors) << "agent " << a;
  }
  EXPECT_EQ(to_vector(dp.nogoods_of_agent(2)), (std::vector<std::uint32_t>{0, 1, 3, 4, 5}));
  // A copy answers the same (its rows are offsets, not pointers).
  const DistributedProblem copy = dp;
  EXPECT_EQ(to_vector(copy.nogoods_of_agent(2)), to_vector(dp.nogoods_of_agent(2)));
  EXPECT_EQ(to_vector(copy.neighbors_of_agent(0)), to_vector(dp.neighbors_of_agent(0)));
}

TEST(DistributedProblem, OneVarPerAgentListsAreTheVariableLists) {
  const auto dp = DistributedProblem::one_var_per_agent(path_problem());
  for (AgentId a = 0; a < dp.num_agents(); ++a) {
    const auto agent = dp.nogoods_of_agent(a);
    const auto var = dp.problem().nogoods_of(dp.variable_of(a));
    EXPECT_EQ(agent.data(), var.data());
    EXPECT_EQ(agent.size(), var.size());
  }
}

}  // namespace
}  // namespace discsp
