// Clause <-> nogood conversion: the encoding the paper's distributed 3SAT
// experiments rely on.
#include <gtest/gtest.h>

#include "sat/cnf_to_csp.h"
#include "solver/backtracking.h"
#include "solver/model_counter.h"

namespace discsp::sat {
namespace {

TEST(CnfToCsp, ClauseBecomesFalsifyingNogood) {
  Cnf cnf(3);
  cnf.add_clause({Lit(0, true), Lit(1, false), Lit(2, true)});
  const Problem p = to_problem(cnf);
  ASSERT_EQ(p.num_nogoods(), 1u);
  // (x0 v ~x1 v x2) is falsified exactly by x0=0, x1=1, x2=0.
  EXPECT_EQ(p.nogoods()[0], (Nogood{{0, 0}, {1, 1}, {2, 0}}));
  EXPECT_EQ(p.num_variables(), 3);
  for (VarId v = 0; v < 3; ++v) EXPECT_EQ(p.domain_size(v), 2);
}

TEST(CnfToCsp, TautologiesAreDropped) {
  Cnf cnf(2);
  cnf.add_clause({Lit(0, true), Lit(0, false)});
  EXPECT_EQ(to_problem(cnf).num_nogoods(), 0u);
}

TEST(CnfToCsp, SolutionSetsAgree) {
  Cnf cnf(4);
  cnf.add_clause({Lit(0, true), Lit(1, true)});
  cnf.add_clause({Lit(1, false), Lit(2, true)});
  cnf.add_clause({Lit(2, false), Lit(3, false)});
  const Problem p = to_problem(cnf);
  EXPECT_EQ(count_solutions(p), count_models(cnf));
  // Every CSP solution satisfies the CNF and vice versa (spot check).
  const auto csp_solution = solve_backtracking(p);
  ASSERT_TRUE(csp_solution.has_value());
  EXPECT_TRUE(cnf.satisfied_by(*csp_solution));
}

TEST(CnfToCsp, RoundTripThroughToCnf) {
  Cnf cnf(3);
  cnf.add_clause({Lit(0, true), Lit(2, false)});
  cnf.add_clause({Lit(1, false)});
  const Cnf back = to_cnf(to_problem(cnf));
  EXPECT_EQ(back.num_vars(), cnf.num_vars());
  ASSERT_EQ(back.num_clauses(), cnf.num_clauses());
  for (ClauseView c : cnf.clauses()) EXPECT_TRUE(back.contains(c));
}

TEST(CnfToCsp, ToCnfRejectsNonBooleanDomains) {
  Problem p;
  p.add_variable(3);
  EXPECT_THROW(to_cnf(p), std::invalid_argument);
}

TEST(CnfToCsp, DistributedVersionIsOneVarPerAgent) {
  Cnf cnf(5);
  cnf.add_clause({Lit(0, true), Lit(4, false)});
  const auto dp = to_distributed(cnf);
  EXPECT_TRUE(dp.is_one_var_per_agent());
  EXPECT_EQ(dp.num_agents(), 5);
  const auto neighbors = dp.neighbors_of_agent(0);
  EXPECT_EQ(std::vector<AgentId>(neighbors.begin(), neighbors.end()), (std::vector<AgentId>{4}));
}

TEST(CnfToCsp, EmptyClauseBecomesEmptyNogood) {
  Cnf cnf(1);
  cnf.add_clause(Clause{});
  const Problem p = to_problem(cnf);
  EXPECT_TRUE(p.has_empty_nogood());
}

}  // namespace
}  // namespace discsp::sat
