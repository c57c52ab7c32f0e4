// Cross-algorithm property sweeps over structured topologies: AWC, DB and
// ABT must agree with the centralized solver about solvability wherever
// they claim an answer, across rings, grids and cliques.
#include <gtest/gtest.h>

#include "abt/abt_solver.h"
#include "awc/awc_solver.h"
#include "csp/modeling.h"
#include "csp/validate.h"
#include "db/db_solver.h"
#include "gen/topologies.h"
#include "learning/resolvent.h"
#include "solver/backtracking.h"

namespace discsp {
namespace {

struct TopologyCase {
  const char* name;
  gen::EdgeList edges;
  int n;
  int colors;
  bool solvable;
};

// Without this, gtest names each case by a byte dump of the struct, which
// holds pointers and so changes from one process to the next.
void PrintTo(const TopologyCase& tc, std::ostream* os) {
  *os << tc.name << (tc.solvable ? "/solvable" : "/unsolvable");
}

std::vector<TopologyCase> topology_cases() {
  return {
      {"ring7_3c", gen::ring_edges(7), 7, 3, true},
      {"ring8_2c", gen::ring_edges(8), 8, 2, true},
      {"ring7_2c", gen::ring_edges(7), 7, 2, false},
      {"grid3x4_2c", gen::grid_edges(3, 4), 12, 2, true},
      {"grid3x3_3c", gen::grid_edges(3, 3), 9, 3, true},
      {"k4_3c", gen::complete_edges(4), 4, 3, false},
      {"k4_4c", gen::complete_edges(4), 4, 4, true},
      {"k5_4c", gen::complete_edges(5), 5, 4, false},
  };
}

class TopologySweep : public ::testing::TestWithParam<TopologyCase> {};

TEST_P(TopologySweep, GroundTruthMatchesDeclaredSolvability) {
  const auto& tc = GetParam();
  const Problem p = model::coloring_problem(tc.n, tc.colors, tc.edges);
  EXPECT_EQ(solve_backtracking(p).has_value(), tc.solvable);
}

TEST_P(TopologySweep, AwcAgreesWithGroundTruth) {
  const auto& tc = GetParam();
  const Problem p = model::coloring_problem(tc.n, tc.colors, tc.edges);
  const auto dp = DistributedProblem::one_var_per_agent(p);
  awc::AwcSolver solver(dp, learning::ResolventLearning{});
  Rng rng(41);
  const auto result = solver.solve(solver.random_initial(rng), rng.derive(1));
  if (tc.solvable) {
    ASSERT_TRUE(result.metrics.solved);
    EXPECT_TRUE(validate_solution(p, result.assignment).ok);
  } else {
    EXPECT_FALSE(result.metrics.solved);
    EXPECT_TRUE(result.metrics.insoluble)
        << "complete AWC must refute " << tc.name;
  }
}

TEST_P(TopologySweep, AbtAgreesWithGroundTruth) {
  const auto& tc = GetParam();
  const Problem p = model::coloring_problem(tc.n, tc.colors, tc.edges);
  const auto dp = DistributedProblem::one_var_per_agent(p);
  abt::AbtOptions options;
  options.use_resolvent = true;
  abt::AbtSolver solver(dp, options);
  Rng rng(43);
  const auto result = solver.solve(solver.random_initial(rng), rng.derive(1));
  if (tc.solvable) {
    ASSERT_TRUE(result.metrics.solved);
    EXPECT_TRUE(validate_solution(p, result.assignment).ok);
  } else {
    EXPECT_TRUE(result.metrics.insoluble);
  }
}

TEST_P(TopologySweep, DbSolvesTheSolvableOnes) {
  const auto& tc = GetParam();
  if (!tc.solvable) return;  // DB is incomplete by design; nothing to assert
  const Problem p = model::coloring_problem(tc.n, tc.colors, tc.edges);
  const auto dp = DistributedProblem::one_var_per_agent(p);
  db::DbSolver solver(dp);
  Rng rng(47);
  const auto result = solver.solve(solver.random_initial(rng), rng.derive(1));
  ASSERT_TRUE(result.metrics.solved) << tc.name;
  EXPECT_TRUE(validate_solution(p, result.assignment).ok);
}

INSTANTIATE_TEST_SUITE_P(Topologies, TopologySweep,
                         ::testing::ValuesIn(topology_cases()),
                         [](const ::testing::TestParamInfo<TopologyCase>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace discsp

// Distributed SAT agreement with the DPLL ground truth on small random
// formulas spanning satisfiable and unsatisfiable draws.
#include "gen/topologies.h"
#include "sat/cnf_to_csp.h"
#include "solver/model_counter.h"

namespace discsp {
namespace {

TEST(AwcSatAgreement, MatchesDpllAcrossRandomFormulas) {
  int sat_seen = 0, unsat_seen = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    // Ratio ~5.5: past the phase transition, so both outcomes occur.
    const auto cnf = gen::random_ksat(10, 55, 3, rng);
    const bool satisfiable = sat::is_satisfiable(cnf);
    (satisfiable ? sat_seen : unsat_seen) += 1;

    const auto dp = sat::to_distributed(cnf);
    awc::AwcSolver solver(dp, learning::ResolventLearning{});
    const auto result = solver.solve(solver.random_initial(rng), rng.derive(1));
    if (satisfiable) {
      ASSERT_TRUE(result.metrics.solved) << "seed " << seed;
      std::vector<Value> model = result.assignment;
      EXPECT_TRUE(cnf.satisfied_by(model)) << "seed " << seed;
    } else {
      EXPECT_FALSE(result.metrics.solved) << "seed " << seed;
      EXPECT_TRUE(result.metrics.insoluble) << "seed " << seed;
    }
  }
  EXPECT_GT(unsat_seen, 0) << "the sweep must include refutation cases";
}

}  // namespace
}  // namespace discsp
