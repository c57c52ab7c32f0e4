// End-to-end AWC behaviour on small problems: solutions, insolubility,
// learning strategies, and the metrics contract.
#include <gtest/gtest.h>

#include "awc/awc_solver.h"
#include "csp/validate.h"
#include "learning/mcs.h"
#include "learning/resolvent.h"
#include "solver/backtracking.h"

namespace discsp {
namespace {

/// Triangle 3-coloring: solvable, forces coordination.
Problem triangle_coloring() {
  Problem p;
  p.add_variables(3, 3);
  for (VarId u = 0; u < 3; ++u) {
    for (VarId v = static_cast<VarId>(u + 1); v < 3; ++v) {
      for (Value c = 0; c < 3; ++c) p.add_nogood(Nogood{{u, c}, {v, c}});
    }
  }
  return p;
}

/// K4 with 3 colors: insoluble.
Problem k4_three_colors() {
  Problem p;
  p.add_variables(4, 3);
  for (VarId u = 0; u < 4; ++u) {
    for (VarId v = static_cast<VarId>(u + 1); v < 4; ++v) {
      for (Value c = 0; c < 3; ++c) p.add_nogood(Nogood{{u, c}, {v, c}});
    }
  }
  return p;
}

sim::RunResult run_awc(const Problem& p, const learning::LearningStrategy& strategy,
                       std::uint64_t seed, int max_cycles = 10000) {
  auto dp = DistributedProblem::one_var_per_agent(p);
  awc::AwcOptions options;
  options.max_cycles = max_cycles;
  awc::AwcSolver solver(dp, strategy, options);
  Rng rng(seed);
  const FullAssignment initial = solver.random_initial(rng);
  return solver.solve(initial, rng);
}

TEST(Awc, SolvesTriangleWithResolventLearning) {
  const Problem p = triangle_coloring();
  const auto result = run_awc(p, learning::ResolventLearning{}, 1);
  ASSERT_TRUE(result.metrics.solved);
  EXPECT_TRUE(validate_solution(p, result.assignment).ok);
  EXPECT_FALSE(result.metrics.insoluble);
}

TEST(Awc, SolvesTriangleWithMcsLearning) {
  const Problem p = triangle_coloring();
  const auto result = run_awc(p, learning::McsLearning{}, 2);
  ASSERT_TRUE(result.metrics.solved);
  EXPECT_TRUE(validate_solution(p, result.assignment).ok);
}

TEST(Awc, SolvesTriangleWithoutLearning) {
  const Problem p = triangle_coloring();
  const auto result = run_awc(p, learning::NoLearning{}, 3);
  ASSERT_TRUE(result.metrics.solved);
  EXPECT_TRUE(validate_solution(p, result.assignment).ok);
}

TEST(Awc, DetectsK4InsolubleWithResolventLearning) {
  const Problem p = k4_three_colors();
  ASSERT_EQ(count_solutions(p, 1), 0u) << "test fixture must be insoluble";
  const auto result = run_awc(p, learning::ResolventLearning{}, 4);
  EXPECT_FALSE(result.metrics.solved);
  EXPECT_TRUE(result.metrics.insoluble)
      << "complete AWC must derive the empty nogood on K4/3";
}

TEST(Awc, AlreadySolvedInitialAssignmentCostsZeroCycles) {
  Problem p = triangle_coloring();
  auto dp = DistributedProblem::one_var_per_agent(p);
  awc::AwcSolver solver(dp, learning::ResolventLearning{});
  const FullAssignment initial{0, 1, 2};
  ASSERT_TRUE(p.is_solution(initial));
  const auto result = solver.solve(initial, Rng(7));
  EXPECT_TRUE(result.metrics.solved);
  EXPECT_EQ(result.metrics.cycles, 0);
  EXPECT_EQ(result.assignment, initial);
  // The early return still folds the agents' counters (their stores were
  // built before the solution check).
  std::uint64_t built_ops = 0;
  for (const auto& agent : solver.make_agents(initial, Rng(7))) {
    built_ops += agent->work_ops();
  }
  EXPECT_GT(built_ops, 0u);
  EXPECT_EQ(result.metrics.work_ops, built_ops);
}

TEST(Awc, DeterministicUnderFixedSeed) {
  const Problem p = triangle_coloring();
  const auto a = run_awc(p, learning::ResolventLearning{}, 42);
  const auto b = run_awc(p, learning::ResolventLearning{}, 42);
  EXPECT_EQ(a.metrics.cycles, b.metrics.cycles);
  EXPECT_EQ(a.metrics.maxcck, b.metrics.maxcck);
  EXPECT_EQ(a.assignment, b.assignment);
}

TEST(Awc, MaxcckNeverExceedsTotalChecks) {
  const Problem p = triangle_coloring();
  const auto result = run_awc(p, learning::ResolventLearning{}, 11);
  EXPECT_LE(result.metrics.maxcck, result.metrics.total_checks);
  EXPECT_GE(result.metrics.maxcck, 0u);
}

TEST(Awc, CycleCapIsHonored) {
  const Problem p = k4_three_colors();
  // No learning on an insoluble problem can neither solve nor prove
  // insolubility: it must run into the cap.
  const auto result = run_awc(p, learning::NoLearning{}, 5, /*max_cycles=*/50);
  EXPECT_FALSE(result.metrics.solved);
  EXPECT_FALSE(result.metrics.insoluble);
  EXPECT_TRUE(result.metrics.hit_cycle_cap);
  EXPECT_LE(result.metrics.cycles, 50);
}

TEST(Awc, LearningGeneratesNogoods) {
  const Problem p = k4_three_colors();
  const auto result = run_awc(p, learning::ResolventLearning{}, 6);
  EXPECT_GT(result.metrics.nogoods_generated, 0u);
}

TEST(Awc, EmptyProblemIsImmediatelySolved) {
  Problem p;
  p.add_variables(4, 2);  // no constraints at all
  const auto result = run_awc(p, learning::ResolventLearning{}, 8);
  EXPECT_TRUE(result.metrics.solved);
  EXPECT_EQ(result.metrics.cycles, 0);
}

TEST(Awc, UnaryNogoodsArePropagatedToInsolubility) {
  Problem p;
  p.add_variables(2, 2);
  // x0 can be neither 0 nor 1: insoluble via unary constraints alone.
  p.add_nogood(Nogood{{0, 0}});
  p.add_nogood(Nogood{{0, 1}});
  const auto result = run_awc(p, learning::ResolventLearning{}, 9);
  EXPECT_FALSE(result.metrics.solved);
  EXPECT_TRUE(result.metrics.insoluble);
}

TEST(Awc, SolvedAssignmentsAreAlwaysValidAcrossSeeds) {
  const Problem p = triangle_coloring();
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const auto result = run_awc(p, learning::ResolventLearning{}, seed);
    ASSERT_TRUE(result.metrics.solved) << "seed " << seed;
    ASSERT_TRUE(validate_solution(p, result.assignment).ok) << "seed " << seed;
  }
}

}  // namespace
}  // namespace discsp
