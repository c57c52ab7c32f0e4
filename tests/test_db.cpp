// Distributed breakout: end-to-end solving, wave mechanics, weights.
#include <gtest/gtest.h>

#include "csp/validate.h"
#include "db/db_agent.h"
#include "db/db_solver.h"
#include "gen/coloring_gen.h"

namespace discsp {
namespace {

Problem even_cycle(int n) {
  Problem p;
  p.add_variables(n, 2);
  for (VarId u = 0; u < n; ++u) {
    const VarId v = static_cast<VarId>((u + 1) % n);
    for (Value c = 0; c < 2; ++c) p.add_nogood(Nogood{{u, c}, {v, c}});
  }
  return p;
}

TEST(Db, SolvesEvenCycleTwoColoring) {
  const Problem p = even_cycle(8);
  const auto dp = DistributedProblem::one_var_per_agent(p);
  db::DbSolver solver(dp);
  Rng rng(3);
  const auto result = solver.solve(solver.random_initial(rng), rng.derive(1));
  ASSERT_TRUE(result.metrics.solved);
  EXPECT_TRUE(validate_solution(p, result.assignment).ok);
}

TEST(Db, SolvesGeneratedColoringAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    const auto inst = gen::generate_coloring3(24, rng);
    const auto dp = gen::distribute(inst);
    db::DbSolver solver(dp);
    const auto result = solver.solve(solver.random_initial(rng), rng.derive(1));
    ASSERT_TRUE(result.metrics.solved) << "seed " << seed;
    EXPECT_TRUE(validate_solution(inst.problem, result.assignment).ok) << "seed " << seed;
  }
}

TEST(Db, AlreadySolvedCostsZeroCycles) {
  const Problem p = even_cycle(6);
  const auto dp = DistributedProblem::one_var_per_agent(p);
  db::DbSolver solver(dp);
  const FullAssignment initial{0, 1, 0, 1, 0, 1};
  const auto result = solver.solve(initial, Rng(5));
  EXPECT_TRUE(result.metrics.solved);
  EXPECT_EQ(result.metrics.cycles, 0);
  // The early return still folds the agents' counters: building the cost
  // engines is real work.
  std::uint64_t built_ops = 0;
  for (const auto& agent : solver.make_agents(initial, Rng(5))) {
    built_ops += agent->work_ops();
  }
  EXPECT_GT(built_ops, 0u);
  EXPECT_EQ(result.metrics.work_ops, built_ops);
}

TEST(Db, EachWaveIsOneCycle) {
  // From an unsolved start, the first possible fix lands after the ok? wave
  // (cycle 1) and the improve wave (cycle 2), then value changes are visible
  // in cycle 3's solution check => solved cycle count is odd and >= 3... but
  // the engine checks after each cycle, so the earliest is 3. Verify >= 3
  // and that DB pays more cycles than a repair needs values exchanged twice.
  const Problem p = even_cycle(4);
  const auto dp = DistributedProblem::one_var_per_agent(p);
  db::DbSolver solver(dp);
  const FullAssignment initial{0, 0, 1, 1};  // two violated edges
  const auto result = solver.solve(initial, Rng(7));
  ASSERT_TRUE(result.metrics.solved);
  EXPECT_GE(result.metrics.cycles, 3);
}

TEST(Db, DeterministicUnderFixedSeed) {
  Rng rng(11);
  const auto inst = gen::generate_coloring3(18, rng);
  const auto dp = gen::distribute(inst);
  db::DbSolver solver(dp);
  const auto initial = solver.solve(FullAssignment(18, 0), Rng(13));
  const auto repeat = solver.solve(FullAssignment(18, 0), Rng(13));
  EXPECT_EQ(initial.metrics.cycles, repeat.metrics.cycles);
  EXPECT_EQ(initial.assignment, repeat.assignment);
}

TEST(Db, CycleCapReported) {
  // Odd cycle with 2 colors is unsolvable; DB (incomplete) must hit the cap.
  Problem p;
  p.add_variables(3, 2);
  for (VarId u = 0; u < 3; ++u) {
    const VarId v = static_cast<VarId>((u + 1) % 3);
    for (Value c = 0; c < 2; ++c) p.add_nogood(Nogood{{u, c}, {v, c}});
  }
  const auto dp = DistributedProblem::one_var_per_agent(p);
  db::DbOptions options;
  options.max_cycles = 60;
  db::DbSolver solver(dp, options);
  Rng rng(17);
  const auto result = solver.solve(solver.random_initial(rng), rng.derive(1));
  EXPECT_FALSE(result.metrics.solved);
  EXPECT_TRUE(result.metrics.hit_cycle_cap);
}

TEST(DbAgent, WeightsStartAtOneAndOnlyGrow) {
  // Drive a 2-agent system where both are stuck: x0=x1 forced equal by
  // giving each the same domain value... simpler: two agents, constraint
  // forbids all four combinations except none => both always violated and
  // no improvement possible => quasi-local-minimum => weights grow.
  Problem p;
  p.add_variables(2, 1);  // single-value domains: no agent can ever move
  p.add_nogood(Nogood{{0, 0}, {1, 0}});
  const auto dp = DistributedProblem::one_var_per_agent(p);
  db::DbSolver solver(dp);
  std::vector<std::unique_ptr<sim::Agent>> agents = solver.make_agents({0, 0}, Rng(1));
  auto* agent0 = dynamic_cast<db::DbAgent*>(agents[0].get());
  ASSERT_NE(agent0, nullptr);
  EXPECT_EQ(agent0->weight_of(0), 1);

  sim::SyncEngine engine(dp.problem(), std::move(agents));
  const auto result = engine.run(20);
  EXPECT_FALSE(result.metrics.solved);
  // NOTE: agents were moved into the engine; re-fetch through the pointer we
  // kept (the engine owns them but they stay alive until engine destruction).
  EXPECT_GT(agent0->weight_of(0), 1) << "breakout must raise weights at a QLM";
}

}  // namespace
}  // namespace discsp
