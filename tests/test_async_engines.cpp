// Asynchronous engine: the same AWC and DB agents must solve under random
// message delays (FIFO per channel) — the paper's §5 claim that the
// algorithms are asynchronous-system-ready. Real-thread runs of the same
// agents are the serve tests (test_net_loopback.cpp).
#include <gtest/gtest.h>

#include "awc/awc_solver.h"
#include "csp/validate.h"
#include "db/db_solver.h"
#include "gen/coloring_gen.h"
#include "learning/resolvent.h"
#include "sim/async_engine.h"

namespace discsp {
namespace {

struct Fixture {
  gen::ColoringInstance instance;
  DistributedProblem dp;

  explicit Fixture(int n, std::uint64_t seed) : instance(make(n, seed)),
        dp(gen::distribute(instance)) {}

  static gen::ColoringInstance make(int n, std::uint64_t seed) {
    Rng rng(seed);
    return gen::generate_coloring3(n, rng);
  }
};

TEST(AsyncEngine, AwcSolvesUnderRandomDelays) {
  Fixture f(20, 11);
  awc::AwcSolver solver(f.dp, learning::ResolventLearning{});
  Rng rng(3);
  const auto initial = solver.random_initial(rng);

  sim::AsyncConfig config;
  config.min_delay = 1;
  config.max_delay = 20;
  sim::AsyncEngine engine(f.dp.problem(), solver.make_agents(initial, rng.derive(1)),
                          config, rng.derive(2));
  const auto result = engine.run();
  ASSERT_TRUE(result.metrics.solved);
  EXPECT_TRUE(validate_solution(f.instance.problem, result.assignment).ok);
  EXPECT_GT(engine.virtual_time(), 0);
}

TEST(AsyncEngine, DeterministicGivenSeeds) {
  Fixture f(15, 13);
  awc::AwcSolver solver(f.dp, learning::ResolventLearning{});
  Rng rng(5);
  const auto initial = solver.random_initial(rng);

  auto run_once = [&]() {
    sim::AsyncConfig config;
    sim::AsyncEngine engine(f.dp.problem(), solver.make_agents(initial, Rng(77)),
                            config, Rng(88));
    return engine.run();
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.metrics.cycles, b.metrics.cycles);
  EXPECT_EQ(a.assignment, b.assignment);
}

TEST(AsyncEngine, DbSolvesUnderRandomDelays) {
  // DB's wave protocol self-synchronizes; random delays must not deadlock it.
  Fixture f(12, 17);
  db::DbSolver solver(f.dp);
  Rng rng(7);
  const auto initial = solver.random_initial(rng);

  sim::AsyncConfig config;
  config.min_delay = 1;
  config.max_delay = 15;
  sim::AsyncEngine engine(f.dp.problem(), solver.make_agents(initial, rng.derive(1)),
                          config, rng.derive(2));
  const auto result = engine.run();
  ASSERT_TRUE(result.metrics.solved);
  EXPECT_TRUE(validate_solution(f.instance.problem, result.assignment).ok);
}

TEST(AsyncEngine, RejectsBadDelayConfig) {
  Fixture f(12, 19);
  awc::AwcSolver solver(f.dp, learning::ResolventLearning{});
  Rng rng(9);
  const auto initial = solver.random_initial(rng);
  sim::AsyncConfig config;
  config.min_delay = 5;
  config.max_delay = 2;
  EXPECT_THROW(sim::AsyncEngine(f.dp.problem(),
                                solver.make_agents(initial, rng.derive(1)), config,
                                rng.derive(2)),
               std::invalid_argument);
}

TEST(AsyncEngine, AwcRefutesInsolubleUnderDelays) {
  // K4 with 3 colors: the empty nogood must be derived even with messages
  // arriving out of lockstep.
  Problem p;
  p.add_variables(4, 3);
  for (VarId u = 0; u < 4; ++u) {
    for (VarId v = static_cast<VarId>(u + 1); v < 4; ++v) {
      for (Value c = 0; c < 3; ++c) p.add_nogood(Nogood{{u, c}, {v, c}});
    }
  }
  const auto dp = DistributedProblem::one_var_per_agent(p);
  awc::AwcSolver solver(dp, learning::ResolventLearning{});
  Rng rng(37);
  const auto initial = solver.random_initial(rng);
  sim::AsyncConfig config;
  config.min_delay = 1;
  config.max_delay = 12;
  sim::AsyncEngine engine(p, solver.make_agents(initial, rng.derive(1)), config,
                          rng.derive(2));
  const auto result = engine.run();
  EXPECT_FALSE(result.metrics.solved);
  EXPECT_TRUE(result.metrics.insoluble);
}

TEST(AsyncEngine, LargerDelaySpreadStillSolves) {
  Fixture f(18, 41);
  awc::AwcSolver solver(f.dp, learning::ResolventLearning{});
  Rng rng(43);
  const auto initial = solver.random_initial(rng);
  for (int max_delay : {1, 5, 50}) {
    sim::AsyncConfig config;
    config.min_delay = 1;
    config.max_delay = max_delay;
    sim::AsyncEngine engine(f.dp.problem(), solver.make_agents(initial, rng.derive(1)),
                            config, rng.derive(static_cast<std::uint64_t>(max_delay)));
    const auto result = engine.run();
    ASSERT_TRUE(result.metrics.solved) << "max_delay=" << max_delay;
    EXPECT_TRUE(validate_solution(f.instance.problem, result.assignment).ok);
  }
}

}  // namespace
}  // namespace discsp
