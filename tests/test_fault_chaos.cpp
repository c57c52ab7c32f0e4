// Chaos property tests: the hardened AWC/DB protocols must keep their
// guarantees when the fault layer (sim/fault.h) drops, duplicates and
// reorders messages or crash-restarts agents.
//
// Key properties:
//  - solutions reported under faults always validate (no phantom success);
//  - a solvable instance is never reported insoluble (faults must not fake
//    an empty nogood);
//  - the ISSUE acceptance bar: 10% drop + 5% duplication on n=30 3-coloring,
//    AWC with resolvent learning still solves >= 95% of trials;
//  - an insoluble instance is still *proved* insoluble under drops (the
//    heartbeat repairs lost nogood messages);
//  - fault-free FaultConfig is bit-identical to no fault layer at all.
#include <gtest/gtest.h>

#include <memory>

#include "awc/awc_solver.h"
#include "csp/distributed_problem.h"
#include "csp/validate.h"
#include "db/db_solver.h"
#include "gen/coloring_gen.h"
#include "learning/resolvent.h"
#include "sim/async_engine.h"

namespace discsp {
namespace {

sim::RunResult run_awc_async(const DistributedProblem& dp,
                             const FullAssignment& initial, std::uint64_t seed,
                             const sim::FaultConfig& faults,
                             std::uint64_t max_activations = 2'000'000) {
  awc::AwcSolver solver(dp, learning::ResolventLearning{});
  sim::AsyncConfig config;
  config.max_activations = max_activations;
  config.faults = faults;
  Rng rng(seed);
  sim::AsyncEngine engine(dp.problem(), solver.make_agents(initial, rng.derive(1)),
                          config, rng.derive(2));
  return engine.run();
}

TEST(FaultChaos, AcceptanceBarDropAndDuplicate) {
  // ISSUE acceptance criterion: under 10% drop + 5% duplication with fixed
  // seeds, AWC/resolvent solves >= 95% of n=30 3-coloring trials, each
  // reported solution validates, and fault counters surface in the metrics.
  constexpr int kTrials = 20;
  int solved = 0;
  bool counters_seen = false;
  for (int t = 0; t < kTrials; ++t) {
    const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(t);
    Rng rng(seed);
    const auto instance = gen::generate_coloring3(30, rng);
    const auto dp = gen::distribute(instance);
    FullAssignment initial(30);
    for (auto& v : initial) v = static_cast<Value>(rng.index(3));

    sim::FaultConfig faults;
    faults.drop_rate = 0.10;
    faults.duplicate_rate = 0.05;
    faults.refresh_interval = 50;
    faults.seed = seed * 31 + 7;

    const sim::RunResult result = run_awc_async(dp, initial, seed, faults);
    EXPECT_FALSE(result.metrics.insoluble) << "trial " << t;
    if (result.metrics.faults.dropped > 0 && result.metrics.faults.duplicated > 0) {
      counters_seen = true;
    }
    if (result.metrics.solved) {
      ++solved;
      EXPECT_TRUE(validate_solution(instance.problem, result.assignment).ok)
          << "trial " << t;
    }
  }
  EXPECT_GE(solved, (kTrials * 95 + 99) / 100)
      << "solve rate under 10% drop + 5% duplication fell below 95%";
  EXPECT_TRUE(counters_seen) << "fault counters never surfaced in RunMetrics";
}

TEST(FaultChaos, SweepNeverFakesInsolubility) {
  // Across a grid of fault rates and seeds, a solvable coloring instance
  // must never be "proved" insoluble, and any solution must validate.
  const struct {
    double drop, duplicate, reorder;
  } points[] = {
      {0.05, 0.0, 0.0}, {0.0, 0.2, 0.0}, {0.0, 0.0, 0.3}, {0.1, 0.1, 0.1},
  };
  for (const auto& pt : points) {
    for (std::uint64_t seed : {11u, 22u, 33u}) {
      Rng rng(seed);
      const auto instance = gen::generate_coloring3(12, rng);
      const auto dp = gen::distribute(instance);
      FullAssignment initial(12);
      for (auto& v : initial) v = static_cast<Value>(rng.index(3));

      sim::FaultConfig faults;
      faults.drop_rate = pt.drop;
      faults.duplicate_rate = pt.duplicate;
      faults.reorder_rate = pt.reorder;
      faults.refresh_interval = 40;
      faults.seed = seed + 5;

      const sim::RunResult result = run_awc_async(dp, initial, seed, faults);
      ASSERT_FALSE(result.metrics.insoluble)
          << "solvable instance reported insoluble at drop=" << pt.drop
          << " dup=" << pt.duplicate << " reorder=" << pt.reorder
          << " seed=" << seed;
      if (result.metrics.solved) {
        EXPECT_TRUE(validate_solution(instance.problem, result.assignment).ok);
      }
    }
  }
}

TEST(FaultChaos, InsolubilityStillProvedUnderDrops) {
  // K4 with 3 colors is insoluble; resolvent learning derives the empty
  // nogood. Dropped nogood messages would deadlock the derivation were it
  // not for the heartbeat re-sending the last generated nogood.
  Problem p;
  p.add_variables(4, 3);
  for (VarId u = 0; u < 4; ++u) {
    for (VarId v = static_cast<VarId>(u + 1); v < 4; ++v) {
      for (Value c = 0; c < 3; ++c) p.add_nogood(Nogood{{u, c}, {v, c}});
    }
  }
  const auto dp = DistributedProblem::one_var_per_agent(p);
  for (std::uint64_t seed : {3u, 17u, 29u}) {
    FullAssignment initial{0, 1, 2, 0};
    sim::FaultConfig faults;
    faults.drop_rate = 0.15;
    faults.refresh_interval = 25;
    faults.seed = seed;
    const sim::RunResult result = run_awc_async(dp, initial, seed, faults);
    EXPECT_TRUE(result.metrics.insoluble) << "seed " << seed;
    EXPECT_FALSE(result.metrics.solved) << "seed " << seed;
  }
}

TEST(FaultChaos, CrashRestartsStillSolve) {
  Rng rng(404);
  const auto instance = gen::generate_coloring3(15, rng);
  const auto dp = gen::distribute(instance);
  FullAssignment initial(15);
  for (auto& v : initial) v = static_cast<Value>(rng.index(3));

  sim::FaultConfig faults;
  faults.crash_rate = 0.002;
  faults.max_crashes_per_agent = 2;
  faults.refresh_interval = 50;
  faults.seed = 9;
  const sim::RunResult result = run_awc_async(dp, initial, 404, faults);
  ASSERT_TRUE(result.metrics.solved);
  EXPECT_TRUE(validate_solution(instance.problem, result.assignment).ok);
  EXPECT_GT(result.metrics.faults.crashes, 0u);
}

TEST(FaultChaos, DbSolvesUnderDuplicationAndReordering) {
  // DB's two-wave protocol desynchronizes under duplicates when waves are
  // counted by arrival; the round-based accounting must not.
  Rng rng(77);
  const auto instance = gen::generate_coloring3(12, rng);
  const auto dp = gen::distribute(instance);
  FullAssignment initial(12);
  for (auto& v : initial) v = static_cast<Value>(rng.index(3));

  db::DbSolver solver(dp);
  sim::AsyncConfig config;
  config.max_activations = 2'000'000;
  config.faults.duplicate_rate = 0.2;
  config.faults.reorder_rate = 0.2;
  config.faults.refresh_interval = 60;
  config.faults.seed = 5151;
  sim::AsyncEngine engine(dp.problem(), solver.make_agents(initial, rng.derive(1)),
                          config, rng.derive(2));
  const sim::RunResult result = engine.run();
  ASSERT_TRUE(result.metrics.solved);
  EXPECT_TRUE(validate_solution(instance.problem, result.assignment).ok);
  EXPECT_GT(result.metrics.faults.duplicated, 0u);
}

TEST(FaultChaos, DisabledFaultConfigIsBitIdentical) {
  // The acceptance criterion's "bit-identical when disabled": passing an
  // all-zero FaultConfig must leave cycles, maxcck and messages exactly as
  // an engine with no fault layer at all.
  Rng rng(123);
  const auto instance = gen::generate_coloring3(14, rng);
  const auto dp = gen::distribute(instance);
  awc::AwcSolver solver(dp, learning::ResolventLearning{});
  const FullAssignment initial = solver.random_initial(rng);

  sim::AsyncConfig plain;
  sim::AsyncConfig zeroed;
  zeroed.faults = sim::FaultConfig{};  // explicit but disabled
  ASSERT_FALSE(zeroed.faults.enabled());

  sim::AsyncEngine engine_a(dp.problem(), solver.make_agents(initial, rng.derive(1)),
                            plain, Rng(555));
  sim::AsyncEngine engine_b(dp.problem(), solver.make_agents(initial, rng.derive(1)),
                            zeroed, Rng(555));
  const sim::RunResult a = engine_a.run();
  const sim::RunResult b = engine_b.run();
  EXPECT_EQ(a.metrics.cycles, b.metrics.cycles);
  EXPECT_EQ(a.metrics.maxcck, b.metrics.maxcck);
  EXPECT_EQ(a.metrics.messages, b.metrics.messages);
  EXPECT_EQ(a.metrics.total_checks, b.metrics.total_checks);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(b.metrics.heartbeats, 0u);
  EXPECT_EQ(b.metrics.refresh_messages, 0u);
}

}  // namespace
}  // namespace discsp
