// Correlated partition episodes (sim/fault.h PartitionSchedule), the online
// invariant monitor (sim/monitor.h), and repro bundles (analysis/repro.h).
//
// Key properties:
//  - PartitionSchedule is a pure function of (seed, episode, agent): severed
//    is symmetric, only open windows cut traffic, and an inactive schedule
//    never does;
//  - the ISSUE acceptance bar: episodic 2-way partitions on n=30 3-coloring
//    with retransmit + heartbeats, AWC/resolvent still solves >= 95% of
//    trials with zero monitor violations;
//  - an empty schedule leaves a faulty config's per-channel random streams
//    untouched: metrics are bit-identical with and without partition knobs;
//  - enabling the monitor on a fault-free run changes nothing (acceptance
//    criterion: all fault knobs zero + monitor on == plain run, bit for bit);
//  - the monitor catches a manufactured soundness breach (insolubility
//    "proved" against a claimed witness);
//  - a ReproBundle round-trips through its text format and replays
//    bit-identically, which is what makes `discsp_cli repro` trustworthy.
#include <gtest/gtest.h>

#include <sstream>

#include "analysis/repro.h"
#include "awc/awc_solver.h"
#include "csp/distributed_problem.h"
#include "csp/serialize.h"
#include "csp/validate.h"
#include "gen/coloring_gen.h"
#include "learning/resolvent.h"
#include "sim/async_engine.h"
#include "sim/fault.h"

namespace discsp {
namespace {

sim::RunResult run_awc_async(const DistributedProblem& dp,
                             const FullAssignment& initial, std::uint64_t seed,
                             const sim::AsyncConfig& config) {
  awc::AwcSolver solver(dp, learning::ResolventLearning{});
  Rng rng(seed);
  sim::AsyncEngine engine(dp.problem(), solver.make_agents(initial, rng.derive(1)),
                          config, rng.derive(2));
  return engine.run();
}

TEST(PartitionSchedule, GroupAssignmentIsDeterministicAndInRange) {
  const sim::PartitionSchedule schedule(42, 100, 40, 3);
  ASSERT_TRUE(schedule.active());
  for (std::int64_t episode = 0; episode < 8; ++episode) {
    for (AgentId agent = 0; agent < 20; ++agent) {
      const int g = schedule.group_of(episode, agent);
      EXPECT_GE(g, 0);
      EXPECT_LT(g, 3);
      EXPECT_EQ(g, schedule.group_of(episode, agent)) << "not deterministic";
      const sim::PartitionSchedule same(42, 100, 40, 3);
      EXPECT_EQ(g, same.group_of(episode, agent)) << "not a pure function of seed";
    }
  }
  // Different seeds and different episodes must be able to produce different
  // cuts (otherwise every episode would isolate the same agents).
  bool episodes_differ = false;
  for (AgentId agent = 0; agent < 20 && !episodes_differ; ++agent) {
    episodes_differ = schedule.group_of(0, agent) != schedule.group_of(1, agent);
  }
  EXPECT_TRUE(episodes_differ);
}

TEST(PartitionSchedule, SeveredOnlyInsideOpenWindowsAndSymmetric) {
  const sim::PartitionSchedule schedule(7, 100, 40, 2);
  // Window k covers [100k, 100k + 40).
  EXPECT_EQ(schedule.episode_at(0), 0);
  EXPECT_EQ(schedule.episode_at(39), 0);
  EXPECT_EQ(schedule.episode_at(40), -1);
  EXPECT_EQ(schedule.episode_at(99), -1);
  EXPECT_EQ(schedule.episode_at(100), 1);
  EXPECT_EQ(schedule.episode_at(139), 1);
  EXPECT_EQ(schedule.episode_at(140), -1);

  bool severed_somewhere = false;
  for (AgentId a = 0; a < 12; ++a) {
    for (AgentId b = 0; b < 12; ++b) {
      EXPECT_EQ(schedule.severed(a, b, 20), schedule.severed(b, a, 20))
          << "cut must be symmetric";
      EXPECT_FALSE(schedule.severed(a, b, 50)) << "no cut between windows";
      if (schedule.severed(a, b, 20)) severed_somewhere = true;
      EXPECT_FALSE(schedule.severed(a, a, 20)) << "an agent reaches itself";
    }
  }
  EXPECT_TRUE(severed_somewhere) << "a 2-way split of 12 agents must cut something";
}

TEST(PartitionSchedule, InactiveScheduleNeverCuts) {
  for (const sim::PartitionSchedule schedule :
       {sim::PartitionSchedule(1, 0, 40, 2), sim::PartitionSchedule(1, 100, 0, 2),
        sim::PartitionSchedule(1, 100, 40, 1), sim::PartitionSchedule()}) {
    EXPECT_FALSE(schedule.active());
    for (std::int64_t now : {0, 10, 120}) {
      for (AgentId a = 0; a < 6; ++a) {
        for (AgentId b = 0; b < 6; ++b) {
          EXPECT_FALSE(schedule.severed(a, b, now));
        }
      }
    }
  }
}

TEST(PartitionChaos, AcceptanceBarEpisodicTwoWayPartitions) {
  // ISSUE acceptance bar: episodic 2-way partitions with retransmit and
  // heartbeats; AWC/resolvent solves >= 95% of n=30 trials, every solution
  // validates, partitions actually fire, and the monitor sees no violation.
  constexpr int kTrials = 20;
  int solved = 0;
  std::uint64_t partition_drops = 0;
  std::uint64_t violations = 0;
  for (int t = 0; t < kTrials; ++t) {
    const std::uint64_t seed = 2100 + static_cast<std::uint64_t>(t);
    Rng rng(seed);
    const auto instance = gen::generate_coloring3(30, rng);
    const auto dp = gen::distribute(instance);
    FullAssignment initial(30);
    for (auto& v : initial) v = static_cast<Value>(rng.index(3));

    sim::AsyncConfig config;
    config.faults.partition_interval = 400;
    config.faults.partition_duration = 150;
    config.faults.partition_groups = 2;
    config.faults.refresh_interval = 50;
    config.faults.seed = seed * 13 + 3;
    config.retransmit.ack_timeout = 40;
    config.monitor.enabled = true;
    config.monitor.planted = instance.planted;

    const sim::RunResult result = run_awc_async(dp, initial, seed, config);
    EXPECT_FALSE(result.metrics.insoluble) << "trial " << t;
    partition_drops += result.metrics.faults.partition_drops;
    violations += result.metrics.monitor.violations;
    EXPECT_GT(result.metrics.monitor.checks, 0u) << "monitor never ran";
    if (result.metrics.solved) {
      ++solved;
      EXPECT_TRUE(validate_solution(instance.problem, result.assignment).ok)
          << "trial " << t;
    }
  }
  EXPECT_GE(solved, (kTrials * 95 + 99) / 100)
      << "solve rate under episodic partitions fell below 95%";
  EXPECT_GT(partition_drops, 0u) << "partitions never severed a message";
  EXPECT_EQ(violations, 0u);
}

TEST(PartitionChaos, EmptyScheduleIsBitIdenticalToNoPartitionKnobs) {
  // The stream-alignment guarantee: partition membership consumes no channel
  // stream state, so a config whose schedule never opens a window must give
  // exactly the run of the same config without partition knobs at all.
  Rng rng(314);
  const auto instance = gen::generate_coloring3(14, rng);
  const auto dp = gen::distribute(instance);
  awc::AwcSolver solver(dp, learning::ResolventLearning{});
  const FullAssignment initial = solver.random_initial(rng);

  sim::AsyncConfig base;
  base.faults.drop_rate = 0.08;
  base.faults.duplicate_rate = 0.04;
  base.faults.refresh_interval = 50;
  base.faults.seed = 777;

  sim::AsyncConfig with_empty_schedule = base;
  with_empty_schedule.faults.partition_interval = 0;  // schedule never opens
  with_empty_schedule.faults.partition_duration = 0;

  const sim::RunResult a = run_awc_async(dp, initial, 999, base);
  const sim::RunResult b = run_awc_async(dp, initial, 999, with_empty_schedule);
  EXPECT_EQ(a.metrics.cycles, b.metrics.cycles);
  EXPECT_EQ(a.metrics.maxcck, b.metrics.maxcck);
  EXPECT_EQ(a.metrics.messages, b.metrics.messages);
  EXPECT_EQ(a.metrics.total_checks, b.metrics.total_checks);
  EXPECT_EQ(a.metrics.faults.dropped, b.metrics.faults.dropped);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(b.metrics.faults.partition_drops, 0u);
}

TEST(PartitionChaos, MonitorOnFaultFreeRunIsBitIdentical) {
  // Acceptance criterion: all fault knobs at zero and the monitor enabled,
  // the paper metrics are bit-identical to a plain engine run.
  Rng rng(2718);
  const auto instance = gen::generate_coloring3(16, rng);
  const auto dp = gen::distribute(instance);
  awc::AwcSolver solver(dp, learning::ResolventLearning{});
  const FullAssignment initial = solver.random_initial(rng);

  sim::AsyncConfig plain;
  sim::AsyncConfig monitored;
  monitored.monitor.enabled = true;
  monitored.monitor.planted = instance.planted;
  monitored.monitor.stall_window = 500;
  ASSERT_FALSE(monitored.faults.enabled());

  const sim::RunResult a = run_awc_async(dp, initial, 4242, plain);
  const sim::RunResult b = run_awc_async(dp, initial, 4242, monitored);
  EXPECT_EQ(a.metrics.cycles, b.metrics.cycles);
  EXPECT_EQ(a.metrics.maxcck, b.metrics.maxcck);
  EXPECT_EQ(a.metrics.messages, b.metrics.messages);
  EXPECT_EQ(a.metrics.total_checks, b.metrics.total_checks);
  EXPECT_EQ(a.metrics.work_ops, b.metrics.work_ops);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_GT(b.metrics.monitor.checks, 0u);
  EXPECT_EQ(b.metrics.monitor.violations, 0u);
  EXPECT_EQ(a.metrics.monitor.checks, 0u) << "disabled monitor must not run";
}

TEST(MonitorOracle, FlagsFalseInsolubilityAgainstClaimedWitness) {
  // K4 with 3 colors is genuinely insoluble; claiming a planted witness for
  // it manufactures exactly the soundness breach the monitor exists to
  // catch. It must flag both the nogood that "excludes" the witness and the
  // insolubility report, while leaving the run's outcome untouched.
  Problem p;
  p.add_variables(4, 3);
  for (VarId u = 0; u < 4; ++u) {
    for (VarId v = static_cast<VarId>(u + 1); v < 4; ++v) {
      for (Value c = 0; c < 3; ++c) p.add_nogood(Nogood{{u, c}, {v, c}});
    }
  }
  const auto dp = DistributedProblem::one_var_per_agent(p);
  const FullAssignment initial{0, 1, 2, 0};

  sim::AsyncConfig config;
  config.monitor.enabled = true;
  config.monitor.planted = {0, 1, 2, 0};  // a lie: K4 has no 3-coloring
  config.monitor.max_reports = 256;       // keep the insolubility report in range

  const sim::RunResult result = run_awc_async(dp, initial, 11, config);
  ASSERT_TRUE(result.metrics.insoluble) << "K4 must still be proved insoluble";
  EXPECT_GT(result.metrics.monitor.violations, 0u)
      << "the monitor missed a false-insolubility breach";
  ASSERT_FALSE(result.metrics.monitor.reports.empty());
  bool saw_insolubility_report = false;
  for (const std::string& report : result.metrics.monitor.reports) {
    if (report.find("false-insolubility") != std::string::npos) {
      saw_insolubility_report = true;
    }
  }
  EXPECT_TRUE(saw_insolubility_report) << "no false-insolubility report recorded";
}

TEST(ReproBundle, RoundTripsThroughTextFormat) {
  Rng rng(515);
  const auto instance = gen::generate_coloring3(12, rng);

  analysis::ReproBundle bundle;
  bundle.algo = "awc";
  bundle.strategy = "Rslv";
  bundle.seed = 0xdeadbeefULL;
  bundle.max_activations = 123456;
  bundle.faults.drop_rate = 0.125;
  bundle.faults.corrupt_rate = 0.01;
  bundle.faults.partition_interval = 400;
  bundle.faults.partition_duration = 150;
  bundle.faults.quarantine_budget = 4;
  bundle.faults.seed = 918273;
  bundle.retransmit.ack_timeout = 40;
  bundle.nogood_capacity = 64;
  bundle.journal = true;
  bundle.checkpoint_interval = 32;
  bundle.incremental = false;
  bundle.monitor = true;
  bundle.monitor_stall = 2000;
  bundle.planted = instance.planted;
  bundle.initial.assign(12, 1);
  bundle.instance = gen::distribute(instance);
  bundle.transport = "tcp";
  bundle.deadline_ms = 1500;
  bundle.reason = "unit test cell drop=0.125";
  bundle.observed = analysis::ObservedOutcome{true, 321, 0, 7};

  std::stringstream stream;
  analysis::write_bundle(stream, bundle);
  const analysis::ReproBundle back = analysis::read_bundle(stream);

  EXPECT_EQ(back.algo, bundle.algo);
  EXPECT_EQ(back.strategy, bundle.strategy);
  EXPECT_EQ(back.seed, bundle.seed);
  EXPECT_EQ(back.max_activations, bundle.max_activations);
  EXPECT_EQ(back.faults.drop_rate, bundle.faults.drop_rate);
  EXPECT_EQ(back.faults.corrupt_rate, bundle.faults.corrupt_rate);
  EXPECT_EQ(back.faults.partition_interval, bundle.faults.partition_interval);
  EXPECT_EQ(back.faults.partition_duration, bundle.faults.partition_duration);
  EXPECT_EQ(back.faults.quarantine_budget, bundle.faults.quarantine_budget);
  EXPECT_EQ(back.faults.seed, bundle.faults.seed);
  EXPECT_EQ(back.retransmit.ack_timeout, bundle.retransmit.ack_timeout);
  EXPECT_EQ(back.nogood_capacity, bundle.nogood_capacity);
  EXPECT_EQ(back.journal, bundle.journal);
  EXPECT_EQ(back.checkpoint_interval, bundle.checkpoint_interval);
  EXPECT_EQ(back.incremental, bundle.incremental);
  EXPECT_EQ(back.monitor, bundle.monitor);
  EXPECT_EQ(back.monitor_stall, bundle.monitor_stall);
  EXPECT_EQ(back.planted, bundle.planted);
  EXPECT_EQ(back.initial, bundle.initial);
  EXPECT_EQ(back.transport, bundle.transport);
  EXPECT_EQ(back.deadline_ms, bundle.deadline_ms);
  EXPECT_EQ(back.reason, bundle.reason);
  ASSERT_TRUE(back.observed.has_value());
  EXPECT_EQ(back.observed->solved, bundle.observed->solved);
  EXPECT_EQ(back.observed->cycles, bundle.observed->cycles);
  EXPECT_EQ(back.observed->malformed_frames, bundle.observed->malformed_frames);
  EXPECT_EQ(distributed_digest(back.instance), distributed_digest(bundle.instance));
}

TEST(ReproBundle, ReplaysBitIdenticallyAfterRoundTrip) {
  // The property `discsp_cli repro` rests on: run a chaos trial through
  // run_bundle, serialize the bundle, read it back, run again — the two
  // replays must agree on every metric the bundle records.
  Rng rng(626);
  const auto instance = gen::generate_coloring3(12, rng);

  analysis::ReproBundle bundle;
  bundle.seed = 9999;
  bundle.max_activations = 200'000;
  bundle.faults.drop_rate = 0.1;
  bundle.faults.corrupt_rate = 0.01;
  bundle.faults.partition_interval = 300;
  bundle.faults.partition_duration = 100;
  bundle.faults.refresh_interval = 50;
  bundle.faults.seed = 4321;
  bundle.retransmit.ack_timeout = 40;
  bundle.monitor = true;
  bundle.planted = instance.planted;
  bundle.initial.assign(12, 0);
  bundle.instance = gen::distribute(instance);

  const sim::RunResult first = analysis::run_bundle(bundle);
  bundle.observed = analysis::observe(first);

  std::stringstream stream;
  analysis::write_bundle(stream, bundle);
  const analysis::ReproBundle back = analysis::read_bundle(stream);
  const sim::RunResult second = analysis::run_bundle(back);

  EXPECT_TRUE(analysis::matches_observed(back, second));
  EXPECT_EQ(first.metrics.cycles, second.metrics.cycles);
  EXPECT_EQ(first.metrics.maxcck, second.metrics.maxcck);
  EXPECT_EQ(first.metrics.messages, second.metrics.messages);
  EXPECT_EQ(first.metrics.faults.dropped, second.metrics.faults.dropped);
  EXPECT_EQ(first.metrics.faults.corrupted, second.metrics.faults.corrupted);
  EXPECT_EQ(first.metrics.malformed_frames, second.metrics.malformed_frames);
  EXPECT_EQ(first.metrics.monitor.violations, second.metrics.monitor.violations);
  EXPECT_EQ(first.assignment, second.assignment);

  // Bundles written while the store had a second consistency engine carry a
  // `store-kernel` line. It no longer selects anything, but such bundles
  // must still load and replay to their recorded outcome.
  std::string text = stream.str();
  EXPECT_EQ(text.find("store-kernel"), std::string::npos);
  text.insert(text.find('\n') + 1, "store-kernel watched\n");
  std::istringstream legacy(text);
  const analysis::ReproBundle old = analysis::read_bundle(legacy);
  EXPECT_TRUE(analysis::matches_observed(old, analysis::run_bundle(old)));
}

TEST(ReproBundle, RejectsMalformedInput) {
  const auto parse = [](const std::string& text) {
    std::istringstream in(text);
    return analysis::read_bundle(in);
  };
  EXPECT_THROW(parse(""), std::runtime_error);
  EXPECT_THROW(parse("algo awc\n"), std::runtime_error);  // missing header
  EXPECT_THROW(parse("repro 2\n"), std::runtime_error);   // unknown version
  EXPECT_THROW(parse("repro 1\nwat 3\n"), std::runtime_error);
  EXPECT_THROW(parse("repro 1\nseed notanumber\n"), std::runtime_error);
  // No instance block at all.
  EXPECT_THROW(parse("repro 1\nseed 5\n"), std::runtime_error);
  // Unterminated instance block.
  EXPECT_THROW(parse("repro 1\ninstance-begin\ndcsp 1\nvars 0\n"),
               std::runtime_error);
  // A legacy store-kernel line must still name one of the old engines.
  try {
    parse("repro 1\nstore-kernel bogus\n");
    ADD_FAILURE() << "store-kernel bogus was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("store-kernel must be counters or watched"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace discsp
