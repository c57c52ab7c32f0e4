// FaultPlan unit tests: per-channel determinism, counter accounting, config
// validation, and the per-agent crash budget (sim/fault.h).
#include "sim/fault.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace discsp::sim {
namespace {

FaultConfig lossy_config() {
  FaultConfig config;
  config.drop_rate = 0.3;
  config.duplicate_rate = 0.2;
  config.reorder_rate = 0.25;
  config.delay_spike_rate = 0.1;
  config.crash_rate = 0.0;
  config.seed = 1234;
  return config;
}

bool same_verdict(const ChannelVerdict& a, const ChannelVerdict& b) {
  return a.copies == b.copies && a.reorder == b.reorder &&
         a.extra_delay == b.extra_delay;
}

TEST(FaultPlan, ChannelStreamsAreDeterministic) {
  FaultPlan plan_a(lossy_config(), 4);
  FaultPlan plan_b(lossy_config(), 4);
  for (int k = 0; k < 200; ++k) {
    EXPECT_TRUE(same_verdict(plan_a.on_send(0, 1), plan_b.on_send(0, 1)))
        << "send " << k;
  }
}

TEST(FaultPlan, ChannelStreamsAreIndependentOfInterleaving) {
  // The fate of the k-th send on (0, 1) must not depend on traffic between
  // other agent pairs — this is what fixes the fate of a channel's k-th
  // send on a serve worker however its timers and socket reads interleave
  // the channels.
  FaultPlan quiet(lossy_config(), 4);
  FaultPlan busy(lossy_config(), 4);
  std::vector<ChannelVerdict> expected;
  for (int k = 0; k < 100; ++k) expected.push_back(quiet.on_send(0, 1));

  for (int k = 0; k < 100; ++k) {
    busy.on_send(1, 0);
    busy.on_send(2, 3);
    const ChannelVerdict got = busy.on_send(0, 1);
    busy.on_send(3, 2);
    EXPECT_TRUE(same_verdict(got, expected[static_cast<std::size_t>(k)]))
        << "send " << k;
  }
}

TEST(FaultPlan, DifferentChannelsDifferentStreams) {
  FaultPlan plan(lossy_config(), 4);
  int disagreements = 0;
  for (int k = 0; k < 100; ++k) {
    FaultPlan fresh(lossy_config(), 4);
    for (int j = 0; j < k; ++j) {
      fresh.on_send(0, 1);
      fresh.on_send(1, 2);
    }
    if (!same_verdict(fresh.on_send(0, 1), fresh.on_send(1, 2))) ++disagreements;
  }
  EXPECT_GT(disagreements, 0) << "channels (0,1) and (1,2) produced identical "
                                 "fault sequences — streams are not independent";
}

TEST(FaultPlan, SummaryMatchesVerdicts) {
  FaultPlan plan(lossy_config(), 3);
  FaultSummary tally;
  for (int k = 0; k < 500; ++k) {
    const ChannelVerdict v = plan.on_send(k % 3, (k + 1) % 3);
    if (v.copies == 0) ++tally.dropped;
    if (v.copies == 2) ++tally.duplicated;
    if (v.reorder) ++tally.reordered;
    if (v.extra_delay > 0) ++tally.delay_spikes;
  }
  const FaultSummary s = plan.summary();
  EXPECT_EQ(s.dropped, tally.dropped);
  EXPECT_EQ(s.duplicated, tally.duplicated);
  EXPECT_EQ(s.reordered, tally.reordered);
  EXPECT_EQ(s.delay_spikes, tally.delay_spikes);
  EXPECT_EQ(s.crashes, 0u);
  // With these rates and 500 sends, all fault kinds should have fired.
  EXPECT_GT(s.dropped, 0u);
  EXPECT_GT(s.duplicated, 0u);
  EXPECT_GT(s.reordered, 0u);
  EXPECT_GT(s.delay_spikes, 0u);
}

TEST(FaultPlan, DisabledConfigNeverFaults) {
  FaultConfig config;  // all rates zero
  EXPECT_FALSE(config.enabled());
  FaultPlan plan(config, 2);
  for (int k = 0; k < 100; ++k) {
    const ChannelVerdict v = plan.on_send(0, 1);
    EXPECT_EQ(v.copies, 1);
    EXPECT_FALSE(v.reorder);
    EXPECT_EQ(v.extra_delay, 0);
    EXPECT_EQ(plan.on_deliver(1), CrashKind::kNone);
  }
  const FaultSummary s = plan.summary();
  EXPECT_EQ(s.dropped + s.duplicated + s.reordered + s.delay_spikes + s.crashes,
            0u);
}

TEST(FaultPlan, CrashBudgetIsEnforcedPerAgent) {
  FaultConfig config;
  config.crash_rate = 1.0;  // every delivery would crash, but for the budget
  config.max_crashes_per_agent = 3;
  FaultPlan plan(config, 2);
  int crashes_agent0 = 0;
  for (int k = 0; k < 50; ++k) {
    if (plan.on_deliver(0) != CrashKind::kNone) ++crashes_agent0;
  }
  EXPECT_EQ(crashes_agent0, 3);
  // Agent 1 has its own untouched budget.
  int crashes_agent1 = 0;
  for (int k = 0; k < 50; ++k) {
    if (plan.on_deliver(1) != CrashKind::kNone) ++crashes_agent1;
  }
  EXPECT_EQ(crashes_agent1, 3);
  const FaultSummary s = plan.summary();
  EXPECT_EQ(s.crashes, 6u);
  // The per-agent histogram matches the per-agent counts.
  ASSERT_EQ(s.crashes_by_agent.size(), 2u);
  EXPECT_EQ(s.crashes_by_agent[0], 3);
  EXPECT_EQ(s.crashes_by_agent[1], 3);
}

TEST(FaultPlan, AmnesiaSharesTheCrashBudget) {
  FaultConfig config;
  config.crash_rate = 1.0;
  config.amnesia_rate = 1.0;  // both fire every delivery; restart wins ties
  config.max_crashes_per_agent = 4;
  FaultPlan plan(config, 1);
  int restarts = 0, amnesias = 0;
  for (int k = 0; k < 50; ++k) {
    switch (plan.on_deliver(0)) {
      case CrashKind::kRestart: ++restarts; break;
      case CrashKind::kAmnesia: ++amnesias; break;
      case CrashKind::kNone: break;
    }
  }
  // Restart-or-amnesia totals never exceed the shared budget.
  EXPECT_EQ(restarts + amnesias, 4);
  EXPECT_EQ(restarts, 4);  // restart draw happens first and wins at rate 1.0
  const FaultSummary s = plan.summary();
  EXPECT_EQ(s.crashes + s.amnesia, 4u);
  ASSERT_EQ(s.crashes_by_agent.size(), 1u);
  EXPECT_EQ(s.crashes_by_agent[0], 4);
}

TEST(FaultPlan, AmnesiaOnlyConfigCrashesWithAmnesia) {
  FaultConfig config;
  config.amnesia_rate = 1.0;
  config.max_crashes_per_agent = 2;
  EXPECT_TRUE(config.enabled());
  FaultPlan plan(config, 1);
  int amnesias = 0;
  for (int k = 0; k < 10; ++k) {
    if (plan.on_deliver(0) == CrashKind::kAmnesia) ++amnesias;
  }
  EXPECT_EQ(amnesias, 2);
  const FaultSummary s = plan.summary();
  EXPECT_EQ(s.amnesia, 2u);
  EXPECT_EQ(s.crashes, 0u);
  ASSERT_EQ(s.crashes_by_agent.size(), 1u);
  EXPECT_EQ(s.crashes_by_agent[0], 2);
}

TEST(FaultConfig, ValidateRejectsBadKnobs) {
  FaultConfig config;
  config.drop_rate = 1.5;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = {};
  config.duplicate_rate = -0.1;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = {};
  config.crash_rate = 2.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = {};
  config.amnesia_rate = -0.5;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = {};
  config.delay_spike = -1;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = {};
  config.refresh_interval = -5;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = {};
  config.drop_rate = 0.5;
  config.duplicate_rate = 1.0;
  EXPECT_NO_THROW(config.validate());
}

TEST(FaultConfig, FromReproConfigMapsKnobs) {
  ReproConfig repro;
  repro.seed = 99;
  repro.fault_drop = 0.1;
  repro.fault_duplicate = 0.05;
  repro.fault_reorder = 0.2;
  repro.fault_crash = 0.01;
  repro.fault_amnesia = 0.02;
  repro.fault_refresh = 17;
  repro.fault_seed = 0;  // 0 = reuse the run seed
  const FaultConfig config = fault_config_from(repro);
  EXPECT_DOUBLE_EQ(config.drop_rate, 0.1);
  EXPECT_DOUBLE_EQ(config.duplicate_rate, 0.05);
  EXPECT_DOUBLE_EQ(config.reorder_rate, 0.2);
  EXPECT_DOUBLE_EQ(config.crash_rate, 0.01);
  EXPECT_DOUBLE_EQ(config.amnesia_rate, 0.02);
  EXPECT_EQ(config.refresh_interval, 17);
  EXPECT_EQ(config.seed, 99u);
  EXPECT_TRUE(config.enabled());

  repro.fault_seed = 1234;
  EXPECT_EQ(fault_config_from(repro).seed, 1234u);
}

}  // namespace
}  // namespace discsp::sim
