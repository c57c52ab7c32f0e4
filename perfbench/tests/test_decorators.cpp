// Fidelity of the benchmark's timing decorators: they must forward every
// call unchanged, so a traced run computes exactly what an untraced one does.
//
//   cmake --build .bench_build --target perfbench_tests && .bench_build/perfbench_tests
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/experiment.h"
#include "awc/awc_solver.h"
#include "db/db_solver.h"
#include "net_workload.h"
#include "sim/sync_engine.h"
#include "sync_workload.h"
#include "timed.h"

namespace perfbench {
namespace {

class CountingSink final : public sim::MessageSink {
 public:
  void send(AgentId, sim::MessagePayload) override { ++sent; }
  int sent = 0;
};

/// Logs every call and answers each query with its own distinct value.
class FakeAgent final : public sim::Agent {
 public:
  explicit FakeAgent(std::vector<std::string>& log) : log_(log) {}

  AgentId id() const override { return 7; }
  VarId variable() const override { return 3; }
  Value current_value() const override { return 2; }
  void start(sim::MessageSink& out) override { call("start", out); }
  void receive(const sim::MessagePayload&) override { log_.push_back("receive"); }
  void compute(sim::MessageSink& out) override { call("compute", out); }
  std::uint64_t take_checks() override { return 11; }
  bool detected_insoluble() const override { return true; }
  void crash_restart(sim::MessageSink& out) override { call("crash_restart", out); }
  void amnesia_restart(sim::MessageSink& out) override { call("amnesia_restart", out); }
  void on_heartbeat(sim::MessageSink& out) override { call("on_heartbeat", out); }
  void set_seq_floor(std::uint64_t floor) override {
    log_.push_back("set_seq_floor " + std::to_string(floor));
  }
  std::uint64_t nogoods_generated() const override { return 13; }
  std::uint64_t redundant_generations() const override { return 17; }
  bool export_capsule(recovery::Checkpoint& out) const override {
    out.priority = 41;
    return true;
  }
  void import_capsule(const recovery::Checkpoint& state, sim::MessageSink& out) override {
    call("import_capsule " + std::to_string(state.priority), out);
  }
  std::uint64_t learned_count() const override { return 19; }
  std::uint64_t announce_seq() const override { return 23; }
  std::uint64_t work_ops() const override { return 29; }
  RecoveryStats recovery_stats() const override { return {1, 2, 3, 4, 5}; }

 private:
  void call(const std::string& name, sim::MessageSink& out) {
    log_.push_back(name);
    out.send(1, sim::OkMessage{});
  }

  std::vector<std::string>& log_;
};

TEST(TimedAgent, ForwardsEveryAgentVirtual) {
  std::vector<std::string> log;
  AgentLayer layer{"fake.receive", "fake.compute", {}, {}};
  TimedAgent agent(std::make_unique<FakeAgent>(log), layer);
  CountingSink sink;

  EXPECT_EQ(agent.id(), 7);
  EXPECT_EQ(agent.variable(), 3);
  EXPECT_EQ(agent.current_value(), 2);
  agent.start(sink);
  agent.receive(sim::OkMessage{});
  agent.compute(sink);
  EXPECT_EQ(agent.take_checks(), 11u);
  EXPECT_TRUE(agent.detected_insoluble());
  agent.crash_restart(sink);
  agent.amnesia_restart(sink);
  agent.on_heartbeat(sink);
  agent.set_seq_floor(37);
  EXPECT_EQ(agent.nogoods_generated(), 13u);
  EXPECT_EQ(agent.redundant_generations(), 17u);
  recovery::Checkpoint capsule;
  EXPECT_TRUE(agent.export_capsule(capsule));
  EXPECT_EQ(capsule.priority, 41);
  agent.import_capsule(capsule, sink);
  EXPECT_EQ(agent.learned_count(), 19u);
  EXPECT_EQ(agent.announce_seq(), 23u);
  EXPECT_EQ(agent.work_ops(), 29u);
  const sim::Agent::RecoveryStats stats = agent.recovery_stats();
  EXPECT_EQ(stats.journal_appends, 1u);
  EXPECT_EQ(stats.peak_learned_nogoods, 5u);

  const std::vector<std::string> expected = {
      "start",           "receive",      "compute",          "crash_restart",
      "amnesia_restart", "on_heartbeat", "set_seq_floor 37", "import_capsule 41"};
  EXPECT_EQ(log, expected);
  EXPECT_EQ(sink.sent, 6);  // the wrapped agent's sends reach the caller's sink
  EXPECT_EQ(layer.receive.count(), 1u);
  EXPECT_EQ(layer.compute.count(), 1u);
}

class FakeStrategy final : public learning::LearningStrategy {
 public:
  std::string name() const override { return "Fake"; }
  std::optional<Nogood> learn(const learning::DeadendContext&, std::uint64_t& checks) override {
    checks += 5;
    return Nogood{{1, 0}, {2, 1}};
  }
  std::size_t record_bound() const override { return 4; }
  std::unique_ptr<learning::LearningStrategy> clone() const override {
    return std::make_unique<FakeStrategy>();
  }
};

TEST(TimedStrategy, CloneStaysTimed) {
  LearnLayer layer;
  const TimedStrategy prototype(std::make_unique<FakeStrategy>(), layer);
  const std::unique_ptr<learning::LearningStrategy> clone = prototype.clone();
  ASSERT_NE(dynamic_cast<TimedStrategy*>(clone.get()), nullptr);
  EXPECT_EQ(clone->name(), "Fake");
  EXPECT_EQ(clone->record_bound(), 4u);

  std::uint64_t checks = 100;
  const std::optional<Nogood> learned = clone->learn(learning::DeadendContext{}, checks);
  ASSERT_TRUE(learned.has_value());
  EXPECT_EQ(learned->size(), 2u);
  EXPECT_EQ(checks, 105u);
  EXPECT_EQ(layer.learn.count(), 1u);
  EXPECT_EQ(layer.extra_checks.load(), 5u);
  EXPECT_EQ(layer.nogood_literals.load(), 2u);
}

void expect_same_metrics(const sim::RunMetrics& a, const sim::RunMetrics& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.maxcck, b.maxcck);
  EXPECT_EQ(a.total_checks, b.total_checks);
  EXPECT_EQ(a.work_ops, b.work_ops);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.nogoods_generated, b.nogoods_generated);
  EXPECT_EQ(a.redundant_generations, b.redundant_generations);
  EXPECT_EQ(a.solved, b.solved);
  EXPECT_EQ(a.insoluble, b.insoluble);
  EXPECT_EQ(a.hit_cycle_cap, b.hit_cycle_cap);
  EXPECT_EQ(a.peak_learned_nogoods, b.peak_learned_nogoods);
}

discsp::DistributedProblem small_instance(discsp::analysis::ProblemFamily family, int n) {
  discsp::analysis::ExperimentSpec spec;
  spec.family = family;
  spec.n = n;
  spec.seed = 9;
  return discsp::analysis::make_instance(spec, 0);
}

TEST(TracedRun, AwcMetricsIdenticalToUntraced) {
  const auto dp = small_instance(discsp::analysis::ProblemFamily::kSat3, 50);
  for (const char* label : {"Rslv", "Mcs"}) {
    const auto plain_strategy = learning::make_strategy(label);
    const discsp::awc::AwcSolver plain_solver(dp, *plain_strategy);
    discsp::Rng init_rng(5);
    const discsp::FullAssignment initial = plain_solver.random_initial(init_rng);
    sim::SyncEngine plain(dp.problem(), plain_solver.make_agents(initial, discsp::Rng(77)));
    const sim::RunResult expected = plain.run(10000);

    AgentLayer layer{"awc.receive", "awc.compute", {}, {}};
    LearnLayer learn;
    const TimedStrategy timed_strategy(learning::make_strategy(label), learn);
    const discsp::awc::AwcSolver timed_solver(dp, timed_strategy);
    sim::SyncEngine traced(dp.problem(),
                           wrap_agents(timed_solver.make_agents(initial, discsp::Rng(77)), layer));
    const sim::RunResult got = traced.run(10000);

    expect_same_metrics(expected.metrics, got.metrics);
    EXPECT_EQ(expected.assignment, got.assignment);
    EXPECT_TRUE(got.metrics.solved) << label;
    EXPECT_GT(layer.compute.count(), 0u);
    // Every agent's strategy is a clone of a clone of the prototype.
    EXPECT_EQ(learn.learn.count(), got.metrics.nogoods_generated) << label;
  }
}

TEST(TracedRun, DbMetricsIdenticalToUntraced) {
  const auto dp = small_instance(discsp::analysis::ProblemFamily::kColoring3, 40);
  const discsp::db::DbSolver solver(dp);
  discsp::Rng init_rng(5);
  const discsp::FullAssignment initial = solver.random_initial(init_rng);
  sim::SyncEngine plain(dp.problem(), solver.make_agents(initial, discsp::Rng(77)));
  const sim::RunResult expected = plain.run(10000);

  AgentLayer layer{"db.receive", "db.compute", {}, {}};
  sim::SyncEngine traced(dp.problem(),
                         wrap_agents(solver.make_agents(initial, discsp::Rng(77)), layer));
  const sim::RunResult got = traced.run(10000);
  expect_same_metrics(expected.metrics, got.metrics);
  EXPECT_EQ(expected.assignment, got.assignment);
  EXPECT_GT(layer.receive.count(), 0u);
}

TEST(TracedRun, BenchmarkTrialsIdenticalToUntraced) {
  for (const char* workload : {"sync-3sat-learn", "sync-coloring-db"}) {
    SyncLayers layers;
    const SyncWorkload w = make_sync_workload(workload, 3, &layers);
    for (std::size_t i = 0; i < 2; ++i) {
      const TrialOutcome plain = run_trial(w, i);
      const TrialOutcome traced = run_trial(w, i, &layers);
      EXPECT_EQ(plain.digest, traced.digest) << workload << " trial " << i;
      EXPECT_EQ(plain.messages, traced.messages);
      EXPECT_TRUE(traced.valid);
    }
    EXPECT_GT(layers.sim_run.count(), 0u);
    EXPECT_GT(layers.gen.count(), 0u);
  }
}

TEST(TracedServe, RoutedFramesEqualDeliveries) {
  const auto dp = small_instance(discsp::analysis::ProblemFamily::kColoring3, 12);
  net::ServeConfig config = serve_config_for(dp, 11, 2000, Carrier::kInProc);
  // One agent per worker, so every agent message crosses the coordinator,
  // and no failure detector, so no retransmitted copy is routed twice.
  config.job.num_workers = dp.num_agents();
  config.job.bundle.retransmit.ack_timeout = 0;

  NetTrace trace;
  const WindowOutcome out = run_window(config, Carrier::kInProc, &trace);
  ASSERT_TRUE(out.well_formed);
  EXPECT_EQ(out.result.reason, net::StopReason::kSolved);
  EXPECT_EQ(out.failed_frames, 0u);
  const ConnStats worker = trace.totals(Role::kWorker);
  const ConnStats coord = trace.totals(Role::kCoordinator);
  const auto deliveries = static_cast<std::uint64_t>(out.result.run.metrics.cycles);
  EXPECT_GT(deliveries, 0u);
  EXPECT_EQ(worker.routes_received, deliveries);
  EXPECT_LE(worker.routes_received, coord.sent_kinds[kRoute]);
  EXPECT_LE(coord.sent_kinds[kRoute], worker.sent_kinds[kRoute]);
  EXPECT_GT(trace.hops().samples().size(), 0u);
}

}  // namespace
}  // namespace perfbench
