// End-to-end tests of the multi-process runtime over loopback transports
// (net/coordinator.h, net/worker.h):
//  - a fault-free in-proc distributed solve terminates kSolved with a
//    validated assignment and zero monitor violations;
//  - ACK batches whose entries belong to two owners are split by the
//    coordinator without losing, duplicating or misrouting an entry;
//  - the same protocol over real TCP sockets (127.0.0.1, ephemeral port)
//    solves identically;
//  - a deadline-bounded run degrades gracefully: kDeadline, timed_out set,
//    and a well-formed (full-size) partial assignment with merged metrics;
//  - one run per fault kind (drop + duplication, reorder, delay spike,
//    crash, amnesia, partition, corruption) and from an already-solved
//    start: each solves and validates with zero monitor violations, and
//    its own fault counter shows the fault was injected;
//  - a worker killed mid-solve (exit_after_ms, the SIGKILL analogue) is
//    replaced by a fresh attach, and the run still solves;
//  - a *coordinator* killed mid-solve (halt_after_ms) is restarted with
//    --resume semantics: the journaled control plane is rebuilt, orphaned
//    workers re-rendezvous and continue, and the run solves under
//    incarnation 2 with zero monitor violations;
//  - a worker killed permanently (no replacement) has its shard migrated
//    onto survivors (--migrate-after-dead) and the run still solves with
//    zero monitor violations — nogood conservation checked per adoption;
//  - migration composes with coordinator failover: journaled r-assign
//    records replay the ownership overrides across a resume;
//  - a worker lost before a coordinator halt is declared lost by the
//    resumed coordinator, and its agents are adopted by the survivors;
//  - a worker whose coordinator never returns exhausts its reconnect budget
//    and reports gave_up with a human-readable verdict.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "gen/coloring_gen.h"
#include "net/coord_journal.h"
#include "net/coordinator.h"
#include "net/jobspec.h"
#include "net/tcp_transport.h"
#include "net/transport.h"
#include "net/worker.h"
#include "sim/fault.h"

namespace discsp {
namespace {

using net::JobSpec;
using net::ServeConfig;
using net::ServeResult;
using net::StopReason;
using net::WorkerConfig;
using net::WorkerResult;

JobSpec make_job(int n, std::uint64_t seed, int num_workers) {
  Rng rng(seed);
  const auto instance = gen::generate_coloring3(n, rng);
  JobSpec spec;
  spec.bundle.algo = "awc";
  spec.bundle.strategy = "Rslv";
  spec.bundle.seed = seed;
  spec.bundle.instance = gen::distribute(instance);
  spec.bundle.planted = instance.planted;
  spec.bundle.initial.resize(static_cast<std::size_t>(n));
  for (auto& v : spec.bundle.initial) v = static_cast<Value>(rng.index(3));
  spec.bundle.monitor = true;
  spec.bundle.retransmit.ack_timeout = 25;
  spec.num_workers = num_workers;
  spec.report_interval_ms = 5;
  return spec;
}

WorkerConfig worker_config(const std::string& endpoint, int index) {
  WorkerConfig config;
  config.endpoint = endpoint;
  config.reconnect_seed = 0x5eed + static_cast<std::uint64_t>(index);
  config.max_connect_attempts = 20;
  return config;
}

/// Run serve() against `workers` worker threads on `transport`; joins all
/// workers before returning.
ServeResult run_loopback(net::Transport& transport, const std::string& bind,
                         const ServeConfig& config,
                         const std::vector<WorkerConfig>& workers,
                         std::vector<WorkerResult>* worker_results = nullptr) {
  auto listener = transport.listen(bind);
  std::vector<WorkerResult> results(workers.size());
  std::vector<std::thread> threads;
  threads.reserve(workers.size());
  for (std::size_t i = 0; i < workers.size(); ++i) {
    threads.emplace_back([&transport, &workers, &results, i] {
      results[i] = net::run_worker(transport, workers[i]);
    });
  }
  ServeResult served = net::serve(*listener, config);
  for (auto& t : threads) t.join();
  if (worker_results != nullptr) *worker_results = std::move(results);
  return served;
}

TEST(NetLoopback, InProcDistributedSolveValidates) {
  net::InProcTransport transport;
  ServeConfig config;
  config.job = make_job(16, 11, 3);
  config.deadline_ms = 30000;

  std::vector<WorkerConfig> workers;
  for (int i = 0; i < 3; ++i) workers.push_back(worker_config("coord", i));
  std::vector<WorkerResult> worker_results;
  const ServeResult result =
      run_loopback(transport, "coord", config, workers, &worker_results);

  ASSERT_TRUE(result.error.empty()) << result.error;
  EXPECT_EQ(result.reason, StopReason::kSolved);
  EXPECT_TRUE(result.run.metrics.solved);
  EXPECT_EQ(result.worker_restarts, 0);
  EXPECT_EQ(result.run.metrics.monitor.violations, 0u);
  EXPECT_TRUE(config.job.bundle.instance.problem().is_solution(
      result.run.assignment));
  for (const auto& wr : worker_results) {
    EXPECT_TRUE(wr.completed) << wr.error;
    EXPECT_EQ(wr.stop, StopReason::kSolved);
  }
}

/// Coordinator-side audit of ACK traffic: every ACK entry the coordinator
/// receives must leave it exactly once, on the connection of the shard that
/// owns the entry's sender. Counting ends at the first STOP: after it the
/// coordinator only drains final reports, and workers that already answered
/// have detached, so their acks are rightly dropped. Used from the
/// coordinator thread only.
struct AckAudit {
  const JobSpec* job = nullptr;
  bool stopped = false;
  std::uint64_t entries_in = 0;
  std::uint64_t entries_out = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t multi_owner_frames = 0;  ///< inbound frames the split divides
  std::uint64_t misrouted = 0;
};

class AckAuditConnection final : public net::Connection {
 public:
  AckAuditConnection(std::unique_ptr<net::Connection> inner, AckAudit& audit)
      : inner_(std::move(inner)), audit_(audit) {}

  bool send(const sim::WireFrame& frame) override {
    const net::NetDecodeResult decoded = net::decode_net_frame(frame);
    if (decoded.ok()) {
      if (const auto* w = std::get_if<net::NetWelcome>(&*decoded.frame)) {
        shard_ = static_cast<int>(w->shard);
      } else if (std::holds_alternative<net::NetStop>(*decoded.frame)) {
        audit_.stopped = true;
      } else if (const auto* ack = std::get_if<net::NetAck>(&*decoded.frame)) {
        for (const net::NetAck::Entry& e : ack->entries) {
          if (audit_.job->shard_of(e.from) != shard_) ++audit_.misrouted;
        }
        if (!audit_.stopped) audit_.entries_out += ack->entries.size();
      }
    }
    return inner_->send(frame);
  }
  bool recv(sim::WireFrame& frame) override {
    if (!inner_->recv(frame)) return false;
    const net::NetDecodeResult decoded = net::decode_net_frame(frame);
    if (decoded.ok() && !audit_.stopped) {
      if (const auto* ack = std::get_if<net::NetAck>(&*decoded.frame)) {
        ++audit_.frames_in;
        audit_.entries_in += ack->entries.size();
        for (const net::NetAck::Entry& e : ack->entries) {
          if (audit_.job->shard_of(e.from) !=
              audit_.job->shard_of(ack->entries.front().from)) {
            ++audit_.multi_owner_frames;
            break;
          }
        }
      }
    }
    return true;
  }
  void pump(int timeout_ms) override { inner_->pump(timeout_ms); }
  bool open() const override { return inner_->open(); }
  void close() override { inner_->close(); }
  std::uint64_t dropped_frames() const override {
    return inner_->dropped_frames();
  }

 private:
  std::unique_ptr<net::Connection> inner_;
  AckAudit& audit_;
  int shard_ = -1;
};

class AckAuditListener final : public net::Listener {
 public:
  AckAuditListener(std::unique_ptr<net::Listener> inner, AckAudit& audit)
      : inner_(std::move(inner)), audit_(audit) {}
  std::unique_ptr<net::Connection> accept() override {
    auto conn = inner_->accept();
    if (conn == nullptr) return nullptr;
    return std::make_unique<AckAuditConnection>(std::move(conn), audit_);
  }

 private:
  std::unique_ptr<net::Listener> inner_;
  AckAudit& audit_;
};

TEST(NetLoopback, AckBatchesSplitByOwnerLoseNoAck) {
  // Three shards of a random graph: one worker's drain acknowledges senders
  // on both other shards, so the coordinator must split ACK frames by
  // owner. With no fault plan every ACK entry that reaches the coordinator
  // must leave it once, toward the sender's owner, and no send may need a
  // retransmission. The long ack timeout keeps a merely late ack on a
  // loaded machine from counting as a lost one.
  net::InProcTransport transport;
  ServeConfig config;
  config.job = make_job(60, 13, 3);
  config.job.bundle.retransmit.ack_timeout = 5000;
  config.deadline_ms = 60000;

  AckAudit audit;
  audit.job = &config.job;
  AckAuditListener listener(transport.listen("acksplit"), audit);
  std::vector<std::thread> threads;
  for (int i = 0; i < 3; ++i) {
    threads.emplace_back([&transport, i] {
      net::run_worker(transport, worker_config("acksplit", i));
    });
  }
  const ServeResult result = net::serve(listener, config);
  for (auto& t : threads) t.join();

  ASSERT_TRUE(result.error.empty()) << result.error;
  EXPECT_EQ(result.reason, StopReason::kSolved);
  EXPECT_TRUE(config.job.bundle.instance.problem().is_solution(
      result.run.assignment));
  EXPECT_EQ(result.run.metrics.retransmissions, 0u);
  EXPECT_EQ(result.run.metrics.monitor.violations, 0u);
  EXPECT_GT(audit.multi_owner_frames, 0u) << "no ACK frame needed a split";
  EXPECT_EQ(audit.entries_out, audit.entries_in);
  EXPECT_EQ(audit.misrouted, 0u);
  // Batching: far fewer ACK frames than acknowledged deliveries.
  EXPECT_LT(audit.frames_in * 2, audit.entries_in);
}

TEST(NetLoopback, TcpDistributedSolveValidates) {
  net::TcpTransport transport;
  auto listener = transport.listen("127.0.0.1:0");
  const std::string endpoint =
      "127.0.0.1:" + std::to_string(listener->port());

  ServeConfig config;
  config.job = make_job(12, 21, 2);
  config.deadline_ms = 30000;
  config.transport = "tcp";

  std::vector<WorkerResult> results(2);
  std::vector<std::thread> threads;
  for (int i = 0; i < 2; ++i) {
    threads.emplace_back([&transport, &results, endpoint, i] {
      results[static_cast<std::size_t>(i)] =
          net::run_worker(transport, worker_config(endpoint, i));
    });
  }
  const ServeResult result = net::serve(*listener, config);
  for (auto& t : threads) t.join();

  ASSERT_TRUE(result.error.empty()) << result.error;
  EXPECT_EQ(result.reason, StopReason::kSolved);
  EXPECT_TRUE(config.job.bundle.instance.problem().is_solution(
      result.run.assignment));
  EXPECT_EQ(result.run.metrics.monitor.violations, 0u);
}

TEST(NetLoopback, DeadlineDegradesToWellFormedPartial) {
  // A large instance with a tiny budget: the run must stop kDeadline and
  // still return a full-size assignment snapshot plus merged metrics. At
  // n = 90 the solver beat the 150 ms budget in roughly one run in ten;
  // n = 300 has not in hundreds.
  constexpr int n = 300;
  net::InProcTransport transport;
  ServeConfig config;
  config.job = make_job(n, 31, 3);
  config.deadline_ms = 150;

  std::vector<WorkerConfig> workers;
  for (int i = 0; i < 3; ++i) workers.push_back(worker_config("deadline", i));
  const ServeResult result =
      run_loopback(transport, "deadline", config, workers);

  ASSERT_TRUE(result.error.empty()) << result.error;
  // The solver *could* win the race, but must never stop any other way.
  if (result.reason == StopReason::kSolved) {
    GTEST_SKIP() << "instance solved inside the deadline";
  }
  EXPECT_EQ(result.reason, StopReason::kDeadline);
  EXPECT_TRUE(result.run.metrics.timed_out);
  EXPECT_FALSE(result.run.metrics.solved);
  EXPECT_EQ(result.run.assignment.size(), static_cast<std::size_t>(n));
  EXPECT_GT(result.run.metrics.messages, 0u);
  EXPECT_EQ(result.run.metrics.monitor.violations, 0u);
}

/// One real-thread serve run per fault kind: `configure` switches a single
/// kind on for the standard job, and `fired` names the FaultSummary
/// counters that prove it was injected (none for the solved start).
struct FaultTwin {
  const char* name;
  void (*configure)(JobSpec&);
  std::vector<std::uint64_t sim::FaultSummary::*> fired;
};

void PrintTo(const FaultTwin& twin, std::ostream* os) { *os << twin.name; }

const FaultTwin kFaultTwins[] = {
    {"DropAndDuplication",
     [](JobSpec& spec) {
       spec.bundle.faults.drop_rate = 0.10;
       spec.bundle.faults.duplicate_rate = 0.05;
     },
     {&sim::FaultSummary::dropped, &sim::FaultSummary::duplicated}},
    {"Reorder",
     [](JobSpec& spec) {
       // A reordered copy skips the spike delay, so spikes give it held-back
       // traffic to overtake.
       spec.bundle.faults.reorder_rate = 0.20;
       spec.bundle.faults.delay_spike_rate = 0.10;
       spec.bundle.faults.delay_spike = 5;  // ms
     },
     {&sim::FaultSummary::reordered}},
    {"DelaySpike",
     [](JobSpec& spec) {
       spec.bundle.faults.delay_spike_rate = 0.10;
       spec.bundle.faults.delay_spike = 5;  // ms
     },
     {&sim::FaultSummary::delay_spikes}},
    {"Crash",
     [](JobSpec& spec) { spec.bundle.faults.crash_rate = 0.02; },
     {&sim::FaultSummary::crashes}},
    {"Amnesia",
     [](JobSpec& spec) {
       spec.bundle.faults.amnesia_rate = 0.02;
       spec.bundle.journal = true;
       spec.bundle.checkpoint_interval = 16;
     },
     {&sim::FaultSummary::amnesia}},
    {"Partition",
     [](JobSpec& spec) {
       // Episode 0 covers [0, 20) ms of each worker's clock, so the initial
       // ok? broadcast already meets the cut.
       spec.bundle.faults.partition_interval = 60;  // ms
       spec.bundle.faults.partition_duration = 20;  // ms
       spec.bundle.faults.partition_groups = 2;
     },
     {&sim::FaultSummary::partition_drops}},
    {"Corruption",
     [](JobSpec& spec) { spec.bundle.faults.corrupt_rate = 0.05; },
     {&sim::FaultSummary::corrupted}},
    {"AlreadySolved",
     [](JobSpec& spec) { spec.bundle.initial = spec.bundle.planted; },
     {}},
};

class ServeFaultTwin : public ::testing::TestWithParam<FaultTwin> {};

TEST_P(ServeFaultTwin, Solves) {
  const FaultTwin& twin = GetParam();
  net::InProcTransport transport;
  ServeConfig config;
  config.job = make_job(24, 41, 3);
  config.job.bundle.faults.refresh_interval = 25;  // ms heartbeat cadence
  twin.configure(config.job);
  config.deadline_ms = 60000;

  std::vector<WorkerConfig> workers;
  for (int i = 0; i < 3; ++i) workers.push_back(worker_config(twin.name, i));
  const ServeResult result = run_loopback(transport, twin.name, config, workers);

  ASSERT_TRUE(result.error.empty()) << result.error;
  EXPECT_EQ(result.reason, StopReason::kSolved);
  EXPECT_TRUE(config.job.bundle.instance.problem().is_solution(
      result.run.assignment));
  EXPECT_EQ(result.run.metrics.monitor.violations, 0u);
  const sim::FaultSummary& faults = result.run.metrics.faults;
  for (const auto counter : twin.fired) {
    EXPECT_GT(faults.*counter, 0u);
  }
  if (faults.corrupted > 0) {
    EXPECT_GT(result.run.metrics.malformed_frames, 0u);
  }
  if (twin.fired.empty()) {
    EXPECT_EQ(result.run.assignment, config.job.bundle.initial);
  }
}

INSTANTIATE_TEST_SUITE_P(NetLoopbackChaos, ServeFaultTwin,
                         ::testing::ValuesIn(kFaultTwins),
                         [](const ::testing::TestParamInfo<FaultTwin>& info) {
                           return std::string(info.param.name);
                         });

TEST(NetLoopbackChaos, KilledWorkerIsReplacedAndRunSolves) {
  // Worker 2 vanishes without a STOP handshake (the in-proc SIGKILL
  // analogue); a replacement attaches, gets restart=true + seq floors, and
  // the run completes. Drops keep the solve slow enough that the kill
  // reliably lands mid-run.
  net::InProcTransport transport;
  ServeConfig config;
  config.job = make_job(48, 51, 3);
  // Heavy drops force repair round-trips (>= one ack timeout each), so the
  // solve reliably outlasts the kill timer below.
  config.job.bundle.faults.drop_rate = 0.30;
  config.job.bundle.faults.refresh_interval = 25;
  config.deadline_ms = 120000;

  auto listener = transport.listen("kill");
  std::vector<WorkerResult> results(4);
  std::vector<std::thread> threads;
  for (int i = 0; i < 2; ++i) {
    WorkerConfig wc = worker_config("kill", i);
    threads.emplace_back([&transport, &results, wc, i] {
      results[static_cast<std::size_t>(i)] = net::run_worker(transport, wc);
    });
  }
  // The victim thread launches the replacement the instant the kill fires,
  // so the slot is re-filled with no sleep-based race.
  threads.emplace_back([&transport, &results] {
    WorkerConfig victim = worker_config("kill", 2);
    victim.exit_after_ms = 150;
    results[2] = net::run_worker(transport, victim);
    if (results[2].killed) {
      WorkerConfig replacement = worker_config("kill", 3);
      replacement.max_connect_attempts = 5;
      replacement.connect_timeout_ms = 200;
      results[3] = net::run_worker(transport, replacement);
    }
  });
  const ServeResult result = net::serve(*listener, config);
  for (auto& t : threads) t.join();

  ASSERT_TRUE(result.error.empty()) << result.error;
  EXPECT_EQ(result.reason, StopReason::kSolved);
  EXPECT_TRUE(config.job.bundle.instance.problem().is_solution(
      result.run.assignment));
  EXPECT_EQ(result.run.metrics.monitor.violations, 0u);
  if (results[2].killed && results[3].completed) {
    // The kill landed mid-run and the replacement incarnation was seen
    // through to the solved STOP — the expected (near-certain) outcome.
    EXPECT_GE(result.worker_restarts, 1);
    EXPECT_EQ(results[3].stop, StopReason::kSolved);
  } else if (!results[2].killed) {
    // The solve won the race against the kill timer; nothing to replace.
    EXPECT_TRUE(results[2].completed) << results[2].error;
  }
  // Remaining case (killed, replacement found the run already over): the
  // STOP raced the kill timer — benign, already covered by the solved
  // assertions above.
}

TEST(NetLoopbackChaos, HaltedCoordinatorIsResumedAndRunSolves) {
  // The coordinator dies abruptly mid-solve (halt_after_ms: no STOP, no
  // drain, no checkpoint — the in-proc SIGKILL analogue) and is restarted
  // with resume=true against the same journal. The workers park orphaned,
  // re-rendezvous with incarnation 2, and the run completes.
  const std::string journal =
      (std::filesystem::temp_directory_path() / "discsp_halt_resume.journal")
          .string();
  std::remove(journal.c_str());

  net::InProcTransport transport;
  ServeConfig config;
  config.job = make_job(48, 61, 3);
  // Heavy drops force repair round-trips, so the solve reliably outlasts
  // the halt timer. The in-proc workers attach within a few ms, while the
  // solve takes 100 ms or more; a halt at 50 ms lands between the two (a
  // 200 ms halt lost the race to the solve about half the time).
  config.job.bundle.faults.drop_rate = 0.30;
  config.job.bundle.faults.refresh_interval = 25;
  config.deadline_ms = 120000;
  config.journal_path = journal;
  config.halt_after_ms = 50;

  std::vector<WorkerResult> results(3);
  std::vector<std::thread> threads;
  for (int i = 0; i < 3; ++i) {
    WorkerConfig wc = worker_config("failover", i);
    // The outage spans the restart gap; keep retrying well past it.
    wc.max_connect_attempts = 100;
    wc.connect_timeout_ms = 500;
    threads.emplace_back([&transport, &results, wc, i] {
      results[static_cast<std::size_t>(i)] = net::run_worker(transport, wc);
    });
  }

  ServeResult first;
  {
    auto listener = transport.listen("failover");
    first = net::serve(*listener, config);
    // The listener dies with this scope — exactly like the process.
  }
  if (!first.halted) {
    // The solve won the race against the halt timer; nothing to resume.
    for (auto& t : threads) t.join();
    GTEST_SKIP() << "instance solved before the halt fired";
  }
  EXPECT_EQ(first.coordinator_incarnation, 1u);

  ServeConfig resume = config;
  resume.halt_after_ms = 0;
  resume.resume = true;
  auto listener = transport.listen("failover");
  const ServeResult second = net::serve(*listener, resume);
  for (auto& t : threads) t.join();

  ASSERT_TRUE(second.error.empty()) << second.error;
  EXPECT_TRUE(second.resumed);
  EXPECT_EQ(second.coordinator_incarnation, 2u);
  EXPECT_EQ(second.reason, StopReason::kSolved);
  EXPECT_TRUE(config.job.bundle.instance.problem().is_solution(
      second.run.assignment));
  EXPECT_EQ(second.run.metrics.monitor.violations, 0u);
  int reconnects = 0;
  for (const auto& wr : results) {
    EXPECT_TRUE(wr.completed) << wr.error;
    EXPECT_EQ(wr.stop, StopReason::kSolved);
    reconnects += wr.reconnects;
  }
  // Every worker survived the outage by re-rendezvousing (continuation
  // attach), so the coordinator saw no worker *restarts*.
  EXPECT_GE(reconnects, 3);
  std::remove(journal.c_str());
}

TEST(NetLoopback, ResumedCoordinatorReportsAJournaledSolveAtOnce) {
  // A run that solved has no worker left to re-attach: each got the STOP
  // and exited. A coordinator resumed from that run's journal must report
  // the journaled solve at once, not wait out its deadline with whatever
  // values were journaled last.
  const std::string journal =
      (std::filesystem::temp_directory_path() / "discsp_solved_resume.journal")
          .string();
  std::remove(journal.c_str());

  net::InProcTransport transport;
  ServeConfig config;
  config.job = make_job(16, 11, 3);
  config.job.bundle.initial = config.job.bundle.planted;  // solved from the start
  config.deadline_ms = 30000;
  config.journal_path = journal;
  std::vector<WorkerConfig> workers;
  for (int i = 0; i < 3; ++i) workers.push_back(worker_config("solved", i));
  const ServeResult first = run_loopback(transport, "solved", config, workers);
  ASSERT_TRUE(first.error.empty()) << first.error;
  ASSERT_EQ(first.reason, StopReason::kSolved);

  // A final report drained after the STOP can still move a value, so the
  // journaled values need not be a solution any more: model one such late
  // report that breaks a constraint.
  std::string error;
  std::optional<net::CoordState> state = net::CoordJournal::load(journal, &error);
  ASSERT_TRUE(state.has_value()) << error;
  const Problem& problem = config.job.bundle.instance.problem();
  FullAssignment late = first.run.assignment;
  for (VarId v = 0; v < problem.num_variables() && problem.is_solution(late); ++v) {
    for (Value d = 0; d < problem.domain_size(v) && problem.is_solution(late); ++d) {
      late = first.run.assignment;
      late[static_cast<std::size_t>(v)] = d;
    }
  }
  ASSERT_FALSE(problem.is_solution(late));
  state->values.clear();
  for (VarId v = 0; v < problem.num_variables(); ++v) {
    state->values.emplace_back(v, late[static_cast<std::size_t>(v)]);
  }
  {
    net::CoordJournalConfig journal_config;
    journal_config.path = journal;
    net::CoordJournal rewrite(journal_config);
    ASSERT_TRUE(rewrite.start(*state, &error)) << error;
  }

  ServeConfig resume = config;
  resume.resume = true;
  resume.deadline_ms = 20000;
  auto listener = transport.listen("solved");
  const auto start = std::chrono::steady_clock::now();
  const ServeResult second = net::serve(*listener, resume);
  const auto waited = std::chrono::steady_clock::now() - start;

  ASSERT_TRUE(second.error.empty()) << second.error;
  EXPECT_TRUE(second.resumed);
  EXPECT_EQ(second.coordinator_incarnation, 2u);
  EXPECT_EQ(second.reason, StopReason::kSolved);
  EXPECT_TRUE(second.run.metrics.solved);
  EXPECT_EQ(second.run.assignment, first.run.assignment);
  EXPECT_TRUE(problem.is_solution(second.run.assignment));
  EXPECT_EQ(second.run.metrics.monitor.violations, 0u);
  EXPECT_LT(waited, std::chrono::seconds(5));
  std::remove(journal.c_str());
}

TEST(NetLoopback, JobSpecMigrationFieldsRoundTripThroughTheWire) {
  // The welcome-time job spec carries the migration flag and the dynamic
  // ownership overrides; a worker parses them back bit-identically and
  // resolves owner_of() as override-first, home-shard fallback.
  JobSpec spec = make_job(12, 71, 3);
  spec.migrate = true;
  spec.owners = {{5, 2}, {9, 0}};

  const JobSpec parsed = net::parse_jobspec(net::serialize_jobspec(spec));
  EXPECT_TRUE(parsed.migrate);
  EXPECT_EQ(parsed.owners, spec.owners);
  EXPECT_EQ(parsed.owner_of(5), 2);             // override wins
  EXPECT_EQ(parsed.owner_of(9), 0);
  EXPECT_EQ(parsed.owner_of(4), spec.shard_of(4));  // home fallback
  EXPECT_EQ(parsed.num_workers, 3);

  // Without migration the lines are absent and the parse still agrees.
  JobSpec plain = make_job(12, 71, 3);
  const JobSpec replain = net::parse_jobspec(net::serialize_jobspec(plain));
  EXPECT_FALSE(replain.migrate);
  EXPECT_TRUE(replain.owners.empty());
}

TEST(NetLoopbackChaos, MigrationSurvivesPermanentWorkerLoss) {
  // One of four workers dies without a STOP handshake and is NEVER replaced.
  // With migrate_after_dead the coordinator re-shards the dead worker's
  // agents onto the survivors (MIGRATE/ADOPT), and the run still solves with
  // zero invariant violations — the handoff monitor checks nogood-count
  // conservation on every adoption, so violations == 0 is the conservation
  // assertion. Drops + duplicates keep the solve slow, and the kill comes
  // early (50 ms after attaching): the frozen agents still hold near-initial
  // values the survivors cannot solve around, so the dead declaration lands
  // mid-run. (A kill at 150 ms sometimes let the survivors finish first.)
  net::InProcTransport transport;
  ServeConfig config;
  config.job = make_job(48, 81, 4);
  config.job.bundle.faults.drop_rate = 0.30;
  config.job.bundle.faults.duplicate_rate = 0.05;
  config.job.bundle.faults.refresh_interval = 25;
  config.deadline_ms = 120000;
  config.migrate_after_dead = true;
  config.supervisor.suspect_after_ms = 150;
  config.supervisor.dead_after_ms = 350;

  auto listener = transport.listen("migrate");
  std::vector<WorkerResult> results(4);
  std::vector<std::thread> threads;
  for (int i = 0; i < 3; ++i) {
    WorkerConfig wc = worker_config("migrate", i);
    threads.emplace_back([&transport, &results, wc, i] {
      results[static_cast<std::size_t>(i)] = net::run_worker(transport, wc);
    });
  }
  threads.emplace_back([&transport, &results] {
    WorkerConfig victim = worker_config("migrate", 3);
    victim.exit_after_ms = 50;
    results[3] = net::run_worker(transport, victim);
  });
  const ServeResult result = net::serve(*listener, config);
  for (auto& t : threads) t.join();

  ASSERT_TRUE(result.error.empty()) << result.error;
  EXPECT_EQ(result.reason, StopReason::kSolved);
  EXPECT_TRUE(config.job.bundle.instance.problem().is_solution(
      result.run.assignment));
  EXPECT_EQ(result.run.metrics.monitor.violations, 0u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(results[static_cast<std::size_t>(i)].completed)
        << results[static_cast<std::size_t>(i)].error;
  }
  if (results[3].killed) {
    // The kill landed mid-run: the victim's shard was adopted by survivors
    // (no replacement ever attached, so zero worker *restarts*).
    EXPECT_GT(result.agent_migrations, 0u);
    EXPECT_EQ(result.worker_restarts, 0);
  } else {
    // The solve won the race against the kill timer; nothing migrated.
    EXPECT_TRUE(results[3].completed) << results[3].error;
  }
}

TEST(NetLoopbackChaos, MigrationAndFailoverCompose) {
  // The hardest composition in the fault model: a worker dies permanently,
  // its agents migrate, and THEN the coordinator is killed mid-run. The
  // resumed coordinator replays the journaled ownership reassignments
  // (r-assign records), hands the adopted agents back out in the welcome
  // spec, and the run completes under incarnation 2.
  const std::string journal =
      (std::filesystem::temp_directory_path() / "discsp_migrate_resume.journal")
          .string();
  std::remove(journal.c_str());

  net::InProcTransport transport;
  ServeConfig config;
  config.job = make_job(60, 91, 3);
  config.job.bundle.faults.drop_rate = 0.35;
  config.job.bundle.faults.refresh_interval = 25;
  config.deadline_ms = 120000;
  config.journal_path = journal;
  config.migrate_after_dead = true;
  config.supervisor.suspect_after_ms = 150;
  config.supervisor.dead_after_ms = 300;
  // Kill at 50 ms, dead declaration at ~350 ms, adoptions right after, halt
  // at 400 ms: the coordinator dies with journaled reassignments on disk
  // while the (larger, heavily dropped) solve is still in flight. The early
  // kill leaves the victim's agents frozen near their initial values, which
  // the survivors rarely solve around; with the kill at 150 ms and the halt
  // at 600 ms the solve won the race in about one run in six.
  config.halt_after_ms = 400;

  std::vector<WorkerResult> results(3);
  std::vector<std::thread> threads;
  for (int i = 0; i < 2; ++i) {
    WorkerConfig wc = worker_config("migrate-failover", i);
    wc.max_connect_attempts = 100;
    wc.connect_timeout_ms = 500;
    threads.emplace_back([&transport, &results, wc, i] {
      results[static_cast<std::size_t>(i)] = net::run_worker(transport, wc);
    });
  }
  threads.emplace_back([&transport, &results] {
    WorkerConfig victim = worker_config("migrate-failover", 2);
    victim.exit_after_ms = 50;
    results[2] = net::run_worker(transport, victim);
  });

  ServeResult first;
  {
    auto listener = transport.listen("migrate-failover");
    first = net::serve(*listener, config);
  }
  // The victim exits 50 ms after attaching (or at an earlier stop); join it
  // before its result is read, so the read is ordered after the write.
  threads[2].join();
  const auto serve_resumed = [&](std::int64_t deadline_ms) {
    ServeConfig resume = config;
    resume.halt_after_ms = 0;
    resume.resume = true;
    resume.deadline_ms = deadline_ms;
    auto listener = transport.listen("migrate-failover");
    return net::serve(*listener, resume);
  };
  if (!first.halted || !results[2].killed || first.agent_migrations == 0) {
    // The solve (or the kill/dead-window race) beat the timeline; the
    // composition under test never materialised this run. A halted
    // coordinator left workers 0 and 1 orphaned: resume it briefly (their
    // first reconnect attempts fall well inside 5 s) so they re-attach and
    // get their STOP, instead of joining them only after they burn their
    // whole reconnect budget.
    if (first.halted) (void)serve_resumed(5000);
    for (int i = 0; i < 2; ++i) threads[static_cast<std::size_t>(i)].join();
    GTEST_SKIP() << "halt/migration race lost: halted=" << first.halted
                 << " migrations=" << first.agent_migrations;
  }

  const ServeResult second = serve_resumed(config.deadline_ms);
  for (int i = 0; i < 2; ++i) threads[static_cast<std::size_t>(i)].join();

  ASSERT_TRUE(second.error.empty()) << second.error;
  EXPECT_TRUE(second.resumed);
  EXPECT_EQ(second.coordinator_incarnation, 2u);
  EXPECT_EQ(second.reason, StopReason::kSolved);
  EXPECT_TRUE(config.job.bundle.instance.problem().is_solution(
      second.run.assignment));
  EXPECT_EQ(second.run.metrics.monitor.violations, 0u);
  // The replayed r-assign records rebuilt the ownership overrides; the
  // resumed run reports them (replay counts as migration for quiescence).
  EXPECT_GT(second.agent_migrations, 0u);
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(results[static_cast<std::size_t>(i)].completed)
        << results[static_cast<std::size_t>(i)].error;
    EXPECT_EQ(results[static_cast<std::size_t>(i)].stop, StopReason::kSolved);
  }
  std::remove(journal.c_str());
}

TEST(NetLoopbackChaos, ResumedCoordinatorAdoptsAWorkerLostBeforeTheHalt) {
  // A worker dies early and never comes back, and the coordinator halts
  // before the dead window (dead_after_ms) could expire, so the halt always
  // beats the loss declaration. No slot is attached in the resumed
  // incarnation, so it has to start the loss clock itself: it must declare
  // the dead slot lost, hand its agents to the survivors and solve. The
  // early kill leaves the victim's agents frozen near their initial values
  // under 35% drops, which the survivors do not solve around before the
  // halt.
  const std::string journal =
      (std::filesystem::temp_directory_path() / "discsp_lost_before_halt.journal")
          .string();
  std::remove(journal.c_str());

  net::InProcTransport transport;
  ServeConfig config;
  config.job = make_job(60, 91, 3);
  config.job.bundle.faults.drop_rate = 0.35;
  config.job.bundle.faults.refresh_interval = 25;
  config.deadline_ms = 20000;
  config.journal_path = journal;
  config.migrate_after_dead = true;
  config.supervisor.suspect_after_ms = 150;
  config.supervisor.dead_after_ms = 1500;
  config.halt_after_ms = 300;

  std::vector<WorkerResult> results(3);
  std::vector<std::thread> threads;
  for (int i = 0; i < 2; ++i) {
    WorkerConfig wc = worker_config("lost-before-halt", i);
    wc.max_connect_attempts = 100;
    wc.connect_timeout_ms = 500;
    threads.emplace_back([&transport, &results, wc, i] {
      results[static_cast<std::size_t>(i)] = net::run_worker(transport, wc);
    });
  }
  threads.emplace_back([&transport, &results] {
    WorkerConfig victim = worker_config("lost-before-halt", 2);
    victim.exit_after_ms = 20;
    results[2] = net::run_worker(transport, victim);
  });

  ServeResult first;
  {
    auto listener = transport.listen("lost-before-halt");
    first = net::serve(*listener, config);
  }
  threads[2].join();
  ASSERT_TRUE(first.halted) << "the first incarnation ended with reason "
                            << static_cast<int>(first.reason);
  ASSERT_TRUE(results[2].killed);
  EXPECT_EQ(first.agent_migrations, 0u);

  ServeConfig resume = config;
  resume.halt_after_ms = 0;
  resume.resume = true;
  ServeResult second;
  {
    auto listener = transport.listen("lost-before-halt");
    second = net::serve(*listener, resume);
  }
  for (int i = 0; i < 2; ++i) threads[static_cast<std::size_t>(i)].join();

  ASSERT_TRUE(second.error.empty()) << second.error;
  EXPECT_TRUE(second.resumed);
  EXPECT_EQ(second.reason, StopReason::kSolved);
  EXPECT_TRUE(config.job.bundle.instance.problem().is_solution(
      second.run.assignment));
  EXPECT_EQ(second.run.metrics.monitor.violations, 0u);
  EXPECT_GT(second.agent_migrations, 0u);
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(results[static_cast<std::size_t>(i)].completed)
        << results[static_cast<std::size_t>(i)].error;
  }
  std::remove(journal.c_str());
}

TEST(NetLoopback, WorkerGivesUpWithVerdictWhenCoordinatorNeverReturns) {
  net::InProcTransport transport;
  WorkerConfig config = worker_config("nobody-home", 0);
  config.max_connect_attempts = 3;
  config.connect_timeout_ms = 10;
  config.reconnect.ack_timeout = 1;  // fast backoff: keep the test quick

  const WorkerResult result = net::run_worker(transport, config);
  EXPECT_FALSE(result.completed);
  EXPECT_TRUE(result.gave_up);
  EXPECT_NE(result.verdict.find("3 attempts"), std::string::npos)
      << result.verdict;
  EXPECT_FALSE(result.error.empty());
}

TEST(NetLoopback, MissingPortFileIsRetriedThenReportedInTheVerdict) {
  // A port-file worker whose file never appears burns its attempts without
  // ever dialing, and the verdict names the file it was watching.
  net::InProcTransport transport;
  WorkerConfig config = worker_config("unused", 0);
  config.port_file =
      (std::filesystem::temp_directory_path() / "discsp_no_such_port_file")
          .string();
  std::remove(config.port_file.c_str());
  config.max_connect_attempts = 4;
  config.reconnect.ack_timeout = 1;

  const WorkerResult result = net::run_worker(transport, config);
  EXPECT_TRUE(result.gave_up);
  EXPECT_NE(result.verdict.find("port file"), std::string::npos)
      << result.verdict;
}

}  // namespace
}  // namespace discsp
