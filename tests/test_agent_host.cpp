// The AgentHost contract shared by AsyncEngine and the serve worker: what a
// delivery does before the agent sees it, which copies reach the carrier,
// and how the counters fold. A stub agent counts its hooks; a recording
// carrier drains the outbox.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/agent_host.h"

namespace discsp::sim {
namespace {

/// Two-agent stub: every hook sends one ok? to the peer; compute spends 3
/// checks; lifetime counters are fixed per agent.
class StubAgent final : public Agent {
 public:
  StubAgent(AgentId id, AgentId peer, std::uint64_t work)
      : id_(id), peer_(peer), work_(work) {}
  AgentId id() const override { return id_; }
  VarId variable() const override { return id_; }
  Value current_value() const override { return 0; }
  void start(MessageSink& out) override { announce(out); }
  void receive(const MessagePayload&) override { ++received; }
  void compute(MessageSink& out) override {
    checks_ += 3;
    announce(out);
  }
  std::uint64_t take_checks() override {
    const std::uint64_t c = checks_;
    checks_ = 0;
    return c;
  }
  void crash_restart(MessageSink& out) override {
    ++restarts;
    announce(out);
  }
  void amnesia_restart(MessageSink& out) override {
    ++amnesias;
    announce(out);
  }
  void on_heartbeat(MessageSink& out) override { announce(out); }
  std::uint64_t work_ops() const override { return work_; }
  std::uint64_t nogoods_generated() const override { return 1; }
  RecoveryStats recovery_stats() const override {
    RecoveryStats stats;
    stats.journal_appends = work_;
    stats.peak_learned_nogoods = work_;
    return stats;
  }

  int received = 0;
  int restarts = 0;
  int amnesias = 0;

 private:
  void announce(MessageSink& out) {
    out.send(peer_, OkMessage{.sender = id_, .var = id_, .value = 0});
  }

  AgentId id_;
  AgentId peer_;
  std::uint64_t work_;
  std::uint64_t checks_ = 0;
};

struct Fixture {
  explicit Fixture(const FaultConfig& faults = {},
                   std::int64_t ack_timeout = 10) {
    problem.add_variables(2, 2);
    recovery::RetransmitConfig retransmit;
    retransmit.ack_timeout = ack_timeout;
    host = std::make_unique<AgentHost>(problem, 2, faults, retransmit,
                                       AgentHost::Tracking::kAlways);
    a0 = static_cast<StubAgent*>(
        &host->add_agent(std::make_unique<StubAgent>(0, 1, 10)));
    a1 = static_cast<StubAgent*>(
        &host->add_agent(std::make_unique<StubAgent>(1, 0, 20)));
  }

  /// The recording carrier.
  std::vector<AgentHost::Copy> drain() {
    std::vector<AgentHost::Copy> out;
    host->drain([&out](AgentHost::Copy& copy) { out.push_back(std::move(copy)); });
    return out;
  }

  AgentHost::Delivery deliver(AgentId from, AgentId to, std::uint64_t seq,
                              const WireFrame& frame = {}) {
    MessagePayload payload = OkMessage{.sender = from, .var = from, .value = 0};
    return host->deliver(from, to, seq, frame, payload);
  }

  RunMetrics fold() const {
    RunMetrics m;
    host->fold(m);
    return m;
  }

  Problem problem;
  std::unique_ptr<AgentHost> host;
  StubAgent* a0 = nullptr;
  StubAgent* a1 = nullptr;
};

const WireFrame kGarbage = {0xdead, 0xbeef, 0xf00d};

TEST(AgentHost, DuplicateTrackedFrameIsAckedButNotShownToTheAgent) {
  Fixture f;
  EXPECT_EQ(f.deliver(0, 1, 1), AgentHost::Delivery::kDelivered);
  EXPECT_EQ(f.a1->received, 1);
  std::vector<AgentHost::Copy> out = f.drain();
  ASSERT_EQ(out.size(), 2u);  // the ack, then the compute's ok?
  EXPECT_EQ(out[0].ack_of, 1u);
  EXPECT_EQ(out[0].from, 1);
  EXPECT_EQ(out[0].to, 0);

  EXPECT_EQ(f.deliver(0, 1, 1), AgentHost::Delivery::kDuplicate);
  EXPECT_EQ(f.a1->received, 1);
  out = f.drain();
  ASSERT_EQ(out.size(), 1u);  // re-acked: the first ack may have been lost
  EXPECT_EQ(out[0].ack_of, 1u);
}

TEST(AgentHost, RefusedFrameGetsNoAck) {
  Fixture f;
  EXPECT_EQ(f.deliver(0, 1, 1, kGarbage), AgentHost::Delivery::kRefused);
  EXPECT_EQ(f.a1->received, 0);
  EXPECT_TRUE(f.drain().empty());
  EXPECT_EQ(f.fold().malformed_frames, 1u);
  // The same sequence number, now with a clean frame, is not a duplicate.
  EXPECT_EQ(f.deliver(0, 1, 1, encode_frame(OkMessage{.sender = 0, .var = 0, .value = 1})),
            AgentHost::Delivery::kDelivered);
}

TEST(AgentHost, CrashDrawConsumesTheMessageBeforeAdmission) {
  FaultConfig faults;
  faults.crash_rate = 1.0;
  faults.max_crashes_per_agent = 1;
  Fixture f(faults);
  // The crash comes first: the garbage frame dies with the receiver and is
  // never counted as malformed.
  EXPECT_EQ(f.deliver(0, 1, 1, kGarbage), AgentHost::Delivery::kCrashed);
  EXPECT_EQ(f.a1->restarts, 1);
  EXPECT_EQ(f.a1->received, 0);
  EXPECT_EQ(f.fold().malformed_frames, 0u);
  EXPECT_EQ(f.fold().faults.crashes, 1u);
  // Budget spent: the next garbage frame reaches admission.
  EXPECT_EQ(f.deliver(0, 1, 1, kGarbage), AgentHost::Delivery::kRefused);
  EXPECT_EQ(f.fold().malformed_frames, 1u);
}

TEST(AgentHost, AmnesiaDrawForgetsTheAgent) {
  FaultConfig faults;
  faults.amnesia_rate = 1.0;
  Fixture f(faults);
  f.host->act(*f.a0, [](Agent& a, MessageSink& sink) { a.start(sink); });
  f.drain();
  ASSERT_TRUE(f.host->next_retransmit().has_value());  // a0's ok? awaits its ack
  EXPECT_EQ(f.deliver(1, 0, 0), AgentHost::Delivery::kCrashed);
  EXPECT_EQ(f.a0->amnesias, 1);
  // forget_agent dropped the pre-crash send; only the restart's is pending.
  const std::vector<AgentHost::Copy> out = f.drain();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].track_seq, 2u);
  f.host->ack(0, 1, 2);
  EXPECT_FALSE(f.host->next_retransmit().has_value());
}

TEST(AgentHost, HeartbeatSendsAreUntrackedAndCounted) {
  Fixture f;
  f.host->heartbeat_round();
  const std::vector<AgentHost::Copy> out = f.drain();
  ASSERT_EQ(out.size(), 2u);
  for (const AgentHost::Copy& copy : out) EXPECT_EQ(copy.track_seq, 0u);
  EXPECT_FALSE(f.host->next_retransmit().has_value());
  const RunMetrics m = f.fold();
  EXPECT_EQ(m.messages, 2u);
  EXPECT_EQ(m.refresh_messages, 2u);
  EXPECT_EQ(m.heartbeats, 1u);
}

TEST(AgentHost, OutOfRangeWireSenderIsRefusedBeforeAnyMatrix) {
  FaultConfig faults;
  faults.crash_rate = 1.0;
  Fixture f(faults);
  for (const AgentId from : {AgentId{-1}, AgentId{2}, AgentId{1 << 30}}) {
    EXPECT_EQ(f.deliver(from, 1, 7, kGarbage), AgentHost::Delivery::kRefused);
  }
  EXPECT_EQ(f.deliver(0, 5, 7, kGarbage), AgentHost::Delivery::kRefused);
  EXPECT_EQ(f.deliver(0, -3, 7, kGarbage), AgentHost::Delivery::kRefused);
  f.host->ack(-1, 1, 1);  // ignored, not indexed
  f.host->ack(0, 99, 1);
  EXPECT_TRUE(f.drain().empty());
  const RunMetrics m = f.fold();
  EXPECT_EQ(m.faults.crashes, 0u);  // no crash stream was drawn
  EXPECT_EQ(m.malformed_frames, 0u);
  EXPECT_EQ(f.a1->restarts, 0);
}

TEST(AgentHost, FoldEqualsTheSumOfItsParts) {
  FaultConfig faults;
  faults.duplicate_rate = 1.0;
  Fixture f(faults);
  f.host->for_each_agent([&f](Agent& agent) {
    f.host->act(agent, [](Agent& a, MessageSink& sink) { a.start(sink); });
  });
  EXPECT_EQ(f.drain().size(), 4u);  // two sends, each duplicated
  EXPECT_EQ(f.deliver(0, 1, 1), AgentHost::Delivery::kDelivered);
  f.host->heartbeat_round();
  f.drain();

  RunMetrics m;
  m.messages = 100;
  m.total_checks = 1000;
  m.work_ops = 5;
  m.journal_appends = 7;
  m.peak_learned_nogoods = 15;
  f.host->fold(m);
  EXPECT_EQ(m.messages, 100u + 5u);  // 2 starts + 1 compute + 2 beats
  EXPECT_EQ(m.refresh_messages, 2u);
  EXPECT_EQ(m.heartbeats, 1u);
  EXPECT_EQ(m.total_checks, 1000u + 3u);
  EXPECT_EQ(m.work_ops, 5u + 10u + 20u);
  EXPECT_EQ(m.journal_appends, 7u + 10u + 20u);
  EXPECT_EQ(m.nogoods_generated, 2u);
  EXPECT_EQ(m.peak_learned_nogoods, 20u);  // a max, not a sum
  // Every channel draw duplicated: 2 starts, 1 ack, 1 compute, 2 beats.
  EXPECT_EQ(m.faults.duplicated, 6u);
}

}  // namespace
}  // namespace discsp::sim
