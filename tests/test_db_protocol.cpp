// DB protocol mechanics at the message level: wave transitions, improve
// arithmetic, winner tie-breaking, quasi-local-minimum weight growth, and the
// per-neighbor guards (sender validation, round guards, neighbor list).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "db/db_agent.h"

namespace discsp::db {
namespace {

class RecordingSink final : public sim::MessageSink {
 public:
  void send(AgentId to, sim::MessagePayload payload) override {
    sent.emplace_back(to, std::move(payload));
  }
  std::vector<std::pair<AgentId, sim::MessagePayload>> sent;

  template <typename T>
  std::vector<T> of_type() const {
    std::vector<T> out;
    for (const auto& [to, payload] : sent) {
      if (const T* m = std::get_if<T>(&payload)) out.push_back(*m);
    }
    return out;
  }
  void clear() { sent.clear(); }
};

/// Agent 1 owns x1 over {0,1}, facing neighbors a0 (x0) and a`far` (x`far`),
/// with not-equal nogoods toward both.
DbAgent make_agent(Value initial, AgentId far = 2) {
  std::vector<Nogood> nogoods;
  for (Value v = 0; v < 2; ++v) {
    nogoods.push_back(Nogood{{0, v}, {1, v}});
    nogoods.push_back(Nogood{{1, v}, {far, v}});
  }
  return DbAgent(1, 1, 2, initial, {0, far}, std::move(nogoods), Rng(3));
}

// DB messages carry the sender's wave round in `seq` (see db_agent.h); the
// helpers default to round 1, the first wave after start().
sim::OkMessage ok(AgentId sender, VarId var, Value value, std::uint64_t round = 1) {
  return sim::OkMessage{.sender = sender, .var = var, .value = value, .priority = 0,
                        .seq = round};
}

sim::ImproveMessage improve(AgentId sender, std::int64_t imp, std::int64_t eval,
                            std::uint64_t round = 1) {
  return sim::ImproveMessage{.sender = sender, .var = sender, .improve = imp,
                             .eval = eval, .seq = round};
}

TEST(DbProtocol, StartBroadcastsValue) {
  DbAgent agent = make_agent(0);
  RecordingSink sink;
  agent.start(sink);
  EXPECT_EQ(sink.of_type<sim::OkMessage>().size(), 2u);
}

TEST(DbProtocol, ImproveWaveAfterAllValues) {
  DbAgent agent = make_agent(0);
  RecordingSink sink;
  agent.start(sink);
  sink.clear();

  agent.receive(sim::MessagePayload{ok(0, 0, 0)});
  agent.compute(sink);
  EXPECT_TRUE(sink.sent.empty()) << "one neighbor still missing";

  agent.receive(sim::MessagePayload{ok(2, 2, 1)});
  agent.compute(sink);
  const auto improves = sink.of_type<sim::ImproveMessage>();
  ASSERT_EQ(improves.size(), 2u);
  // Current value 0 clashes with x0=0 (weight 1) but not x2=1: eval 1.
  // Moving to 1 clashes with x2 instead: eval 1 either way, improve 0.
  EXPECT_EQ(improves[0].eval, 1);
  EXPECT_EQ(improves[0].improve, 0);
}

TEST(DbProtocol, WinnerMovesAfterImproveWave) {
  DbAgent agent = make_agent(0);
  RecordingSink sink;
  agent.start(sink);
  // Both neighbors at 0: our eval(0) = 2, eval(1) = 0 -> improve 2.
  agent.receive(sim::MessagePayload{ok(0, 0, 0)});
  agent.receive(sim::MessagePayload{ok(2, 2, 0)});
  agent.compute(sink);
  sink.clear();

  agent.receive(sim::MessagePayload{improve(0, 1, 1)});
  agent.receive(sim::MessagePayload{improve(2, 1, 1)});
  agent.compute(sink);
  EXPECT_EQ(agent.current_value(), 1) << "improve 2 beats both neighbors' 1";
  const auto oks = sink.of_type<sim::OkMessage>();
  ASSERT_EQ(oks.size(), 2u);
  EXPECT_EQ(oks[0].value, 1);
}

TEST(DbProtocol, LoserDefersToStrongerNeighbor) {
  DbAgent agent = make_agent(0);
  RecordingSink sink;
  agent.start(sink);
  agent.receive(sim::MessagePayload{ok(0, 0, 0)});
  agent.receive(sim::MessagePayload{ok(2, 2, 0)});
  agent.compute(sink);
  sink.clear();

  agent.receive(sim::MessagePayload{improve(0, 5, 3)});  // stronger claim
  agent.receive(sim::MessagePayload{improve(2, 0, 0)});
  agent.compute(sink);
  EXPECT_EQ(agent.current_value(), 0) << "neighbor with improve 5 wins the round";
}

TEST(DbProtocol, EqualImproveTieGoesToSmallerId) {
  DbAgent agent = make_agent(0);  // id 1
  RecordingSink sink;
  agent.start(sink);
  agent.receive(sim::MessagePayload{ok(0, 0, 0)});
  agent.receive(sim::MessagePayload{ok(2, 2, 0)});
  agent.compute(sink);  // our improve is 2
  sink.clear();

  // Neighbor a0 also claims improve 2: a0 has the smaller id and wins.
  agent.receive(sim::MessagePayload{improve(0, 2, 2)});
  agent.receive(sim::MessagePayload{improve(2, 0, 0)});
  agent.compute(sink);
  EXPECT_EQ(agent.current_value(), 0);

  // Symmetric case (round 2): neighbor a2 claims improve 2; we (id 1) win
  // the tie.
  agent.receive(sim::MessagePayload{ok(0, 0, 0, 2)});
  agent.receive(sim::MessagePayload{ok(2, 2, 0, 2)});
  agent.compute(sink);
  agent.receive(sim::MessagePayload{improve(0, 0, 0, 2)});
  agent.receive(sim::MessagePayload{improve(2, 2, 2, 2)});
  agent.compute(sink);
  EXPECT_EQ(agent.current_value(), 1);
}

TEST(DbProtocol, QuasiLocalMinimumRaisesViolatedWeights) {
  DbAgent agent = make_agent(0);
  RecordingSink sink;
  agent.start(sink);
  // x0 = 0 and x2 = 1: both of our values clash once -> eval 1, improve 0.
  agent.receive(sim::MessagePayload{ok(0, 0, 0)});
  agent.receive(sim::MessagePayload{ok(2, 2, 1)});
  agent.compute(sink);
  sink.clear();

  for (std::size_t i = 0; i < agent.num_nogoods(); ++i) {
    EXPECT_EQ(agent.weight_of(i), 1);
  }
  // Nobody can improve: quasi-local-minimum -> violated nogood weight +1.
  agent.receive(sim::MessagePayload{improve(0, 0, 1)});
  agent.receive(sim::MessagePayload{improve(2, 0, 1)});
  agent.compute(sink);
  std::int64_t total = 0;
  for (std::size_t i = 0; i < agent.num_nogoods(); ++i) total += agent.weight_of(i);
  EXPECT_EQ(total, 5) << "exactly the one violated nogood ((x0,0)(x1,0)) gets +1";
  EXPECT_EQ(agent.current_value(), 0) << "breakout does not move the agent";
}

TEST(DbProtocol, NoBreakoutWhenANeighborCanImprove) {
  DbAgent agent = make_agent(0);
  RecordingSink sink;
  agent.start(sink);
  agent.receive(sim::MessagePayload{ok(0, 0, 0)});
  agent.receive(sim::MessagePayload{ok(2, 2, 1)});
  agent.compute(sink);
  agent.receive(sim::MessagePayload{improve(0, 3, 4)});  // neighbor will act
  agent.receive(sim::MessagePayload{improve(2, 0, 1)});
  agent.compute(sink);
  std::int64_t total = 0;
  for (std::size_t i = 0; i < agent.num_nogoods(); ++i) total += agent.weight_of(i);
  EXPECT_EQ(total, 4) << "weights untouched while someone can still move";
}

TEST(DbProtocol, IsolatedAgentSettlesOnUnaryOptimum) {
  std::vector<Nogood> nogoods{Nogood{{7, 0}}};  // unary: x7 != 0
  DbAgent agent(7, 7, 3, 0, {}, std::move(nogoods), Rng(1));
  RecordingSink sink;
  agent.start(sink);
  EXPECT_TRUE(sink.sent.empty());
  EXPECT_NE(agent.current_value(), 0);
}

/// Builds agent 1 with `neighbors` and expects the constructor to reject the
/// list with an error that contains `needle`.
void expect_rejected(std::vector<AgentId> neighbors, const std::string& needle) {
  try {
    DbAgent agent(1, 1, 2, 0, std::move(neighbors), {}, Rng(3));
    ADD_FAILURE() << "neighbor list accepted; expected an error naming " << needle;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
  }
}

TEST(DbProtocol, RejectsNegativeNeighborId) {
  expect_rejected({0, -3}, "negative neighbor id -3");
}

TEST(DbProtocol, RejectsSelfAsNeighbor) {
  expect_rejected({0, 1, 2}, "lists itself (1)");
}

TEST(DbProtocol, RejectsDuplicateNeighbor) {
  expect_rejected({0, 2, 2}, "duplicate neighbor id 2");
}

// Senders that must never count as neighbors of make_agent(0, 4): a2 sits
// inside the sender -> slot table but is not a neighbor, -1 is negative and
// 1000 lies past the table.
constexpr AgentId kStrangers[] = {2, -1, 1000};

TEST(DbProtocol, OkFromNonNeighborIsIgnored) {
  DbAgent agent = make_agent(0, 4);
  RecordingSink sink;
  agent.start(sink);
  sink.clear();

  agent.receive(sim::MessagePayload{ok(0, 0, 0)});
  for (AgentId s : kStrangers) {
    // Claims x0 = 1 (which would clear our clash) and a far-ahead round
    // (which would make a neighbor's ok? fast-forward ours).
    agent.receive(sim::MessagePayload{ok(s, 0, 1, 50)});
    agent.receive(sim::MessagePayload{ok(s, 4, 1)});
  }
  agent.compute(sink);
  EXPECT_TRUE(sink.sent.empty()) << "a4's ok? is still missing";
  EXPECT_EQ(agent.round(), 1u);

  agent.receive(sim::MessagePayload{ok(4, 4, 1)});
  agent.compute(sink);
  const auto improves = sink.of_type<sim::ImproveMessage>();
  ASSERT_EQ(improves.size(), 2u);
  EXPECT_EQ(improves[0].eval, 1) << "x0 = 0 from a0 still clashes with our 0";
  EXPECT_EQ(improves[0].seq, 1u);
}

TEST(DbProtocol, ImproveFromNonNeighborIsIgnored) {
  DbAgent agent = make_agent(0, 4);
  RecordingSink sink;
  agent.start(sink);
  // Both neighbors at 0: our eval(0) = 2, eval(1) = 0 -> improve 2.
  agent.receive(sim::MessagePayload{ok(0, 0, 0)});
  agent.receive(sim::MessagePayload{ok(4, 4, 0)});
  agent.compute(sink);
  sink.clear();

  agent.receive(sim::MessagePayload{improve(0, 1, 1)});
  for (AgentId s : kStrangers) {
    agent.receive(sim::MessagePayload{improve(s, 9, 9)});  // would beat our 2
    agent.receive(sim::MessagePayload{improve(s, 9, 9, 50)});
  }
  agent.compute(sink);
  EXPECT_TRUE(sink.sent.empty()) << "a4's improve is still missing";
  EXPECT_EQ(agent.round(), 1u);

  agent.receive(sim::MessagePayload{improve(4, 1, 1)});
  agent.compute(sink);
  EXPECT_EQ(agent.round(), 2u);
  EXPECT_EQ(agent.current_value(), 1) << "our improve 2 beats both real claims";
}

TEST(DbProtocol, StaleOkDoesNotChangeTheView) {
  DbAgent agent = make_agent(0);
  RecordingSink sink;
  agent.start(sink);
  sink.clear();

  agent.receive(sim::MessagePayload{ok(0, 0, 0, 2)});
  agent.receive(sim::MessagePayload{ok(0, 0, 1, 1)});  // older round: dropped
  agent.receive(sim::MessagePayload{ok(2, 2, 1)});
  agent.compute(sink);
  const auto improves = sink.of_type<sim::ImproveMessage>();
  ASSERT_EQ(improves.size(), 2u);
  EXPECT_EQ(improves[0].eval, 1) << "x0 = 0 (round 2) must survive the round-1 copy";
}

TEST(DbProtocol, DuplicatedImproveDoesNotCompleteWaveB) {
  DbAgent agent = make_agent(0);
  RecordingSink sink;
  agent.start(sink);
  agent.receive(sim::MessagePayload{ok(0, 0, 0)});
  agent.receive(sim::MessagePayload{ok(2, 2, 0)});
  agent.compute(sink);
  sink.clear();

  agent.receive(sim::MessagePayload{improve(0, 1, 1)});
  agent.receive(sim::MessagePayload{improve(0, 1, 1)});
  agent.compute(sink);
  EXPECT_TRUE(sink.sent.empty()) << "two copies from a0 are not a2's improve";
  EXPECT_EQ(agent.round(), 1u);

  agent.receive(sim::MessagePayload{improve(2, 1, 1)});
  agent.compute(sink);
  EXPECT_EQ(agent.round(), 2u);
  EXPECT_EQ(sink.of_type<sim::OkMessage>().size(), 2u);
}

}  // namespace
}  // namespace discsp::db
