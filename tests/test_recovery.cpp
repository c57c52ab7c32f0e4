// Recovery-layer unit tests (src/recovery/, csp/nogood_store.h):
//  - write-ahead log: append/checkpoint accounting, log truncation, and the
//    block-reserved sequence durability used across amnesia crashes;
//  - retransmission backoff: the schedule is deterministic in the jitter
//    seed, grows exponentially, and respects the max_timeout cap;
//  - retransmit buffer: selective-repeat tracking, ack clearing, duplicate
//    suppression, false-positive counting, give-up, and amnesia forgetting;
//    a differential fuzz against a full-scan reference (every deadline, due
//    retry and dedup answer identical) and a bounded in-order dedup;
//  - bounded nogood store: the capacity bound always holds and eviction
//    never removes an initial, unit, or currently-violated nogood.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "common/rng.h"

#include "csp/nogood_store.h"
#include "recovery/journal.h"
#include "recovery/retransmit.h"

namespace discsp {
namespace {

using recovery::Checkpoint;
using recovery::JournalConfig;
using recovery::JournalRecord;
using recovery::RecordType;
using recovery::RetransmitBuffer;
using recovery::RetransmitConfig;
using recovery::WriteAheadLog;

TEST(WriteAheadLog, AppendAndCheckpointAccounting) {
  JournalConfig config;
  config.checkpoint_interval = 3;
  WriteAheadLog wal(config);
  EXPECT_EQ(wal.appends(), 0u);
  EXPECT_FALSE(wal.should_checkpoint());

  wal.append({RecordType::kValue, 2, 0, Nogood{}});
  wal.append({RecordType::kPriority, 1, 0, Nogood{}});
  EXPECT_FALSE(wal.should_checkpoint());
  wal.append({RecordType::kNogood, 0, 0, Nogood{{0, 1}, {1, 2}}});
  EXPECT_TRUE(wal.should_checkpoint());
  EXPECT_EQ(wal.appends(), 3u);
  EXPECT_EQ(wal.records().size(), 3u);

  Checkpoint cp;
  cp.has_value = true;
  cp.value = 2;
  cp.priority = 1;
  cp.learned.push_back(Nogood{{0, 1}, {1, 2}});
  wal.write_checkpoint(cp);
  // The record tail is folded into the checkpoint and truncated.
  EXPECT_EQ(wal.records().size(), 0u);
  EXPECT_FALSE(wal.should_checkpoint());
  EXPECT_EQ(wal.checkpoints(), 1u);
  EXPECT_TRUE(wal.checkpoint().has_value);
  EXPECT_EQ(wal.checkpoint().value, 2);
  ASSERT_EQ(wal.checkpoint().learned.size(), 1u);
  EXPECT_EQ(wal.checkpoint().learned[0], (Nogood{{0, 1}, {1, 2}}));
}

TEST(WriteAheadLog, SequenceBlocksAreReservedNotLogged) {
  JournalConfig config;
  config.seq_reserve = 10;
  WriteAheadLog wal(config);
  EXPECT_EQ(wal.seq_limit(), 0u);

  // First use reserves a whole block with a single record.
  wal.ensure_seq(1);
  EXPECT_EQ(wal.seq_limit(), 10u);
  EXPECT_EQ(wal.appends(), 1u);
  ASSERT_EQ(wal.records().size(), 1u);
  EXPECT_EQ(wal.records()[0].type, RecordType::kSeqReserve);
  EXPECT_EQ(wal.records()[0].a, 10);

  // Every sequence inside the block is covered for free.
  for (std::uint64_t seq = 2; seq <= 10; ++seq) wal.ensure_seq(seq);
  EXPECT_EQ(wal.appends(), 1u);

  // Crossing the limit reserves the next block from the requested seq.
  wal.ensure_seq(11);
  EXPECT_EQ(wal.seq_limit(), 20u);
  EXPECT_EQ(wal.appends(), 2u);
}

TEST(WriteAheadLog, SequenceLimitSurvivesCheckpointTruncation) {
  // A recovering agent resumes from seq_limit(); truncating the log (which
  // discards the kSeqReserve records) must not regress it.
  WriteAheadLog wal(JournalConfig{.checkpoint_interval = 1, .seq_reserve = 8});
  wal.ensure_seq(1);
  EXPECT_EQ(wal.seq_limit(), 8u);
  wal.write_checkpoint(Checkpoint{});
  EXPECT_EQ(wal.records().size(), 0u);
  EXPECT_EQ(wal.seq_limit(), 8u);
}

TEST(WriteAheadLog, ConfigValidation) {
  JournalConfig config;
  EXPECT_NO_THROW(config.validate());
  config.seq_reserve = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = {};
  config.checkpoint_interval = -1;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = {};
  config.checkpoint_interval = 0;  // "never checkpoint" is legal
  EXPECT_NO_THROW(config.validate());
}

TEST(RetransmitBackoff, ScheduleIsDeterministicInTheSeed) {
  RetransmitConfig config;
  config.ack_timeout = 100;
  config.backoff = 2.0;
  Rng a(42), b(42), c(43);
  std::vector<std::int64_t> sched_a, sched_b, sched_c;
  for (int attempt = 0; attempt < 6; ++attempt) {
    sched_a.push_back(config.timeout_for(attempt, a));
    sched_b.push_back(config.timeout_for(attempt, b));
    sched_c.push_back(config.timeout_for(attempt, c));
  }
  EXPECT_EQ(sched_a, sched_b) << "same jitter seed must give the same schedule";
  EXPECT_NE(sched_a, sched_c) << "jitter streams with different seeds collide";
}

TEST(RetransmitBackoff, GrowsExponentiallyUpToTheCap) {
  RetransmitConfig config;
  config.ack_timeout = 100;
  config.backoff = 2.0;
  config.max_timeout = 400;
  Rng jitter(7);
  for (int attempt = 0; attempt < 10; ++attempt) {
    const std::int64_t t = config.timeout_for(attempt, jitter);
    // base * 2^attempt, capped at 400, plus jitter in [0, t/4].
    const std::int64_t base = std::min<std::int64_t>(
        400, static_cast<std::int64_t>(100.0 * std::pow(2.0, attempt)));
    EXPECT_GE(t, base) << "attempt " << attempt;
    EXPECT_LE(t, base + base / 4 + 1) << "attempt " << attempt;
  }
}

TEST(RetransmitBackoff, ConfigValidation) {
  RetransmitConfig config;
  EXPECT_FALSE(config.enabled());  // ack_timeout = 0 is the off switch
  EXPECT_NO_THROW(config.validate());
  config.ack_timeout = 50;
  EXPECT_TRUE(config.enabled());
  EXPECT_NO_THROW(config.validate());
  config.backoff = 0.5;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = {};
  config.ack_timeout = -1;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = {};
  config.max_attempts = -2;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

RetransmitConfig buffer_config() {
  RetransmitConfig config;
  config.ack_timeout = 100;
  config.backoff = 2.0;
  config.max_attempts = 3;
  config.seed = 99;
  return config;
}

TEST(RetransmitBuffer, AckedSendsAreNeverRetransmitted) {
  RetransmitBuffer buffer(buffer_config(), 3);
  const std::uint64_t seq = buffer.track(0, 1, sim::MessagePayload{}, 0);
  EXPECT_EQ(seq, 1u);
  EXPECT_TRUE(buffer.next_deadline().has_value());
  buffer.ack(0, 1, seq);
  EXPECT_FALSE(buffer.next_deadline().has_value());
  EXPECT_TRUE(buffer.collect_due(1'000'000).empty());
  EXPECT_EQ(buffer.retransmissions(), 0u);
}

TEST(RetransmitBuffer, UnackedSendIsRetransmittedWithBackoff) {
  RetransmitBuffer buffer(buffer_config(), 2);
  buffer.track(0, 1, sim::MessagePayload{}, 0);

  const auto first_deadline = buffer.next_deadline();
  ASSERT_TRUE(first_deadline.has_value());
  auto due = buffer.collect_due(*first_deadline);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].from, 0);
  EXPECT_EQ(due[0].to, 1);
  EXPECT_EQ(due[0].seq, 1u);
  EXPECT_EQ(due[0].attempt, 1);
  EXPECT_FALSE(due[0].false_positive);

  // The next deadline backed off (strictly later than a base-timeout step).
  const auto second_deadline = buffer.next_deadline();
  ASSERT_TRUE(second_deadline.has_value());
  EXPECT_GT(*second_deadline, *first_deadline + 100);
  EXPECT_EQ(buffer.retransmissions(), 1u);
}

TEST(RetransmitBuffer, GivesUpAfterMaxAttempts) {
  RetransmitBuffer buffer(buffer_config(), 2);  // max_attempts = 3
  buffer.track(0, 1, sim::MessagePayload{}, 0);
  int fired = 0;
  for (int round = 0; round < 10; ++round) {
    const auto deadline = buffer.next_deadline();
    if (!deadline.has_value()) break;
    fired += static_cast<int>(buffer.collect_due(*deadline).size());
  }
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(buffer.gave_up(), 1u);
  EXPECT_FALSE(buffer.next_deadline().has_value())
      << "a given-up send must leave the pending buffer";
}

TEST(RetransmitBuffer, DuplicateDeliveriesAreReported) {
  RetransmitBuffer buffer(buffer_config(), 2);
  const std::uint64_t seq = buffer.track(0, 1, sim::MessagePayload{}, 0);
  EXPECT_FALSE(buffer.mark_delivered(0, 1, seq));
  EXPECT_TRUE(buffer.mark_delivered(0, 1, seq)) << "second copy is a duplicate";
}

TEST(RetransmitBuffer, LostAckCountsAsFalsePositive) {
  RetransmitBuffer buffer(buffer_config(), 2);
  const std::uint64_t seq = buffer.track(0, 1, sim::MessagePayload{}, 0);
  // Delivered, but the ack never made it back: the sender still suspects.
  buffer.mark_delivered(0, 1, seq);
  const auto deadline = buffer.next_deadline();
  ASSERT_TRUE(deadline.has_value());
  const auto due = buffer.collect_due(*deadline);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_TRUE(due[0].false_positive);
  EXPECT_EQ(buffer.false_positives(), 1u);
}

TEST(RetransmitBuffer, ForgetAgentDropsPendingAndDedupState) {
  RetransmitBuffer buffer(buffer_config(), 3);
  const std::uint64_t out = buffer.track(1, 2, sim::MessagePayload{}, 0);
  const std::uint64_t in = buffer.track(0, 1, sim::MessagePayload{}, 0);
  buffer.mark_delivered(0, 1, in);

  buffer.forget_agent(1);
  // Sender-side pending of agent 1 is gone...
  EXPECT_EQ(buffer.collect_due(1'000'000).size(), 1u)
      << "only the (0,1) send — whose *sender* still remembers it — retries";
  // ...and its receiver-side dedup set is too: the old copy is fresh again.
  EXPECT_FALSE(buffer.mark_delivered(0, 1, in));
  (void)out;

  // Channel sequence counters are transport state and keep increasing.
  EXPECT_EQ(buffer.track(1, 2, sim::MessagePayload{}, 0), out + 1);
}

/// The buffer's semantics as a brute-force model: every query scans all
/// n^2 channels from-major, and dedup keeps every delivered seq in a hash
/// set. Payloads are reduced to a tag.
class ScanReference {
 public:
  struct Due {
    AgentId from = kNoAgent;
    AgentId to = kNoAgent;
    std::uint64_t seq = 0;
    std::uint64_t tag = 0;
    int attempt = 0;
    bool false_positive = false;
  };

  ScanReference(const RetransmitConfig& config, int num_agents)
      : config_(config),
        n_(static_cast<std::size_t>(num_agents)),
        channels_(n_ * n_) {
    for (std::size_t from = 0; from < n_; ++from) {
      for (std::size_t to = 0; to < n_; ++to) {
        // The buffer's per-channel jitter stream derivation.
        std::uint64_t state = config.seed ^ (0x9e3779b97f4a7c15ULL * (from + 1)) ^
                              (0xbf58476d1ce4e5b9ULL * (to + 1));
        channels_[from * n_ + to].jitter = Rng(splitmix64(state));
      }
    }
  }

  std::uint64_t track(AgentId from, AgentId to, std::uint64_t tag,
                      std::int64_t now) {
    Channel& ch = at(from, to);
    const std::uint64_t seq = ch.next_seq++;
    ch.pending[seq] = {tag, now + config_.timeout_for(0, ch.jitter), 0};
    return seq;
  }
  void ack(AgentId from, AgentId to, std::uint64_t seq) {
    at(from, to).pending.erase(seq);
  }
  bool mark_delivered(AgentId from, AgentId to, std::uint64_t seq) {
    return !at(from, to).delivered.insert(seq).second;
  }
  std::optional<std::int64_t> next_deadline() const {
    std::optional<std::int64_t> earliest;
    for (const Channel& ch : channels_) {
      for (const auto& [seq, p] : ch.pending) {
        if (!earliest || p.deadline < *earliest) earliest = p.deadline;
      }
    }
    return earliest;
  }
  std::vector<Due> collect_due(std::int64_t now) {
    std::vector<Due> due;
    for (std::size_t c = 0; c < channels_.size(); ++c) {
      Channel& ch = channels_[c];
      for (auto it = ch.pending.begin(); it != ch.pending.end();) {
        Pending& p = it->second;
        if (p.deadline > now) {
          ++it;
          continue;
        }
        if (p.attempts >= config_.max_attempts) {
          ++gave_up;
          it = ch.pending.erase(it);
          continue;
        }
        ++p.attempts;
        const bool fp = ch.delivered.count(it->first) != 0;
        due.push_back({static_cast<AgentId>(c / n_), static_cast<AgentId>(c % n_),
                       it->first, p.tag, p.attempts, fp});
        p.deadline = now + config_.timeout_for(p.attempts, ch.jitter);
        ++it;
      }
    }
    return due;
  }
  void forget_agent(AgentId agent) {
    const auto a = static_cast<std::size_t>(agent);
    for (std::size_t other = 0; other < n_; ++other) {
      channels_[a * n_ + other].pending.clear();
      channels_[other * n_ + a].delivered.clear();
    }
  }
  std::uint64_t next_seq(AgentId from, AgentId to) { return at(from, to).next_seq; }

  std::uint64_t gave_up = 0;

 private:
  struct Pending {
    std::uint64_t tag = 0;
    std::int64_t deadline = 0;
    int attempts = 0;
  };
  struct Channel {
    std::uint64_t next_seq = 1;
    std::map<std::uint64_t, Pending> pending;
    std::unordered_set<std::uint64_t> delivered;
    Rng jitter;
  };
  Channel& at(AgentId from, AgentId to) {
    return channels_[static_cast<std::size_t>(from) * n_ +
                     static_cast<std::size_t>(to)];
  }

  RetransmitConfig config_;
  std::size_t n_;
  std::vector<Channel> channels_;
};

sim::MessagePayload tagged(std::uint64_t tag) {
  sim::OkMessage ok;
  ok.seq = tag;
  return ok;
}

TEST(RetransmitBuffer, MatchesScanReferenceUnderChurn) {
  constexpr int kAgents = 4;
  RetransmitConfig config;
  config.ack_timeout = 6;
  config.backoff = 2.0;
  config.max_attempts = 3;  // small, so given-up seqs leave permanent gaps
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    config.seed = seed;
    RetransmitBuffer buffer(config, kAgents);
    ScanReference reference(config, kAgents);
    Rng rng(seed * 7919);
    // Next seq each channel's receiver expects in order; deliveries mostly
    // follow it, skip ahead (gaps), or revisit older seqs (duplicates).
    std::vector<std::uint64_t> cursor(kAgents * kAgents, 1);
    std::int64_t now = 0;
    std::uint64_t tag = 0;
    std::uint64_t dues = 0;
    std::uint64_t duplicates = 0;
    for (int step = 0; step < 20000; ++step) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " step " << step);
      const auto from = static_cast<AgentId>(rng.below(kAgents));
      const auto to = static_cast<AgentId>(rng.below(kAgents));
      const std::size_t c = static_cast<std::size_t>(from) * kAgents +
                            static_cast<std::size_t>(to);
      const std::uint64_t op = rng.below(100);
      if (op < 30) {
        ++tag;
        ASSERT_EQ(buffer.track(from, to, tagged(tag), now),
                  reference.track(from, to, tag, now));
      } else if (op < 52) {
        std::uint64_t seq = 0;
        const std::uint64_t how = rng.below(10);
        if (how < 6) {
          seq = cursor[c]++;  // in order
        } else if (how < 8) {
          cursor[c] += 1 + rng.below(3);  // skip: a gap, maybe permanent
          seq = cursor[c]++;
        } else if (how < 9) {
          seq = 1 + rng.below(cursor[c]);  // old seq: a likely duplicate
        } else {
          seq = cursor[c] + rng.below(6);  // ahead of the stream
        }
        const bool dup = reference.mark_delivered(from, to, seq);
        duplicates += dup ? 1 : 0;
        ASSERT_EQ(buffer.mark_delivered(from, to, seq), dup) << "seq " << seq;
      } else if (op < 68) {
        const std::uint64_t seq = rng.below(reference.next_seq(from, to) + 2);
        buffer.ack(from, to, seq);
        reference.ack(from, to, seq);
      } else if (op < 70) {
        buffer.forget_agent(from);  // amnesia of agent `from`
        reference.forget_agent(from);
        for (int other = 0; other < kAgents; ++other) {
          cursor[static_cast<std::size_t>(other) * kAgents +
                 static_cast<std::size_t>(from)] = 1 + rng.below(4);
        }
      } else {
        now += static_cast<std::int64_t>(rng.below(5));
        const auto got = buffer.collect_due(now);
        const auto want = reference.collect_due(now);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].from, want[i].from) << "due " << i;
          EXPECT_EQ(got[i].to, want[i].to) << "due " << i;
          EXPECT_EQ(got[i].seq, want[i].seq) << "due " << i;
          EXPECT_EQ(std::get<sim::OkMessage>(*got[i].payload).seq, want[i].tag)
              << "due " << i;
          EXPECT_EQ(got[i].attempt, want[i].attempt) << "due " << i;
          EXPECT_EQ(got[i].false_positive, want[i].false_positive) << "due " << i;
        }
        dues += got.size();
      }
      ASSERT_EQ(buffer.next_deadline(), reference.next_deadline());
      ASSERT_EQ(buffer.gave_up(), reference.gave_up);
    }
    // The walk must actually reach the interesting states.
    EXPECT_GT(dues, 1000u) << "seed " << seed;
    EXPECT_GT(reference.gave_up, 100u) << "seed " << seed;
    EXPECT_GT(duplicates, 100u) << "seed " << seed;
    EXPECT_GT(buffer.false_positives(), 0u) << "seed " << seed;
  }
}

TEST(RetransmitBuffer, InOrderDedupStaysBounded) {
  RetransmitBuffer buffer(buffer_config(), 2);
  for (std::uint64_t seq = 1; seq <= 1'000'000; ++seq) {
    ASSERT_FALSE(buffer.mark_delivered(0, 1, seq)) << seq;
  }
  EXPECT_EQ(buffer.delivered_above_floor(0, 1), 0u);
  EXPECT_TRUE(buffer.mark_delivered(0, 1, 1));
  EXPECT_TRUE(buffer.mark_delivered(0, 1, 1'000'000));
  // A gap holds later seqs above the floor until it closes.
  EXPECT_FALSE(buffer.mark_delivered(0, 1, 1'000'002));
  EXPECT_FALSE(buffer.mark_delivered(0, 1, 1'000'003));
  EXPECT_EQ(buffer.delivered_above_floor(0, 1), 2u);
  EXPECT_FALSE(buffer.mark_delivered(0, 1, 1'000'001));
  EXPECT_EQ(buffer.delivered_above_floor(0, 1), 0u);
  EXPECT_TRUE(buffer.mark_delivered(0, 1, 1'000'003));
}

TEST(BoundedNogoodStore, CapacityBoundAlwaysHolds) {
  NogoodStore store(0, 4);
  ASSERT_TRUE(store.add(Nogood{{0, 0}}));  // problem constraint
  store.mark_initial();
  store.set_capacity(2);

  for (Value v = 1; v <= 3; ++v) {
    EXPECT_TRUE(store.add(Nogood{{0, v}, {1, v}}));
    EXPECT_LE(store.learned_count(), 2u);
  }
  EXPECT_EQ(store.learned_count(), 2u);
  EXPECT_EQ(store.initial_count(), 1u);
  EXPECT_EQ(store.evictions(), 1u);
  EXPECT_EQ(store.peak_learned(), 2u);
  ASSERT_TRUE(store.last_eviction().has_value());
  // Initial nogoods are exempt from the bound and never evicted.
  EXPECT_TRUE(store.contains(Nogood{{0, 0}}));
}

TEST(BoundedNogoodStore, EvictsTheLeastRecentlyViolated) {
  NogoodStore store(0, 4);
  store.set_capacity(2);
  ASSERT_TRUE(store.add(Nogood{{0, 1}, {1, 1}}));
  ASSERT_TRUE(store.add(Nogood{{0, 2}, {1, 2}}));

  // Touch the first one: the second becomes the LRU victim.
  for (std::size_t i = 0; i < store.size(); ++i) {
    if (store.at(i) == (Nogood{{0, 1}, {1, 1}})) store.note_violation(i);
  }
  ASSERT_TRUE(store.add(Nogood{{0, 3}, {1, 3}}));
  EXPECT_TRUE(store.contains(Nogood{{0, 1}, {1, 1}}));
  EXPECT_FALSE(store.contains(Nogood{{0, 2}, {1, 2}}));
  ASSERT_TRUE(store.last_eviction().has_value());
  EXPECT_EQ(*store.last_eviction(), (Nogood{{0, 2}, {1, 2}}));
}

TEST(BoundedNogoodStore, NeverEvictsACurrentlyViolatedNogood) {
  NogoodStore store(0, 4);
  store.set_capacity(2);
  ASSERT_TRUE(store.add(Nogood{{0, 1}, {1, 1}}));
  ASSERT_TRUE(store.add(Nogood{{0, 2}, {1, 2}}));

  // The mirrored view says the stale-looking first nogood is violated right
  // now: evicting it could re-admit the conflict the agent is resolving.
  store.set_own_value(1);
  store.set_view(1, 1);
  ASSERT_TRUE(store.add(Nogood{{0, 3}, {1, 3}}));
  EXPECT_TRUE(store.contains(Nogood{{0, 1}, {1, 1}}));
  EXPECT_FALSE(store.contains(Nogood{{0, 2}, {1, 2}}));
}

TEST(BoundedNogoodStore, NeverEvictsUnitNogoods) {
  NogoodStore store(0, 4);
  store.set_capacity(2);
  // Unit nogoods prune a whole domain value unconditionally — losing one
  // can cost completeness outright, so they are never victims.
  ASSERT_TRUE(store.add(Nogood{{0, 1}}));
  ASSERT_TRUE(store.add(Nogood{{0, 2}}));
  // Store full of unit nogoods: the add is rejected, the bound still holds.
  EXPECT_FALSE(store.add(Nogood{{0, 3}, {1, 3}}));
  EXPECT_EQ(store.learned_count(), 2u);
  EXPECT_TRUE(store.contains(Nogood{{0, 1}}));
  EXPECT_TRUE(store.contains(Nogood{{0, 2}}));
  EXPECT_EQ(store.evictions(), 0u);
}

TEST(BoundedNogoodStore, RejectsWhenEverythingIsViolated) {
  NogoodStore store(0, 4);
  store.set_capacity(1);
  ASSERT_TRUE(store.add(Nogood{{0, 1}, {1, 1}}));
  // Make the only resident learned nogood currently violated: no victim.
  store.set_own_value(1);
  store.set_view(1, 1);
  EXPECT_FALSE(store.add(Nogood{{0, 2}, {1, 2}}));
  EXPECT_EQ(store.learned_count(), 1u);
}

TEST(BoundedNogoodStore, RemoveByContentSupportsReplay) {
  NogoodStore store(0, 4);
  ASSERT_TRUE(store.add(Nogood{{0, 1}, {1, 1}}));
  ASSERT_TRUE(store.add(Nogood{{0, 2}, {1, 2}}));
  EXPECT_TRUE(store.remove(Nogood{{0, 1}, {1, 1}}));
  EXPECT_FALSE(store.remove(Nogood{{0, 1}, {1, 1}}));  // already gone
  EXPECT_FALSE(store.contains(Nogood{{0, 1}, {1, 1}}));
  EXPECT_TRUE(store.contains(Nogood{{0, 2}, {1, 2}}));
  // Journal-replay removals are not evictions.
  EXPECT_EQ(store.evictions(), 0u);
}

}  // namespace
}  // namespace discsp
