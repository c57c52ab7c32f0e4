// Per-channel ack/seq tracking with backoff retransmission — the failure
// detector both asynchronous runtimes (AsyncEngine and the serve worker) use
// to repair lost messages.
//
// Every tracked send is stamped with a per-channel sequence number and kept
// in a pending buffer until the receiving side acknowledges that exact
// sequence (selective repeat, not go-back-N). A send whose ack has not
// arrived by its timeout is *suspected* lost and retransmitted; each retry
// backs off exponentially (ack_timeout * backoff^attempt, capped at
// max_timeout) plus deterministic per-channel jitter so synchronized losses
// do not resynchronize into retransmission storms. When the suspicion was
// wrong — the receiver provably had the message and only the ack was lost
// or late — the retry is counted as a detector false positive. A send still
// unacked after max_attempts retries is given up; the anti-entropy
// heartbeat then owns its repair.
//
// Costs do not depend on the n^2 channel count. Retry deadlines live in one
// lazily pruned min-heap, so next_deadline() is O(1) amortised and
// collect_due() touches only the due sends; it then orders them by (sender,
// receiver, seq), the order of a full channel scan, so jitter draws and the
// retry sequence do not depend on the heap. Receiver-side dedup keeps a
// per-channel watermark (every seq in [1, floor] was delivered) plus the
// delivered seqs above it: exact membership, with memory bounded by how far
// deliveries run out of order rather than by run length.
//
// The buffer is engine-agnostic: AsyncEngine interprets times as virtual
// ticks, the serve worker as milliseconds. Each run's sim::AgentHost drives
// its buffer from one thread.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "common/rng.h"
#include "sim/message.h"

namespace discsp::recovery {

struct RetransmitConfig {
  /// Base retransmission timeout; 0 disables the whole reliability layer.
  /// Virtual-time units in AsyncEngine, milliseconds on the serve worker.
  std::int64_t ack_timeout = 0;
  /// Exponential backoff factor applied per retry (>= 1).
  double backoff = 2.0;
  /// Upper bound on the backed-off timeout (0 = ack_timeout * 64).
  std::int64_t max_timeout = 0;
  /// Retransmissions per message before giving up (the heartbeat fallback
  /// then owns the repair).
  int max_attempts = 8;
  /// Root seed of the per-channel jitter streams.
  std::uint64_t seed = 0x2e7a11;

  bool enabled() const { return ack_timeout > 0; }

  /// Throws std::invalid_argument on non-positive backoff or negative knobs.
  void validate() const;

  /// Timeout before retry number `attempt` (0-based) on the channel whose
  /// jitter stream is `jitter`: base * backoff^attempt, capped, plus a
  /// uniform jitter draw in [0, timeout/4]. Exposed for the schedule tests.
  std::int64_t timeout_for(int attempt, Rng& jitter) const;
};

class RetransmitBuffer {
 public:
  RetransmitBuffer(const RetransmitConfig& config, int num_agents);

  /// Sender side: track one send on channel (from, to) at time `now`.
  /// Returns the channel sequence number (>= 1) to stamp on the frame.
  std::uint64_t track(AgentId from, AgentId to,
                      const sim::MessagePayload& payload, std::int64_t now);

  /// Sender side: the receiver acknowledged `seq` on (from, to). Unknown
  /// (already acked or given-up) sequences are ignored.
  void ack(AgentId from, AgentId to, std::uint64_t seq);

  /// Receiver side: mark `seq` on (from, to) delivered. Returns true when it
  /// had already been delivered — the caller should drop the duplicate
  /// frame (retransmission of an acked-but-ack-lost message, or a
  /// fault-injected duplicate).
  bool mark_delivered(AgentId from, AgentId to, std::uint64_t seq);

  /// Earliest pending retry deadline, if any send is awaiting its ack.
  std::optional<std::int64_t> next_deadline() const;

  /// Receiver-side dedup entries held above the channel's delivered
  /// watermark (0 once every delivered seq is contiguous from 1).
  std::size_t delivered_above_floor(AgentId from, AgentId to) const;

  struct Due {
    AgentId from = kNoAgent;
    AgentId to = kNoAgent;
    std::uint64_t seq = 0;
    /// Shared handle to the tracked payload (never null). The buffer keeps
    /// one copy per tracked send; retries hand out references to it instead
    /// of duplicating the payload on every backoff round.
    std::shared_ptr<const sim::MessagePayload> payload;
    /// Retry number (1 = first retransmission).
    int attempt = 0;
    /// The receiver already had the message when we suspected it lost: the
    /// detector fired a false positive (counted internally too).
    bool false_positive = false;
  };

  /// Pop every entry due at `now`, advancing each survivor's deadline by its
  /// backed-off timeout and discarding entries past max_attempts. Entries
  /// come out ordered by (from, to, seq).
  std::vector<Due> collect_due(std::int64_t now);

  /// An amnesia crash wiped `agent`: drop its sender-side pending buffers
  /// (it no longer remembers those sends) and its receiver-side dedup sets
  /// (it may accept old duplicates again — the protocols' own sequence
  /// guards absorb that). Sequence counters are transport state and persist.
  void forget_agent(AgentId agent);

  // Lifetime counters.
  std::uint64_t retransmissions() const { return retransmissions_; }
  std::uint64_t false_positives() const { return false_positives_; }
  std::uint64_t gave_up() const { return gave_up_; }

 private:
  struct Pending {
    std::shared_ptr<const sim::MessagePayload> payload;
    std::int64_t deadline = 0;
    int attempts = 0;  // retransmissions so far
  };
  struct Channel {
    std::uint64_t next_seq = 1;                // sender side
    std::map<std::uint64_t, Pending> pending;  // sender side
    // Receiver side: every seq in [1, delivered_floor] was delivered, and so
    // was each seq in delivered_above (all of them > delivered_floor).
    std::uint64_t delivered_floor = 0;
    std::set<std::uint64_t> delivered_above;
    Rng jitter;

    bool delivered(std::uint64_t seq) const {
      return (seq != 0 && seq <= delivered_floor) ||
             delivered_above.count(seq) != 0;
    }
  };
  /// One scheduled retry. Never updated in place: an ack, give-up, reschedule
  /// or forget leaves the entry behind, and it is dropped when it surfaces
  /// (its pending send is gone or now carries another deadline).
  struct Deadline {
    std::int64_t at = 0;
    std::size_t channel = 0;  // index into channels_
    std::uint64_t seq = 0;
    bool operator>(const Deadline& other) const { return at > other.at; }
  };

  Channel& channel(AgentId from, AgentId to);
  const Channel& channel(AgentId from, AgentId to) const;
  bool live(const Deadline& d) const;
  void schedule(std::size_t channel, std::uint64_t seq, std::int64_t at);
  void pop_deadline() const;

  RetransmitConfig config_;
  int num_agents_;
  std::vector<Channel> channels_;  // num_agents^2, row-major by sender
  /// Min-heap on `at` over every pending send's current deadline, plus stale
  /// entries; compacted once stale entries outnumber live ones.
  mutable std::vector<Deadline> deadlines_;
  std::size_t pending_count_ = 0;

  std::uint64_t retransmissions_ = 0;
  std::uint64_t false_positives_ = 0;
  std::uint64_t gave_up_ = 0;
};

}  // namespace discsp::recovery
