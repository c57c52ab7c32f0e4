// One host for a set of local agents: the send, delivery and repair pipeline
// of both asynchronous runtimes, AsyncEngine (virtual ticks) and the serve
// worker (milliseconds since the job epoch). One thread drives a host, so
// the parts it owns take no locks: the agents (a dense table indexed by
// AgentId), the seeded FaultPlan, the ack/retransmit detector, the wire
// defence (WireLimits + ChannelGuard) and the monitor's per-message hooks:
//   send     count -> monitor -> track -> FaultPlan::on_send -> seal (and
//            corrupt) when corruption is configured -> one Copy per copy;
//   deliver  sender range check -> crash draw -> admit -> dedup + ack ->
//            monitor -> receive/compute;
//   repair   due retransmissions; untracked heartbeat rounds.
// Copies land in an outbox the runtime's carrier drains in order after each
// host call (AsyncEngine: its event queue; the worker: its egress heap and
// ACK batches), so no copy costs a virtual call. What differs per runtime is
// Tracking, a constructor argument; the activation policy is one receive +
// compute per delivery in both, for now.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "recovery/retransmit.h"
#include "sim/agent.h"

namespace discsp::sim {

class AgentHost {
 public:
  /// Whether the failure detector runs without a fault plan. AsyncEngine:
  /// only with one (nothing else can lose a message, and fault-free streams
  /// stay as they were). Serve: always (connections break for real).
  enum class Tracking { kWithFaultPlan, kAlways };

  /// What one delivery came to; each runtime keeps its own bookkeeping.
  enum class Delivery {
    kRefused,    ///< unknown sender or receiver, or the frame failed admission; no ack
    kCrashed,    ///< the receiver crashed first; the message died with it
    kDuplicate,  ///< a tracked frame seen before: acked, not shown to the agent
    kDelivered,  ///< received and computed
  };

  /// One frame copy on its way: a protocol send, a retransmission, or a
  /// transport ack.
  struct Copy {
    AgentId from = kNoAgent;
    AgentId to = kNoAgent;
    MessagePayload payload;  ///< the clean payload (empty for an ack)
    WireFrame frame;  ///< sealed, maybe corrupted; empty unless corruption is on
    std::uint64_t track_seq = 0;  ///< reliability frame number; 0 = untracked
    /// Nonzero: `from` acks frame `ack_of` of channel (to, from).
    std::uint64_t ack_of = 0;
    bool reorder = false;  ///< may overtake earlier traffic on its channel
    std::int64_t extra_delay = 0;  ///< delay spike on top of the latency
  };

  /// A copy held until `at`; `order` breaks ties first-in, first-out.
  struct Timed {
    std::int64_t at = 0;
    std::uint64_t order = 0;
    Copy copy;
    bool operator>(const Timed& other) const {
      return at != other.at ? at > other.at : order > other.order;
    }
  };
  /// The runtimes' time-ordered queue of copies, earliest (at, order)
  /// first. pop() moves the entry out, payload and frame included, where
  /// std::priority_queue::top() could only copy it.
  class TimedQueue {
   public:
    bool empty() const { return heap_.empty(); }
    std::size_t size() const { return heap_.size(); }
    const Timed& top() const { return heap_.front(); }
    void push(Timed timed) {
      heap_.push_back(std::move(timed));
      std::push_heap(heap_.begin(), heap_.end(), std::greater<Timed>{});
    }
    Timed pop() {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<Timed>{});
      Timed timed = std::move(heap_.back());
      heap_.pop_back();
      return timed;
    }

   private:
    std::vector<Timed> heap_;
  };

  /// The sink through which hosted agent `sender` emits. Heartbeat rounds
  /// send untracked: re-announcements are idempotent repair traffic that the
  /// next round re-sends anyway.
  class Sink final : public MessageSink {
   public:
    Sink(AgentHost& host, AgentId sender, bool tracking = true)
        : host_(host), sender_(sender), tracking_(tracking) {}
    void send(AgentId to, MessagePayload payload) override {
      host_.send(sender_, to, std::move(payload), tracking_);
    }

   private:
    AgentHost& host_;
    AgentId sender_;
    bool tracking_;
  };

  /// A host for `problem` split into `num_agents` agents. The fault plan
  /// exists only when `faults` can fire; `monitor` may be null.
  AgentHost(const Problem& problem, int num_agents, const FaultConfig& faults,
            const recovery::RetransmitConfig& retransmit, Tracking tracking,
            InvariantMonitor* monitor = nullptr);

  int num_agents() const { return static_cast<int>(agents_.size()); }

  /// Host `agent` in its id's slot; throws on an out-of-range or taken id.
  Agent& add_agent(std::unique_ptr<Agent> agent);
  /// Stop hosting `id` (migrated away): its detector state goes with it.
  void remove_agent(AgentId id);
  /// The hosted agent `id`, or nullptr (not hosted here, or out of range).
  Agent* agent(AgentId id) const {
    if (id < 0 || id >= num_agents()) return nullptr;
    return agents_[static_cast<std::size_t>(id)].get();
  }
  /// Visit every hosted agent in ascending id order.
  template <class F>
  void for_each_agent(F&& visit) const {
    for (const auto& agent : agents_) {
      if (agent != nullptr) visit(*agent);
    }
  }

  /// The time every following host call stamps: virtual ticks in
  /// AsyncEngine, milliseconds since the job epoch on the worker.
  void set_now(std::int64_t now) { now_ = now; }
  std::int64_t now() const { return now_; }

  /// Run one control action of hosted `agent` (start, restart, capsule
  /// import) through its tracked sink, banking the checks it spends.
  template <class F>
  void act(Agent& agent, F&& action) {
    Sink sink(*this, agent.id());
    action(agent, sink);
    checks_ += agent.take_checks();
  }

  /// Deliver one copy on channel (from, to). A non-empty `frame` is what
  /// travelled: it must pass admission, which decodes it into `payload`.
  Delivery deliver(AgentId from, AgentId to, std::uint64_t track_seq,
                   std::span<const std::uint64_t> frame,
                   MessagePayload& payload);
  /// The receiver acknowledged `seq` on channel (from, to). Ignored without
  /// a failure detector or for an out-of-range channel (a wire id).
  void ack(AgentId from, AgentId to, std::uint64_t seq);
  /// Re-send every tracked send whose retry deadline has passed.
  void fire_retransmits();
  /// One heartbeat round: every hosted agent re-announces, untracked.
  void heartbeat_round();
  /// Earliest retry deadline, if a tracked send awaits its ack.
  std::optional<std::int64_t> next_retransmit() const {
    return retransmit_ != nullptr ? retransmit_->next_deadline() : std::nullopt;
  }
  /// Heartbeat period; 0 without a fault plan (nothing needs repair then).
  std::int64_t refresh_interval() const {
    return plan_ != nullptr ? plan_->config().refresh_interval : 0;
  }

  /// Hand every emitted copy, in emission order, to `carry(Copy&)`, which
  /// may move from it; then empty the outbox.
  template <class F>
  void drain(F&& carry) {
    for (Copy& copy : outbox_) carry(copy);
    outbox_.clear();
  }

  /// Add this host's totals to `m`: sends, refresh sends, heartbeats and
  /// checks, the retransmit and guard counters, and every hosted agent's
  /// lifetime counters. The fault summary is set (one plan per run).
  void fold(RunMetrics& m) const;

 private:
  void send(AgentId from, AgentId to, MessagePayload payload, bool tracking);
  template <class P>
  void emit(AgentId from, AgentId to, P&& payload, std::uint64_t track_seq);
  void send_ack(AgentId from, AgentId to, std::uint64_t seq);

  std::vector<std::unique_ptr<Agent>> agents_;
  std::unique_ptr<FaultPlan> plan_;
  std::unique_ptr<recovery::RetransmitBuffer> retransmit_;
  WireLimits limits_;
  ChannelGuard guard_;
  InvariantMonitor* monitor_;
  /// Payloads travel as sealed frames: only when corruption can fire.
  bool seal_ = false;
  std::int64_t now_ = 0;
  std::vector<Copy> outbox_;
  /// Reusable encode scratch (its capacity persists across sends).
  WireFrame frame_scratch_;

  std::uint64_t messages_ = 0;
  std::uint64_t refresh_messages_ = 0;
  std::uint64_t heartbeats_ = 0;
  std::uint64_t checks_ = 0;
};

}  // namespace discsp::sim
