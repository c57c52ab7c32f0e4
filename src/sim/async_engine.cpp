#include "sim/async_engine.h"

#include <algorithm>
#include <map>
#include <optional>
#include <queue>
#include <stdexcept>
#include <tuple>

namespace discsp::sim {

namespace {

struct Event {
  std::int64_t time = 0;
  std::uint64_t seq = 0;  // tie-break: stable delivery order
  AgentId to = kNoAgent;
  MessagePayload payload;
  AgentId from = kNoAgent;
  /// Reliability frame number (failure detector active); 0 = untracked.
  std::uint64_t track_seq = 0;
  /// When non-zero this event is a transport ack: `from` acknowledges frame
  /// `ack_of` on channel (to, from). Never shown to the agent.
  std::uint64_t ack_of = 0;
  /// Serialized payload when the wire format is active (corruption enabled).
  /// Non-empty frames are what actually "travels": the receiver must
  /// checksum-verify and validate the frame, and `payload` is replaced by
  /// the decoded result (or the delivery is dropped as malformed).
  WireFrame frame;
};

struct EventLater {
  bool operator()(const Event& a, const Event& b) const {
    return std::tie(a.time, a.seq) > std::tie(b.time, b.seq);
  }
};

}  // namespace

AsyncEngine::AsyncEngine(const Problem& problem, std::vector<std::unique_ptr<Agent>> agents,
                         AsyncConfig config, Rng rng)
    : problem_(problem), agents_(std::move(agents)), config_(config), rng_(rng) {
  if (config_.min_delay < 1 || config_.max_delay < config_.min_delay) {
    throw std::invalid_argument("async delays must satisfy 1 <= min <= max");
  }
  config_.faults.validate();
  config_.retransmit.validate();
  if (config_.faults.enabled()) {
    plan_ = std::make_unique<FaultPlan>(config_.faults,
                                        static_cast<int>(agents_.size()));
    if (config_.retransmit.enabled()) {
      // Without a fault plan nothing can be lost, so the detector only runs
      // alongside one — keeping fault-free runs on the historical code path.
      retransmit_ = std::make_unique<recovery::RetransmitBuffer>(
          config_.retransmit, static_cast<int>(agents_.size()));
    }
    if (config_.faults.corrupt_rate > 0) {
      // Corruption is possible, so payloads must actually travel as
      // checksummed frames and receivers must validate before delivery.
      wire_ = std::make_unique<WireLimits>(
          wire_limits_for(problem_, static_cast<int>(agents_.size())));
      guard_ = std::make_unique<ChannelGuard>(static_cast<int>(agents_.size()),
                                              config_.faults.quarantine_budget,
                                              config_.faults.quarantine_duration);
    }
  }
  if (config_.monitor.enabled) {
    monitor_ = std::make_unique<InvariantMonitor>(
        config_.monitor, static_cast<int>(agents_.size()));
  }
}

AsyncEngine::~AsyncEngine() = default;

RunResult AsyncEngine::run() {
  RunResult result;
  std::priority_queue<Event, std::vector<Event>, EventLater> queue;
  std::uint64_t seq = 0;
  // Per-channel FIFO: never schedule a delivery earlier than the channel's
  // last scheduled one. Reordered (faulted) messages bypass this floor and
  // leave it untouched.
  std::map<std::pair<AgentId, AgentId>, std::int64_t> channel_floor;

  AgentId current_sender = kNoAgent;
  // Heartbeat re-announcements are idempotent repair traffic; tracking them
  // would flood the detector with copies of state the next beat re-sends
  // anyway, so only regular protocol sends are tracked.
  bool tracking = true;
  class QueueSink final : public MessageSink {
   public:
    QueueSink(AsyncEngine& engine, decltype(queue)& q, std::uint64_t& seq,
              decltype(channel_floor)& floor, const AgentId& sender,
              const bool& tracking, std::uint64_t& messages)
        : engine_(engine), queue_(q), seq_(seq), floor_(floor), sender_(sender),
          tracking_(tracking), messages_(messages) {}

    void send(AgentId to, MessagePayload payload) override {
      if (to < 0 || static_cast<std::size_t>(to) >= engine_.agents_.size()) {
        throw std::out_of_range("message addressed to unknown agent");
      }
      ++messages_;
      if (engine_.monitor_ != nullptr) {
        engine_.monitor_->on_send(sender_, payload, engine_.now_);
      }
      if (engine_.plan_ == nullptr) {
        schedule(sender_, to, std::move(payload), /*reorder=*/false,
                 /*extra_delay=*/0, /*track_seq=*/0, /*ack_of=*/0);
        return;
      }
      std::uint64_t track_seq = 0;
      if (engine_.retransmit_ != nullptr && tracking_) {
        track_seq = engine_.retransmit_->track(sender_, to, payload, engine_.now_);
      }
      const ChannelVerdict verdict =
          engine_.plan_->on_send(sender_, to, engine_.now_);
      // Encoded into the reusable scratch: the sink lives for the whole run,
      // so steady-state sends reuse its capacity instead of allocating.
      const bool framed = engine_.wire_ != nullptr && verdict.copies > 0;
      if (framed) {
        encode_frame_into(payload, frame_scratch_);
        if (verdict.corrupt) corrupt_frame(frame_scratch_, verdict.corrupt_seed);
      }
      for (int copy = 0; copy < verdict.copies; ++copy) {
        schedule(sender_, to, payload, verdict.reorder, verdict.extra_delay,
                 track_seq, /*ack_of=*/0, framed ? frame_scratch_ : WireFrame{});
      }
    }

    /// Transport-level scheduling (acks, retransmissions): bypasses the
    /// protocol `messages` counter but still rides the latency model.
    void schedule(AgentId from, AgentId to, MessagePayload payload, bool reorder,
                  std::int64_t extra_delay, std::uint64_t track_seq,
                  std::uint64_t ack_of, WireFrame frame = {}) {
      const auto delay =
          static_cast<std::int64_t>(engine_.rng_.between(
              engine_.config_.min_delay, engine_.config_.max_delay)) +
          extra_delay;
      std::int64_t at;
      auto& floor = floor_[{from, to}];
      if (reorder) {
        // May undercut the floor (overtake earlier traffic) and does not
        // raise it for later messages.
        at = engine_.now_ + delay;
      } else {
        at = std::max(engine_.now_ + delay, floor + 1);
        floor = at;
      }
      queue_.push(Event{at, seq_++, to, std::move(payload), from, track_seq,
                        ack_of, std::move(frame)});
    }

   private:
    AsyncEngine& engine_;
    decltype(queue)& queue_;
    std::uint64_t& seq_;
    decltype(channel_floor)& floor_;
    const AgentId& sender_;
    const bool& tracking_;
    std::uint64_t& messages_;
    WireFrame frame_scratch_;
  };

  QueueSink sink(*this, queue, seq, channel_floor, current_sender, tracking,
                 result.metrics.messages);

  // The receiver returns an ack frame for every tracked frame it gets —
  // including duplicates, whose earlier ack may itself have been lost. Acks
  // traverse the same lossy channel model as everything else.
  auto send_ack = [&](const Event& ev) {
    const ChannelVerdict verdict = plan_->on_send(ev.to, ev.from, now_);
    // A corrupted ack is unparseable garbage to its receiver: model it as
    // lost (the sender keeps retransmitting until a clean ack lands).
    if (verdict.corrupt) return;
    for (int copy = 0; copy < verdict.copies; ++copy) {
      sink.schedule(ev.to, ev.from, MessagePayload{}, verdict.reorder,
                    verdict.extra_delay, /*track_seq=*/0, /*ack_of=*/ev.track_seq);
    }
  };

  auto snapshot = [&]() {
    FullAssignment a(static_cast<std::size_t>(problem_.num_variables()), kNoValue);
    for (const auto& agent : agents_) {
      a[static_cast<std::size_t>(agent->variable())] = agent->current_value();
    }
    return a;
  };

  now_ = 0;
  for (auto& agent : agents_) {
    current_sender = agent->id();
    agent->start(sink);
    agent->take_checks();
  }

  if (problem_.is_solution(snapshot())) {
    result.metrics.solved = true;
    result.assignment = snapshot();
    for (const auto& agent : agents_) add_agent_counters(*agent, result.metrics);
    return result;
  }

  // Anti-entropy heartbeat period in virtual time (0 = no refresh). Only a
  // fault plan can make messages disappear, so only then is refresh needed
  // — and only then can the queue drain while the system is still unsolved.
  const std::int64_t refresh =
      plan_ != nullptr ? config_.faults.refresh_interval : 0;
  std::int64_t next_refresh = refresh;

  std::uint64_t activations = 0;
  std::uint64_t popped = 0;  // conservation: every push is popped or queued
  while (activations < config_.max_activations) {
    // Retransmission timer: fires when its deadline precedes every queued
    // delivery (and the heartbeat, when both are pending). One batch of due
    // retries counts as one activation, like a heartbeat round.
    const std::optional<std::int64_t> retx_due =
        retransmit_ != nullptr ? retransmit_->next_deadline() : std::nullopt;
    const bool retx_ready =
        retx_due.has_value() && (queue.empty() || queue.top().time >= *retx_due);
    if (retx_ready && (refresh <= 0 || *retx_due <= next_refresh)) {
      now_ = std::max(now_, *retx_due);
      for (const recovery::RetransmitBuffer::Due& d :
           retransmit_->collect_due(now_)) {
        const ChannelVerdict verdict = plan_->on_send(d.from, d.to, now_);
        // Retransmissions re-encode from the tracked (clean) payload, so a
        // corrupted original cannot poison its own repair.
        WireFrame frame;
        if (wire_ != nullptr && verdict.copies > 0) {
          frame = encode_frame(*d.payload);
          if (verdict.corrupt) corrupt_frame(frame, verdict.corrupt_seed);
        }
        for (int copy = 0; copy < verdict.copies; ++copy) {
          sink.schedule(d.from, d.to, *d.payload, verdict.reorder,
                        verdict.extra_delay, d.seq, /*ack_of=*/0, frame);
        }
      }
      if (monitor_ != nullptr) monitor_->on_activation(now_);
      ++activations;
      continue;
    }
    if (refresh > 0 && (queue.empty() || queue.top().time >= next_refresh)) {
      // Fire one heartbeat round at its scheduled virtual time: every agent
      // re-announces whatever repairs dropped messages. Counted as one
      // activation so a fully-partitioned run still terminates at the cap.
      now_ = next_refresh;
      const std::uint64_t before = result.metrics.messages;
      tracking = false;
      for (auto& agent : agents_) {
        current_sender = agent->id();
        agent->on_heartbeat(sink);
        result.metrics.total_checks += agent->take_checks();
      }
      tracking = true;
      result.metrics.refresh_messages += result.metrics.messages - before;
      ++result.metrics.heartbeats;
      next_refresh += refresh;
      if (monitor_ != nullptr) monitor_->on_activation(now_);
      ++activations;
      continue;
    }
    if (queue.empty()) break;

    Event ev = queue.top();
    queue.pop();
    ++popped;
    now_ = ev.time;

    if (ev.ack_of != 0) {
      // Transport ack: clear the pending entry on the original channel
      // (ev.to, ev.from). Pure bookkeeping — not an activation.
      retransmit_->ack(ev.to, ev.from, ev.ack_of);
      continue;
    }

    Agent& agent = *agents_[static_cast<std::size_t>(ev.to)];
    current_sender = agent.id();
    if (monitor_ != nullptr) monitor_->on_activation(now_);
    const CrashKind crash =
        plan_ != nullptr ? plan_->on_deliver(ev.to) : CrashKind::kNone;
    if (crash == CrashKind::kRestart) {
      // The receiver crash-restarts; the in-flight message dies with it.
      // The restart re-announces state through the sink, and the snapshot
      // checks below still apply (the assignment just changed). A tracked
      // frame stays unacked, so the detector redelivers it later.
      agent.crash_restart(sink);
    } else if (crash == CrashKind::kAmnesia) {
      if (retransmit_ != nullptr) retransmit_->forget_agent(ev.to);
      agent.amnesia_restart(sink);
    } else {
      if (!ev.frame.empty()) {
        // The wire format is active: what arrived is the frame, and it must
        // survive checksum + semantic validation before the agent (or even
        // the dedup/ack machinery) reacts to it. A refused frame is dropped
        // and counted with no ack, so a tracked frame is retransmitted (from
        // the clean tracked payload) like any lost message.
        if (!guard_->admit(ev.from, ev.to, now_, ev.frame, *wire_,
                           ev.payload)) {
          ++activations;
          continue;
        }
      }
      if (ev.track_seq != 0) {
        const bool duplicate =
            retransmit_->mark_delivered(ev.from, ev.to, ev.track_seq);
        send_ack(ev);
        if (duplicate) continue;  // suppressed; the agent never sees it
      }
      if (monitor_ != nullptr) {
        monitor_->on_deliver(ev.from, ev.to, ev.payload, now_);
      }
      const Value value_before = agent.current_value();
      agent.receive(ev.payload);
      agent.compute(sink);
      if (monitor_ != nullptr && agent.current_value() != value_before) {
        monitor_->on_progress(now_);  // O(1) stall-watchdog feed
      }
    }
    result.metrics.total_checks += agent.take_checks();
    ++activations;

    if (agent.detected_insoluble()) {
      if (monitor_ != nullptr) monitor_->on_insoluble(agent.id(), now_);
      result.metrics.insoluble = true;
      break;
    }
    // Test the snapshot after every activation, exactly like the synchronous
    // engine tests it after every cycle. Some protocols (DB) never quiesce,
    // so waiting for a drained queue would spin until the activation cap.
    if (problem_.is_solution(snapshot())) {
      result.metrics.solved = true;
      break;
    }
  }

  // A drained queue without a solution is quiescence-without-success; for a
  // complete algorithm this indicates insolubility handling elsewhere. With
  // heartbeats active the queue can only be empty because the cap cut the
  // loop off mid-refresh (e.g. a total blackout), which is a capped run,
  // not quiescence.
  if (!result.metrics.solved && !result.metrics.insoluble) {
    const bool capped = activations >= config_.max_activations;
    if (queue.empty() && !(capped && refresh > 0)) {
      result.metrics.solved = problem_.is_solution(snapshot());
    } else {
      result.metrics.hit_cycle_cap = true;  // activation cap reached
    }
  }

  result.metrics.cycles = static_cast<int>(activations);
  result.metrics.maxcck = result.metrics.total_checks;
  result.assignment = snapshot();
  for (const auto& agent : agents_) add_agent_counters(*agent, result.metrics);
  set_channel_counters(plan_.get(), retransmit_.get(), guard_.get(),
                       result.metrics);
  if (monitor_ != nullptr) {
    // Conservation identity (invariant b): every event ever pushed was
    // either popped or is still queued at run end.
    monitor_->check_conservation(seq, popped, queue.size(), now_);
    result.metrics.monitor = monitor_->summary();
  }
  return result;
}

}  // namespace discsp::sim
