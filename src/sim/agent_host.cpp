#include "sim/agent_host.h"

#include <stdexcept>
#include <string>
#include <utility>

namespace discsp::sim {

AgentHost::AgentHost(const Problem& problem, int num_agents,
                     const FaultConfig& faults,
                     const recovery::RetransmitConfig& retransmit,
                     Tracking tracking, InvariantMonitor* monitor)
    : agents_(static_cast<std::size_t>(num_agents)),
      limits_(wire_limits_for(problem, num_agents)),
      guard_(num_agents, faults.quarantine_budget, faults.quarantine_duration),
      monitor_(monitor) {
  if (faults.enabled()) {
    plan_ = std::make_unique<FaultPlan>(faults, num_agents);
    seal_ = faults.corrupt_rate > 0;
  }
  if (retransmit.enabled() &&
      (plan_ != nullptr || tracking == Tracking::kAlways)) {
    retransmit_ =
        std::make_unique<recovery::RetransmitBuffer>(retransmit, num_agents);
  }
}

Agent& AgentHost::add_agent(std::unique_ptr<Agent> agent) {
  const AgentId id = agent->id();
  if (id < 0 || id >= num_agents() || this->agent(id) != nullptr) {
    throw std::invalid_argument("agent host: cannot host agent " +
                                std::to_string(id));
  }
  return *(agents_[static_cast<std::size_t>(id)] = std::move(agent));
}

void AgentHost::remove_agent(AgentId id) {
  if (agent(id) == nullptr) return;
  if (retransmit_ != nullptr) retransmit_->forget_agent(id);
  agents_[static_cast<std::size_t>(id)].reset();
}

template <class P>
void AgentHost::emit(AgentId from, AgentId to, P&& payload,
                     std::uint64_t track_seq) {
  ChannelVerdict verdict;  // no plan: one clean copy
  if (plan_ != nullptr) verdict = plan_->on_send(from, to, now_);
  if (verdict.copies == 0) return;
  if (seal_) {
    encode_frame_into(payload, frame_scratch_);
    if (verdict.corrupt) corrupt_frame(frame_scratch_, verdict.corrupt_seed);
  }
  for (int c = 1; c <= verdict.copies; ++c) {
    // The last copy takes the payload itself.
    outbox_.push_back({from, to,
                       c < verdict.copies ? MessagePayload(payload)
                                          : MessagePayload(std::forward<P>(payload)),
                       seal_ ? frame_scratch_ : WireFrame{}, track_seq, 0,
                       verdict.reorder, verdict.extra_delay});
  }
}

void AgentHost::send(AgentId from, AgentId to, MessagePayload payload,
                     bool tracking) {
  if (to < 0 || to >= num_agents()) {
    throw std::out_of_range("message addressed to unknown agent");
  }
  ++messages_;
  if (!tracking) ++refresh_messages_;
  if (monitor_ != nullptr) monitor_->on_send(from, payload, now_);
  std::uint64_t track_seq = 0;
  if (retransmit_ != nullptr && tracking) {
    track_seq = retransmit_->track(from, to, payload, now_);
  }
  emit(from, to, std::move(payload), track_seq);
}

AgentHost::Delivery AgentHost::deliver(AgentId from, AgentId to,
                                       std::uint64_t track_seq,
                                       std::span<const std::uint64_t> frame,
                                       MessagePayload& payload) {
  // The guard, plan and detector matrices are indexed by agent id; a forged
  // out-of-range sender is refused before any of them is touched.
  if (from < 0 || from >= num_agents()) return Delivery::kRefused;
  Agent* target = agent(to);
  if (target == nullptr) return Delivery::kRefused;
  Sink sink(*this, to);

  const CrashKind crash =
      plan_ != nullptr ? plan_->on_deliver(to) : CrashKind::kNone;
  if (crash != CrashKind::kNone) {
    // The receiver crashes before admission and the in-flight message dies
    // with it. A tracked frame stays unacked, so the detector redelivers
    // it; the restart re-announces through the sink.
    if (crash == CrashKind::kAmnesia) {
      if (retransmit_ != nullptr) retransmit_->forget_agent(to);
      target->amnesia_restart(sink);
    } else {
      target->crash_restart(sink);
    }
    checks_ += target->take_checks();
    return Delivery::kCrashed;
  }

  // What arrived is the frame: it must survive the quarantine check and
  // checksum + semantic validation before the agent, or even the dedup and
  // ack machinery, reacts to it. A refused frame gets no ack, so a tracked
  // one is retransmitted from its clean payload like any lost message.
  if (!frame.empty() &&
      !guard_.admit(from, to, now_, frame, limits_, payload)) {
    return Delivery::kRefused;
  }
  if (track_seq != 0 && retransmit_ != nullptr) {
    // Duplicates are acked too: their earlier ack may have been lost.
    const bool duplicate = retransmit_->mark_delivered(from, to, track_seq);
    send_ack(from, to, track_seq);
    if (duplicate) return Delivery::kDuplicate;
  }
  if (monitor_ != nullptr) monitor_->on_deliver(from, to, payload, now_);
  const Value before = monitor_ != nullptr ? target->current_value() : kNoValue;
  target->receive(payload);
  target->compute(sink);
  if (monitor_ != nullptr && target->current_value() != before) {
    monitor_->on_progress(now_);  // O(1) stall-watchdog feed
  }
  checks_ += target->take_checks();
  return Delivery::kDelivered;
}

void AgentHost::send_ack(AgentId from, AgentId to, std::uint64_t seq) {
  // The ack travels the reverse channel under the same fault model. A
  // corrupted ack is unparseable to its receiver, so it counts as lost: the
  // sender keeps retransmitting until a clean ack lands.
  ChannelVerdict verdict;
  if (plan_ != nullptr) verdict = plan_->on_send(to, from, now_);
  if (verdict.corrupt) return;
  for (int c = 0; c < verdict.copies; ++c) {
    outbox_.push_back({to, from, {}, {}, 0, seq, verdict.reorder,
                       verdict.extra_delay});
  }
}

void AgentHost::ack(AgentId from, AgentId to, std::uint64_t seq) {
  if (retransmit_ == nullptr || from < 0 || from >= num_agents() || to < 0 ||
      to >= num_agents()) {
    return;
  }
  retransmit_->ack(from, to, seq);
}

void AgentHost::fire_retransmits() {
  if (retransmit_ == nullptr) return;
  // Each retry re-encodes the tracked clean payload, so a corrupted
  // original cannot poison its own repair.
  for (const recovery::RetransmitBuffer::Due& d :
       retransmit_->collect_due(now_)) {
    emit(d.from, d.to, *d.payload, d.seq);
  }
}

void AgentHost::heartbeat_round() {
  for (const auto& agent : agents_) {
    if (agent == nullptr) continue;
    Sink sink(*this, agent->id(), /*tracking=*/false);
    agent->on_heartbeat(sink);
    checks_ += agent->take_checks();
  }
  ++heartbeats_;
}

void AgentHost::fold(RunMetrics& m) const {
  m.messages += messages_;
  m.refresh_messages += refresh_messages_;
  m.heartbeats += heartbeats_;
  m.total_checks += checks_;
  if (plan_ != nullptr) m.faults = plan_->summary();
  if (retransmit_ != nullptr) {
    m.retransmissions += retransmit_->retransmissions();
    m.detector_false_positives += retransmit_->false_positives();
  }
  m.malformed_frames += guard_.malformed_frames();
  m.quarantines += guard_.quarantines();
  m.quarantine_drops += guard_.quarantine_drops();
  m.quarantine_readmissions += guard_.readmissions();
  for_each_agent([&m](const Agent& agent) { add_agent_counters(agent, m); });
}

}  // namespace discsp::sim
