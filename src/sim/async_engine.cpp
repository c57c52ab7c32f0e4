#include "sim/async_engine.h"

#include <algorithm>
#include <map>
#include <optional>
#include <stdexcept>

namespace discsp::sim {

namespace {

const AsyncConfig& validated(const AsyncConfig& config) {
  if (config.min_delay < 1 || config.max_delay < config.min_delay) {
    throw std::invalid_argument("async delays must satisfy 1 <= min <= max");
  }
  config.faults.validate();
  config.retransmit.validate();
  return config;
}

}  // namespace

AsyncEngine::AsyncEngine(const Problem& problem, std::vector<std::unique_ptr<Agent>> agents,
                         AsyncConfig config, Rng rng)
    : problem_(problem),
      config_(validated(config)),
      rng_(rng),
      monitor_(config_.monitor.enabled
                   ? std::make_unique<InvariantMonitor>(
                         config_.monitor, static_cast<int>(agents.size()))
                   : nullptr),
      // Without a fault plan nothing can be lost, so the detector only runs
      // alongside one, keeping fault-free runs on the historical code path.
      host_(problem, static_cast<int>(agents.size()), config_.faults,
            config_.retransmit, AgentHost::Tracking::kWithFaultPlan,
            monitor_.get()) {
  for (auto& agent : agents) host_.add_agent(std::move(agent));
}

RunResult AsyncEngine::run() {
  RunResult result;
  AgentHost::TimedQueue queue;
  std::uint64_t seq = 0;
  // Per-channel FIFO: never schedule a delivery earlier than the channel's
  // last scheduled one. Reordered (faulted) copies bypass this floor and
  // leave it untouched.
  std::map<std::pair<AgentId, AgentId>, std::int64_t> channel_floor;

  // The carrier: every copy the host emits (sends, retransmissions, acks)
  // rides the latency model into the event queue.
  const auto carry = [&](AgentHost::Copy& copy) {
    const std::int64_t now = host_.now();
    const auto delay = static_cast<std::int64_t>(rng_.between(
                           config_.min_delay, config_.max_delay)) +
                       copy.extra_delay;
    std::int64_t at;
    auto& floor = channel_floor[{copy.from, copy.to}];
    if (copy.reorder) {
      // May undercut the floor (overtake earlier traffic) and does not
      // raise it for later messages.
      at = now + delay;
    } else {
      at = std::max(now + delay, floor + 1);
      floor = at;
    }
    queue.push({at, seq++, std::move(copy)});
  };

  // The global assignment, refilled in place for every solution test.
  FullAssignment assignment;
  auto snapshot = [&]() -> const FullAssignment& {
    assignment.assign(static_cast<std::size_t>(problem_.num_variables()), kNoValue);
    host_.for_each_agent([&assignment](const Agent& agent) {
      assignment[static_cast<std::size_t>(agent.variable())] = agent.current_value();
    });
    return assignment;
  };

  host_.set_now(0);
  host_.for_each_agent([&](Agent& agent) {
    AgentHost::Sink sink(host_, agent.id());
    agent.start(sink);
    agent.take_checks();  // the paper's metrics start at the first activation
  });
  host_.drain(carry);

  if (problem_.is_solution(snapshot())) {
    result.metrics.solved = true;
    result.assignment = snapshot();
    host_.fold(result.metrics);
    return result;
  }

  // Anti-entropy heartbeat period in virtual time (0 = no refresh). Only a
  // fault plan can make messages disappear, so only then is refresh needed
  // — and only then can the queue drain while the system is still unsolved.
  const std::int64_t refresh = host_.refresh_interval();
  std::int64_t next_refresh = refresh;

  std::uint64_t activations = 0;
  std::uint64_t popped = 0;  // conservation: every push is popped or queued
  while (activations < config_.max_activations) {
    // Retransmission timer: fires when its deadline precedes every queued
    // delivery (and the heartbeat, when both are pending). One batch of due
    // retries counts as one activation, like a heartbeat round.
    const std::optional<std::int64_t> retx_due = host_.next_retransmit();
    const bool retx_ready =
        retx_due.has_value() && (queue.empty() || queue.top().at >= *retx_due);
    if (retx_ready && (refresh <= 0 || *retx_due <= next_refresh)) {
      host_.set_now(std::max(host_.now(), *retx_due));
      host_.fire_retransmits();
      host_.drain(carry);
      if (monitor_ != nullptr) monitor_->on_activation(host_.now());
      ++activations;
      continue;
    }
    if (refresh > 0 && (queue.empty() || queue.top().at >= next_refresh)) {
      // Fire one heartbeat round at its scheduled virtual time. Counted as
      // one activation so a fully-partitioned run still terminates at the
      // cap.
      host_.set_now(next_refresh);
      host_.heartbeat_round();
      host_.drain(carry);
      next_refresh += refresh;
      if (monitor_ != nullptr) monitor_->on_activation(host_.now());
      ++activations;
      continue;
    }
    if (queue.empty()) break;

    AgentHost::Timed ev = queue.pop();
    ++popped;
    host_.set_now(ev.at);
    AgentHost::Copy& copy = ev.copy;

    if (copy.ack_of != 0) {
      // Transport ack: clear the pending entry on the original channel
      // (copy.to, copy.from). Pure bookkeeping — not an activation.
      host_.ack(copy.to, copy.from, copy.ack_of);
      continue;
    }

    if (monitor_ != nullptr) monitor_->on_activation(ev.at);
    const AgentHost::Delivery delivery = host_.deliver(
        copy.from, copy.to, copy.track_seq, copy.frame, copy.payload);
    host_.drain(carry);
    // A suppressed duplicate is no activation; a refused frame is one, but
    // changed nothing the snapshot could see.
    if (delivery == AgentHost::Delivery::kDuplicate) continue;
    ++activations;
    if (delivery == AgentHost::Delivery::kRefused) continue;

    const Agent& agent = *host_.agent(copy.to);
    if (agent.detected_insoluble()) {
      if (monitor_ != nullptr) monitor_->on_insoluble(agent.id(), ev.at);
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
  host_.fold(result.metrics);
  result.metrics.maxcck = result.metrics.total_checks;
  result.assignment = snapshot();
  if (monitor_ != nullptr) {
    // Conservation identity (invariant b): every event ever pushed was
    // either popped or is still queued at run end.
    monitor_->check_conservation(seq, popped, queue.size(), host_.now());
    result.metrics.monitor = monitor_->summary();
  }
  return result;
}

}  // namespace discsp::sim
