#include "sim/sync_engine.h"

#include <algorithm>
#include <stdexcept>

namespace discsp::sim {

namespace {

/// Collects a cycle's outgoing messages for next-cycle delivery.
class CycleSink final : public MessageSink {
 public:
  explicit CycleSink(std::vector<std::vector<MessagePayload>>& inboxes)
      : inboxes_(inboxes) {}

  void send(AgentId to, MessagePayload payload) override {
    if (to < 0 || static_cast<std::size_t>(to) >= inboxes_.size()) {
      throw std::out_of_range("message addressed to unknown agent " + std::to_string(to));
    }
    inboxes_[static_cast<std::size_t>(to)].push_back(std::move(payload));
    ++count_;
  }

  std::uint64_t count() const { return count_; }

 private:
  std::vector<std::vector<MessagePayload>>& inboxes_;
  std::uint64_t count_ = 0;
};

}  // namespace

SyncEngine::SyncEngine(const Problem& problem, std::vector<std::unique_ptr<Agent>> agents)
    : problem_(problem), agents_(std::move(agents)) {
  std::vector<bool> owned(static_cast<std::size_t>(problem.num_variables()), false);
  for (const auto& a : agents_) {
    if (a == nullptr) throw std::invalid_argument("null agent");
    const VarId v = a->variable();
    if (v < 0 || v >= problem.num_variables()) {
      throw std::invalid_argument("agent owns unknown variable");
    }
    if (owned[static_cast<std::size_t>(v)]) {
      throw std::invalid_argument("two agents own variable x" + std::to_string(v));
    }
    owned[static_cast<std::size_t>(v)] = true;
  }
}

void SyncEngine::snapshot_into(FullAssignment& out) const {
  out.assign(static_cast<std::size_t>(problem_.num_variables()), kNoValue);
  for (const auto& agent : agents_) {
    out[static_cast<std::size_t>(agent->variable())] = agent->current_value();
  }
}

RunResult SyncEngine::run(int max_cycles) {
  RunResult result;
  quiescent_ = false;

  const std::size_t n = agents_.size();
  std::vector<std::vector<MessagePayload>> current(n);
  std::vector<std::vector<MessagePayload>> next(n);

  // Initialization: agents pick initial values and send initial ok?s. This is
  // not counted as a cycle; the paper's cycle 1 is the first read/compute/send
  // round.
  {
    CycleSink sink(next);
    for (auto& agent : agents_) agent->start(sink);
    for (auto& agent : agents_) agent->take_checks();  // discard init checks
    result.metrics.messages += sink.count();
  }

  // The global assignment, refilled in place once per cycle.
  FullAssignment assignment;
  snapshot_into(assignment);
  if (problem_.is_solution(assignment)) {
    result.metrics.solved = true;
    result.assignment = std::move(assignment);
    for (const auto& agent : agents_) add_agent_counters(*agent, result.metrics);
    return result;
  }

  while (result.metrics.cycles < max_cycles) {
    current.swap(next);
    for (auto& inbox : next) inbox.clear();

    std::uint64_t delivered = 0;
    CycleSink sink(next);
    std::uint64_t cycle_max_checks = 0;

    for (std::size_t i = 0; i < n; ++i) {
      Agent& agent = *agents_[i];
      for (MessagePayload& msg : current[i]) {
        agent.receive(msg);
        ++delivered;
      }
      agent.compute(sink);
      const std::uint64_t checks = agent.take_checks();
      cycle_max_checks = std::max(cycle_max_checks, checks);
      result.metrics.total_checks += checks;
    }

    ++result.metrics.cycles;
    result.metrics.maxcck += cycle_max_checks;
    result.metrics.messages += sink.count();

    snapshot_into(assignment);
    if (observer_ != nullptr) {
      CycleSnapshot obs;
      obs.cycle = result.metrics.cycles;
      obs.delivered = delivered;
      obs.sent = sink.count();
      obs.max_checks = cycle_max_checks;
      obs.violated_nogoods = problem_.violated_count(assignment);
      obs.assignment = &assignment;
      observer_->on_cycle(obs);
    }

    for (const auto& agent : agents_) {
      if (agent->detected_insoluble()) {
        result.metrics.insoluble = true;
      }
    }
    if (result.metrics.insoluble) break;

    if (problem_.is_solution(assignment)) {
      result.metrics.solved = true;
      break;
    }

    if (delivered == 0 && sink.count() == 0) {
      // Nothing in flight and nobody spoke: the system has quiesced without a
      // solution (possible only for incomplete variants or insoluble inputs).
      quiescent_ = true;
      break;
    }
  }

  result.metrics.hit_cycle_cap =
      !result.metrics.solved && !result.metrics.insoluble && !quiescent_;
  result.assignment = std::move(assignment);  // refilled after the last cycle
  for (const auto& agent : agents_) add_agent_counters(*agent, result.metrics);
  return result;
}

}  // namespace discsp::sim
