// Synchronous distributed-system simulator — the measurement environment of
// the paper's evaluation. All agents advance in lockstep cycles; messages
// sent in cycle t are readable in cycle t+1.
#pragma once

#include <memory>
#include <vector>

#include "sim/agent.h"
#include "sim/metrics.h"

namespace discsp::sim {

/// Per-cycle observation delivered to an attached CycleObserver: enough to
/// build convergence profiles (violations over time) without touching the
/// agents' own metrics.
struct CycleSnapshot {
  int cycle = 0;
  std::uint64_t delivered = 0;      // messages read this cycle
  std::uint64_t sent = 0;           // messages emitted this cycle
  std::uint64_t max_checks = 0;     // max per-agent checks this cycle
  std::size_t violated_nogoods = 0; // of the original problem, at cycle end
  const FullAssignment* assignment = nullptr;
};

class CycleObserver {
 public:
  virtual ~CycleObserver() = default;
  virtual void on_cycle(const CycleSnapshot& snapshot) = 0;
};

class SyncEngine {
 public:
  /// `problem` is used only for the external solution test; agents never see
  /// it. Every agent must own a distinct variable of the problem.
  SyncEngine(const Problem& problem, std::vector<std::unique_ptr<Agent>> agents);

  /// Run until the global assignment is a solution, insolubility is detected,
  /// the system quiesces, or `max_cycles` elapse (the paper's cap is 10000).
  RunResult run(int max_cycles);

  /// True when the last run() ended with no messages in flight and no agent
  /// sending — for a complete algorithm this implies `solved`.
  bool quiescent() const { return quiescent_; }

  /// Attach a per-cycle observer (nullptr detaches). Observation adds one
  /// violation count per cycle and is otherwise free.
  void set_observer(CycleObserver* observer) { observer_ = observer; }

  /// Access the agents (e.g. to inspect stores after a run).
  const std::vector<std::unique_ptr<Agent>>& agents() const { return agents_; }

 private:
  /// Refill `out` with every agent's current value (kNoValue where no
  /// agent owns the variable), reusing its capacity.
  void snapshot_into(FullAssignment& out) const;

  const Problem& problem_;
  std::vector<std::unique_ptr<Agent>> agents_;
  CycleObserver* observer_ = nullptr;
  bool quiescent_ = false;
};

}  // namespace discsp::sim
