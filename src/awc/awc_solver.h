// AwcSolver: wires AWC agents from a DistributedProblem, runs them on the
// synchronous simulator, and returns the paper's metrics. Also exposes the
// agent factory so the asynchronous engines can host the same algorithm.
#pragma once

#include <memory>
#include <vector>

#include "common/rng.h"
#include "csp/distributed_problem.h"
#include "learning/strategy.h"
#include "recovery/journal.h"
#include "sim/metrics.h"
#include "sim/sync_engine.h"

namespace discsp::awc {

struct AwcOptions {
  /// The paper's cycle cap.
  int max_cycles = 10000;
  /// When false, recipients do not record incoming nogoods ("Rslv/norec").
  bool record_received = true;
  /// Bound on resident learned nogoods per agent (0 = unbounded).
  std::size_t nogood_capacity = 0;
  /// Per-agent write-ahead journal for amnesia-crash recovery.
  bool journal = false;
  recovery::JournalConfig journal_config;
  /// Counter-based consistency tests (paper metrics are bit-identical to the
  /// flat-scan path; see docs/PERF.md).
  bool incremental = true;
};

class AwcSolver {
 public:
  /// `strategy_prototype` is cloned per agent. The distributed problem must
  /// assign exactly one variable per agent.
  AwcSolver(const DistributedProblem& problem,
            const learning::LearningStrategy& strategy_prototype,
            AwcOptions options = {});

  /// Run one trial from the given initial assignment. `rng` drives all agent
  /// tie-breaking (derived per-agent streams), making trials reproducible.
  sim::RunResult solve(const FullAssignment& initial, const Rng& rng);

  /// Random initial assignment helper (the paper's "randomly generate sets
  /// of initial values").
  FullAssignment random_initial(Rng& rng) const;

  /// Build fresh agents for use with any engine. The returned agents hold
  /// shared ownership of the solver-independent directory structures, so
  /// they may outlive the solver.
  std::vector<std::unique_ptr<sim::Agent>> make_agents(const FullAssignment& initial,
                                                       const Rng& rng) const;

  const DistributedProblem& problem() const { return problem_; }

 private:
  const DistributedProblem& problem_;
  std::unique_ptr<learning::LearningStrategy> strategy_;
  AwcOptions options_;
  std::shared_ptr<const std::vector<AgentId>> owner_of_var_;
};

}  // namespace discsp::awc
