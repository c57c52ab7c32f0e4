// AbtSolver: wires asynchronous-backtracking agents (fixed priority order =
// ascending variable id) and runs them on the synchronous simulator.
#pragma once

#include <memory>
#include <vector>

#include "common/rng.h"
#include "csp/distributed_problem.h"
#include "sim/metrics.h"
#include "sim/sync_engine.h"

namespace discsp::abt {

struct AbtOptions {
  int max_cycles = 10000;
  /// false: classic agent_view-as-nogood; true: resolvent learning.
  bool use_resolvent = false;
  /// Counter-based consistency tests (paper metrics are bit-identical to the
  /// bucket-scan path; see docs/PERF.md).
  bool incremental = true;
};

class AbtSolver {
 public:
  explicit AbtSolver(const DistributedProblem& problem, AbtOptions options = {});

  sim::RunResult solve(const FullAssignment& initial, const Rng& rng);
  FullAssignment random_initial(Rng& rng) const;
  std::vector<std::unique_ptr<sim::Agent>> make_agents(const FullAssignment& initial,
                                                       const Rng& rng) const;

 private:
  const DistributedProblem& problem_;
  AbtOptions options_;
  std::shared_ptr<const std::vector<AgentId>> owner_of_var_;
};

}  // namespace discsp::abt
