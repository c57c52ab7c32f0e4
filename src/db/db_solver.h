// DbSolver: wires distributed-breakout agents and runs them synchronously.
#pragma once

#include <memory>
#include <vector>

#include "common/rng.h"
#include "csp/distributed_problem.h"
#include "recovery/journal.h"
#include "sim/metrics.h"
#include "sim/sync_engine.h"

namespace discsp::db {

struct DbOptions {
  int max_cycles = 10000;
  /// Per-agent write-ahead journal for amnesia-crash recovery.
  bool journal = false;
  recovery::JournalConfig journal_config;
  /// Counter-based cost evaluations (paper metrics are bit-identical to the
  /// scan path; see docs/PERF.md).
  bool incremental = true;
};

class DbSolver {
 public:
  explicit DbSolver(const DistributedProblem& problem, DbOptions options = {});

  sim::RunResult solve(const FullAssignment& initial, const Rng& rng);
  FullAssignment random_initial(Rng& rng) const;
  std::vector<std::unique_ptr<sim::Agent>> make_agents(const FullAssignment& initial,
                                                       const Rng& rng) const;

  const DistributedProblem& problem() const { return problem_; }

 private:
  const DistributedProblem& problem_;
  DbOptions options_;
};

}  // namespace discsp::db
