// The sync-engine workloads: whole solves of generated paper-table
// instances, driven through the public solver API (make_agents +
// sim::SyncEngine::run), one trial at a time on the calling thread.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/experiment.h"
#include "common/rng.h"
#include "csp/distributed_problem.h"
#include "timed.h"

namespace perfbench {

/// The paper metrics of one trial; must repeat bit for bit.
struct TrialDigest {
  int cycles = 0;
  std::uint64_t maxcck = 0;
  std::uint64_t total_checks = 0;
  bool solved = false;

  bool operator==(const TrialDigest&) const = default;
};

enum class SyncAlgo { kAwc, kDb };

struct SyncTrial {
  int instance = 0;
  discsp::FullAssignment initial;
  discsp::Rng rng;
  std::string strategy;  ///< learning strategy label; empty for DB
};

/// A workload's generated inputs: the instances and the ordered trial list
/// (instance x initial assignment x strategy), by the paper's protocol.
struct SyncWorkload {
  SyncAlgo algo = SyncAlgo::kAwc;
  discsp::analysis::ExperimentSpec spec;
  std::vector<discsp::DistributedProblem> instances;
  std::vector<SyncTrial> trials;
};

/// Accumulators of a traced sync run, filled by the decorators and by
/// run_trial around SyncEngine::run.
struct SyncLayers {
  AgentLayer awc{"awc.receive", "awc.compute", {}, {}};
  AgentLayer db{"db.receive", "db.compute", {}, {}};
  LearnLayer learning;
  Accum sim_run;
  Accum gen;
  std::uint64_t cycles = 0;
  std::uint64_t messages = 0;
  std::uint64_t awc_checks = 0;     ///< total_checks of AWC trials
  std::uint64_t csp_work_ops = 0;   ///< Agent::work_ops of AWC agents
  std::uint64_t db_work_ops = 0;    ///< Agent::work_ops of DB agents
  std::uint64_t learned_peak = 0;   ///< max learned nogoods resident in one store
};

/// "sync-3sat-learn": AWC with Rslv and Mcs on 3SAT (m = 4.3n).
/// "sync-coloring-db": Distributed Breakout on 3-coloring (m = 2.7n).
/// Both at n = 150 with the paper-table seeding of analysis::make_instance and
/// analysis::run_comparison, over 100 instances x 4 initial assignments.
/// Instance generation is timed into `layers->gen` when given.
SyncWorkload make_sync_workload(const std::string& name, std::uint64_t seed,
                                SyncLayers* layers = nullptr);

struct TrialOutcome {
  TrialDigest digest;
  bool valid = true;  ///< a claimed solution passed validate_solution
  std::int64_t wall_ns = 0;
  std::uint64_t messages = 0;
  std::uint64_t heap_bytes = 0;  ///< heap in use when the solve ended, agents alive
};

/// Run one trial. With `layers`, agents and learning strategies run under the
/// timing decorators and the layer counters are updated.
TrialOutcome run_trial(const SyncWorkload& workload, std::size_t index,
                       SyncLayers* layers = nullptr);

}  // namespace perfbench
