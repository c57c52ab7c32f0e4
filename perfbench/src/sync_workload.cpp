#include "sync_workload.h"

#include <algorithm>
#include <stdexcept>

#include "awc/awc_agent.h"
#include "awc/awc_solver.h"
#include "csp/validate.h"
#include "db/db_solver.h"
#include "sim/sync_engine.h"

namespace perfbench {

using discsp::analysis::ProblemFamily;

namespace {

constexpr int kN = 150;
constexpr int kMaxCycles = 10000;  // the paper's cycle cap
// Solve times are heavy-tailed and depend mostly on the instance, so a run
// draws from many instances: a 20 s run reaches about half of them.
constexpr int kInstances = 100;
constexpr int kInits = 4;

}  // namespace

SyncWorkload make_sync_workload(const std::string& name, std::uint64_t seed,
                                SyncLayers* layers) {
  SyncWorkload w;
  std::vector<std::string> strategies;
  w.spec.n = kN;
  w.spec.max_cycles = kMaxCycles;
  w.spec.seed = seed;
  if (name == "sync-3sat-learn") {
    w.algo = SyncAlgo::kAwc;
    w.spec.family = ProblemFamily::kSat3;
    strategies = {"Rslv", "Mcs"};
  } else if (name == "sync-coloring-db") {
    w.algo = SyncAlgo::kDb;
    w.spec.family = ProblemFamily::kColoring3;
    strategies = {""};
  } else {
    throw std::invalid_argument("unknown sync workload " + name);
  }
  w.spec.instances = kInstances;
  w.spec.inits_per_instance = kInits;

  for (int inst = 0; inst < w.spec.instances; ++inst) {
    if (layers != nullptr) {
      Scoped span("gen.instance", layers->gen);
      w.instances.push_back(discsp::analysis::make_instance(w.spec, inst));
    } else {
      w.instances.push_back(discsp::analysis::make_instance(w.spec, inst));
    }
  }

  // The cell seeding of analysis::run_comparison: one initial assignment per
  // (instance, init) cell, and runner r of the cell on trial_rng.derive(r + 1).
  // Trials are listed init-major, so any prefix of the list (all a short run
  // reaches) already spans every instance.
  for (int init = 0; init < w.spec.inits_per_instance; ++init) {
    for (int inst = 0; inst < w.spec.instances; ++inst) {
      const discsp::Problem& p = w.instances[static_cast<std::size_t>(inst)].problem();
      const std::uint64_t trial_seed =
          seed ^ (0x8ebc6af09c88c6e3ULL * static_cast<std::uint64_t>(inst + 1)) ^
          (0x589965cc75374cc3ULL * static_cast<std::uint64_t>(init + 1));
      discsp::Rng trial_rng(trial_seed);
      discsp::FullAssignment initial(static_cast<std::size_t>(p.num_variables()));
      for (VarId v = 0; v < p.num_variables(); ++v) {
        initial[static_cast<std::size_t>(v)] = static_cast<Value>(
            trial_rng.index(static_cast<std::size_t>(p.domain_size(v))));
      }
      for (std::size_t r = 0; r < strategies.size(); ++r) {
        w.trials.push_back({inst, initial, trial_rng.derive(r + 1), strategies[r]});
      }
    }
  }
  return w;
}

TrialOutcome run_trial(const SyncWorkload& workload, std::size_t index,
                       SyncLayers* layers) {
  const SyncTrial& trial = workload.trials.at(index);
  const discsp::DistributedProblem& dp =
      workload.instances[static_cast<std::size_t>(trial.instance)];
  const std::int64_t start = now_ns();

  std::vector<std::unique_ptr<sim::Agent>> agents;
  if (workload.algo == SyncAlgo::kAwc) {
    std::unique_ptr<learning::LearningStrategy> strategy =
        learning::make_strategy(trial.strategy);
    if (layers != nullptr) {
      strategy = std::make_unique<TimedStrategy>(std::move(strategy), layers->learning);
    }
    const discsp::awc::AwcSolver solver(dp, *strategy);
    agents = solver.make_agents(trial.initial, trial.rng);
    if (layers != nullptr) agents = wrap_agents(std::move(agents), layers->awc);
  } else {
    const discsp::db::DbSolver solver(dp);
    agents = solver.make_agents(trial.initial, trial.rng);
    if (layers != nullptr) agents = wrap_agents(std::move(agents), layers->db);
  }

  sim::SyncEngine engine(dp.problem(), std::move(agents));
  sim::RunResult result;
  if (layers != nullptr) {
    Scoped span("sim.run", layers->sim_run);
    result = engine.run(workload.spec.max_cycles);
  } else {
    result = engine.run(workload.spec.max_cycles);
  }

  TrialOutcome out;
  out.wall_ns = now_ns() - start;
  out.heap_bytes = heap_in_use_bytes();
  const sim::RunMetrics& m = result.metrics;
  out.digest = {m.cycles, m.maxcck, m.total_checks, m.solved};
  out.messages = m.messages;
  if (m.solved) out.valid = discsp::validate_solution(dp.problem(), result.assignment).ok;

  if (layers != nullptr) {
    layers->cycles += static_cast<std::uint64_t>(m.cycles);
    layers->messages += m.messages;
    if (workload.algo == SyncAlgo::kAwc) {
      layers->awc_checks += m.total_checks;
      layers->csp_work_ops += m.work_ops;
      for (const auto& agent : engine.agents()) {
        const auto& timed = static_cast<const TimedAgent&>(*agent);
        const auto& awc = dynamic_cast<const discsp::awc::AwcAgent&>(timed.inner());
        const discsp::NogoodStore& store = awc.store();
        layers->learned_peak =
            std::max<std::uint64_t>(layers->learned_peak, store.size() - store.initial_count());
      }
    } else {
      layers->db_work_ops += m.work_ops;
    }
  }
  return out;
}

}  // namespace perfbench
