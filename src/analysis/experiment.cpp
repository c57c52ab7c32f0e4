#include "analysis/experiment.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "analysis/parallel.h"
#include "common/stats.h"

#include "abt/abt_solver.h"
#include "awc/awc_solver.h"
#include "sim/async_engine.h"
#include "db/db_solver.h"
#include "gen/coloring_gen.h"
#include "gen/onesat_gen.h"
#include "gen/sat_gen.h"
#include "learning/strategy.h"

namespace discsp::analysis {

std::string family_name(ProblemFamily family) {
  switch (family) {
    case ProblemFamily::kColoring3: return "d3c";
    case ProblemFamily::kSat3: return "d3s";
    case ProblemFamily::kOneSat3: return "d3s1";
  }
  return "?";
}

ExperimentSpec spec_for(ProblemFamily family, int n, const ReproConfig& config) {
  ExperimentSpec spec;
  spec.family = family;
  spec.n = std::max(3, static_cast<int>(std::lround(n * config.n_scale)));
  spec.max_cycles = config.max_cycles;
  spec.seed = config.seed;

  // The paper's structure per family: (instances x inits) = 100 trials;
  // at full scale the division below reproduces it exactly (10x10, 25x4,
  // 4x25), and smaller trial budgets shrink the instance count first.
  int paper_instances = 10;
  switch (family) {
    case ProblemFamily::kColoring3: paper_instances = 10; break;
    case ProblemFamily::kSat3:      paper_instances = 25; break;
    case ProblemFamily::kOneSat3:   paper_instances = 4;  break;
  }
  // Shrink proportionally while keeping at least one of each.
  const double scale = std::min(1.0, config.trials / 100.0);
  spec.instances = std::max(1, static_cast<int>(std::lround(paper_instances * std::sqrt(scale))));
  spec.inits_per_instance =
      std::max(1, static_cast<int>(std::lround(static_cast<double>(config.trials) / spec.instances)));
  return spec;
}

DistributedProblem make_instance(const ExperimentSpec& spec, int instance_index) {
  const std::uint64_t instance_seed =
      spec.seed ^ (0xa0761d6478bd642fULL * static_cast<std::uint64_t>(instance_index + 1)) ^
      (0xe7037ed1a0b428dbULL * static_cast<std::uint64_t>(spec.n));
  Rng rng(instance_seed);
  switch (spec.family) {
    case ProblemFamily::kColoring3:
      return gen::distribute(gen::generate_coloring3(spec.n, rng));
    case ProblemFamily::kSat3:
      return gen::distribute(gen::generate_sat3(spec.n, rng));
    case ProblemFamily::kOneSat3: {
      gen::OneSatParams params;
      params.n = spec.n;
      return gen::distribute(gen::cached_onesat(params, instance_index, instance_seed));
    }
  }
  throw std::logic_error("unknown problem family");
}

namespace {

/// The per-(cell, runner) facts the aggregation folds over. Stored per cell
/// so parallel execution order cannot influence the aggregates.
struct TrialOutcome {
  double cycles = 0.0;  // cap-charged on failure (see below)
  std::uint64_t maxcck = 0;
  std::uint64_t total_checks = 0;
  std::uint64_t work_ops = 0;
  std::uint64_t nogoods_generated = 0;
  std::uint64_t redundant_generations = 0;
  bool solved = false;
};

}  // namespace

std::vector<AggregateRow> run_comparison(const ExperimentSpec& spec,
                                         std::span<const NamedRunner> runners,
                                         int threads) {
  std::vector<AggregateRow> rows(runners.size());
  std::vector<std::vector<double>> cycles_samples(runners.size());
  std::vector<std::vector<double>> maxcck_samples(runners.size());
  for (std::size_t r = 0; r < runners.size(); ++r) rows[r].label = runners[r].label;

  // Instances are generated serially up front: generation cost is trivial
  // next to solving, and the 3ONESAT generator goes through an on-disk
  // instance cache that is not safe to populate concurrently.
  std::vector<DistributedProblem> instances;
  instances.reserve(static_cast<std::size_t>(spec.instances));
  for (int inst = 0; inst < spec.instances; ++inst) {
    instances.push_back(make_instance(spec, inst));
  }

  // One cell = one (instance, init) pair, every runner on it. Each cell's
  // RNG streams are seeded from (spec.seed, inst, init) alone, so cells are
  // order- and thread-independent; results land in per-cell slots and are
  // folded in (inst, init, runner) order below — the exact serial iteration
  // order, preserving floating-point summation order bit for bit. With
  // threads <= 1 the cells themselves also run in that order, inline.
  const std::size_t num_cells = static_cast<std::size_t>(spec.instances) *
                                static_cast<std::size_t>(spec.inits_per_instance);
  std::vector<std::vector<TrialOutcome>> outcomes(
      num_cells, std::vector<TrialOutcome>(runners.size()));
  parallel_for(num_cells, threads, [&](std::size_t cell) {
    const int inst = static_cast<int>(cell) / spec.inits_per_instance;
    const int init = static_cast<int>(cell) % spec.inits_per_instance;
    const DistributedProblem& dp = instances[static_cast<std::size_t>(inst)];
    const Problem& p = dp.problem();

    const std::uint64_t trial_seed =
        spec.seed ^ (0x8ebc6af09c88c6e3ULL * static_cast<std::uint64_t>(inst + 1)) ^
        (0x589965cc75374cc3ULL * static_cast<std::uint64_t>(init + 1));
    Rng trial_rng(trial_seed);

    FullAssignment initial(static_cast<std::size_t>(p.num_variables()));
    for (VarId v = 0; v < p.num_variables(); ++v) {
      initial[static_cast<std::size_t>(v)] =
          static_cast<Value>(trial_rng.index(static_cast<std::size_t>(p.domain_size(v))));
    }

    for (std::size_t r = 0; r < runners.size(); ++r) {
      // Each runner gets its own derived stream so tie-breaking inside one
      // algorithm cannot perturb another.
      const sim::RunResult result =
          runners[r].run(dp, initial, trial_rng.derive(r + 1));
      TrialOutcome& out = outcomes[cell][r];
      // Failed trials are charged the full cycle budget, whether they ran
      // into the cap or quiesced in a deadlock (incomplete variants can do
      // the latter); the paper's "we use the data at that time" applies to
      // its cap, and counting an early deadlock's small cycle number would
      // flatter the failing configuration.
      const bool failed = !result.metrics.solved && !result.metrics.insoluble;
      out.cycles = failed ? static_cast<double>(spec.max_cycles)
                         : static_cast<double>(result.metrics.cycles);
      out.maxcck = result.metrics.maxcck;
      out.total_checks = result.metrics.total_checks;
      out.work_ops = result.metrics.work_ops;
      out.nogoods_generated = result.metrics.nogoods_generated;
      out.redundant_generations = result.metrics.redundant_generations;
      out.solved = result.metrics.solved;
    }
  });

  for (std::size_t cell = 0; cell < num_cells; ++cell) {
    for (std::size_t r = 0; r < runners.size(); ++r) {
      const TrialOutcome& out = outcomes[cell][r];
      AggregateRow& row = rows[r];
      ++row.trials;
      row.mean_cycles += out.cycles;
      row.mean_maxcck += static_cast<double>(out.maxcck);
      cycles_samples[r].push_back(out.cycles);
      maxcck_samples[r].push_back(static_cast<double>(out.maxcck));
      row.mean_total_checks += static_cast<double>(out.total_checks);
      row.mean_work_ops += static_cast<double>(out.work_ops);
      row.mean_nogoods_generated += static_cast<double>(out.nogoods_generated);
      row.mean_redundant_generations +=
          static_cast<double>(out.redundant_generations);
      if (out.solved) row.solved_percent += 1.0;
    }
  }

  for (std::size_t r = 0; r < rows.size(); ++r) {
    AggregateRow& row = rows[r];
    if (row.trials == 0) continue;
    const double t = row.trials;
    row.mean_cycles /= t;
    row.mean_maxcck /= t;
    row.mean_nogoods_generated /= t;
    row.mean_redundant_generations /= t;
    row.mean_total_checks /= t;
    row.mean_work_ops /= t;
    row.solved_percent = 100.0 * row.solved_percent / t;
    row.median_cycles = median_of(cycles_samples[r]);
    row.p95_cycles = percentile_of(cycles_samples[r], 95.0);
    row.max_cycles = percentile_of(cycles_samples[r], 100.0);
    row.median_maxcck = median_of(maxcck_samples[r]);
  }
  return rows;
}

TrialRunner awc_runner(const std::string& strategy_label, bool record_received,
                       int max_cycles, bool incremental) {
  auto strategy = std::shared_ptr<learning::LearningStrategy>(
      learning::make_strategy(strategy_label));
  return [strategy, record_received, max_cycles, incremental](
             const DistributedProblem& dp, const FullAssignment& initial,
             const Rng& rng) {
    awc::AwcOptions options;
    options.max_cycles = max_cycles;
    options.record_received = record_received;
    options.incremental = incremental;
    awc::AwcSolver solver(dp, *strategy, options);
    return solver.solve(initial, rng);
  };
}

TrialRunner db_runner(int max_cycles, bool incremental) {
  return [max_cycles, incremental](const DistributedProblem& dp,
                                   const FullAssignment& initial, const Rng& rng) {
    db::DbOptions options;
    options.max_cycles = max_cycles;
    options.incremental = incremental;
    db::DbSolver solver(dp, options);
    return solver.solve(initial, rng);
  };
}

TrialRunner awc_chaos_runner(const std::string& strategy_label,
                             const sim::FaultConfig& faults,
                             std::uint64_t max_activations) {
  ChaosRunnerOptions options;
  options.faults = faults;
  options.max_activations = max_activations;
  return awc_chaos_runner(strategy_label, options);
}

TrialRunner awc_chaos_runner(const std::string& strategy_label,
                             const ChaosRunnerOptions& options) {
  auto strategy = std::shared_ptr<learning::LearningStrategy>(
      learning::make_strategy(strategy_label));
  return [strategy, options](const DistributedProblem& dp,
                             const FullAssignment& initial, const Rng& rng) {
    awc::AwcOptions awc_options;
    awc_options.nogood_capacity = options.nogood_capacity;
    awc_options.journal = options.journal;
    awc_options.journal_config = options.journal_config;
    awc_options.incremental = options.incremental;
    awc::AwcSolver solver(dp, *strategy, awc_options);
    sim::AsyncConfig config;
    config.max_activations = options.max_activations;
    config.faults = options.faults;
    config.retransmit = options.retransmit;
    config.monitor = options.monitor;
    sim::AsyncEngine engine(dp.problem(), solver.make_agents(initial, rng),
                            config, rng.derive(0x404));
    return engine.run();
  };
}

TrialRunner abt_runner(bool use_resolvent, int max_cycles, bool incremental) {
  return [use_resolvent, max_cycles, incremental](
             const DistributedProblem& dp, const FullAssignment& initial,
             const Rng& rng) {
    abt::AbtOptions options;
    options.max_cycles = max_cycles;
    options.use_resolvent = use_resolvent;
    options.incremental = incremental;
    abt::AbtSolver solver(dp, options);
    return solver.solve(initial, rng);
  };
}

}  // namespace discsp::analysis
