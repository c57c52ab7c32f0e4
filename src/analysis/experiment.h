// Experiment harness reproducing the paper's evaluation protocol (§4):
// for each n, generate instances of a problem family, draw several random
// initial assignments per instance, run every algorithm under comparison on
// the *same* (instance, initial) pairs, cap trials at the cycle bound, and
// aggregate cycle / maxcck / % over all trials.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/options.h"
#include "common/rng.h"
#include "csp/distributed_problem.h"
#include "recovery/journal.h"
#include "recovery/retransmit.h"
#include "sim/metrics.h"

namespace discsp::analysis {

enum class ProblemFamily {
  kColoring3,  // d3c : solvable 3-coloring, m = 2.7n
  kSat3,       // d3s : planted-satisfiable 3SAT, m = 4.3n
  kOneSat3,    // d3s1: unique-solution 3SAT, m = 3.4n target
};

std::string family_name(ProblemFamily family);

struct ExperimentSpec {
  ProblemFamily family = ProblemFamily::kColoring3;
  int n = 0;
  int instances = 10;
  int inits_per_instance = 10;
  int max_cycles = 10000;
  std::uint64_t seed = 0;
};

/// Distribute `config.trials` over the paper's instance/init structure
/// (coloring 10x10, 3SAT 25x4, 3ONESAT 4x25) proportionally.
ExperimentSpec spec_for(ProblemFamily family, int n, const ReproConfig& config);

/// One algorithm under test: returns the run result for a given distributed
/// problem, initial assignment and trial RNG.
using TrialRunner = std::function<sim::RunResult(
    const DistributedProblem&, const FullAssignment&, const Rng&)>;

struct NamedRunner {
  std::string label;
  TrialRunner run;
};

/// Aggregates in the paper's table format, plus distribution statistics
/// (the paper reports means; medians/tails expose the heavy-tailed runs
/// behind them).
struct AggregateRow {
  std::string label;
  int trials = 0;
  double mean_cycles = 0.0;
  double mean_maxcck = 0.0;
  double solved_percent = 0.0;
  double mean_nogoods_generated = 0.0;
  double mean_redundant_generations = 0.0;
  double median_cycles = 0.0;
  double p95_cycles = 0.0;
  double max_cycles = 0.0;
  double median_maxcck = 0.0;
  /// Σ checks over cycles and agents, averaged over trials (the paper's
  /// check definition; path-independent).
  double mean_total_checks = 0.0;
  /// Real consistency-engine operations averaged over trials (machine cost;
  /// differs between the scan and incremental paths — see docs/PERF.md).
  double mean_work_ops = 0.0;
};

/// Run all `runners` over the spec's trials (same instances and initial
/// values for every runner — the paper's comparison methodology) and return
/// one aggregate row per runner, in order.
///
/// `threads` > 1 fans the (instance × init) cells out over a thread pool.
/// Every cell seeds its own RNG streams from the spec alone and aggregation
/// folds the per-cell results in (instance, init, runner) order, so every
/// aggregate — including the floating-point means — is bit-identical to the
/// serial run at any thread count. threads <= 1 runs the cells inline in
/// that same order (0 = all hardware threads).
std::vector<AggregateRow> run_comparison(const ExperimentSpec& spec,
                                         std::span<const NamedRunner> runners,
                                         int threads = 1);

/// Generate the spec's instance with the given index (deterministic in
/// spec.seed). Exposed for tests and custom harnesses.
DistributedProblem make_instance(const ExperimentSpec& spec, int instance_index);

/// Standard runner factories. `incremental` selects the counter-based
/// consistency path (paper metrics are bit-identical either way).
TrialRunner awc_runner(const std::string& strategy_label, bool record_received = true,
                       int max_cycles = 10000, bool incremental = true);
TrialRunner db_runner(int max_cycles = 10000, bool incremental = true);
TrialRunner abt_runner(bool use_resolvent = false, int max_cycles = 10000,
                       bool incremental = true);

/// AWC on the asynchronous engine with fault injection (sim/fault.h): the
/// chaos-sweep counterpart of awc_runner. A disabled fault config reduces to
/// plain asynchronous execution. `max_activations` caps engine activations
/// (deliveries + heartbeat rounds), the async analogue of the cycle cap.
TrialRunner awc_chaos_runner(const std::string& strategy_label,
                             const sim::FaultConfig& faults,
                             std::uint64_t max_activations = 2'000'000);

/// Full recovery-layer knob set for the chaos runner (PR 2): journaled
/// amnesia recovery, bounded nogood stores, and the ack/retransmit failure
/// detector. The three-argument overload above is the all-defaults case.
struct ChaosRunnerOptions {
  sim::FaultConfig faults;
  std::uint64_t max_activations = 2'000'000;
  /// Bound on resident learned nogoods per agent (0 = unbounded).
  std::size_t nogood_capacity = 0;
  /// Per-agent write-ahead journal (required for amnesia recovery).
  bool journal = false;
  recovery::JournalConfig journal_config;
  /// Failure detector; RetransmitConfig{}.enabled() == false means "off".
  recovery::RetransmitConfig retransmit;
  /// Counter-based consistency path (metrics bit-identical either way).
  bool incremental = true;
  /// Online protocol-invariant monitor (sim/monitor.h); note that the
  /// planted-solution screen only applies when `monitor.planted` is set,
  /// which a generic multi-instance runner cannot do — per-instance
  /// witnesses go through analysis/repro.h instead.
  sim::MonitorConfig monitor;
};
TrialRunner awc_chaos_runner(const std::string& strategy_label,
                             const ChaosRunnerOptions& options);

}  // namespace discsp::analysis
