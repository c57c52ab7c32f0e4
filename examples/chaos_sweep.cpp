// Chaos sweep: how does AWC's solve rate degrade as the channel gets worse?
//
// The paper measures its algorithms on a reliable synchronous simulator (§4)
// while arguing they are designed for asynchronous distributed systems. This
// example stresses that claim: the same AWC agents (resolvent learning) run
// on the asynchronous engine while the fault layer (sim/fault.h) drops,
// duplicates, reorders and corrupts their messages, severs the population
// into groups during partition episodes — and, optionally, crash-restarts
// agents. The hardened protocol repairs losses through sequence numbers,
// checksummed frames and periodic anti-entropy heartbeats
// (docs/FAULT_MODEL.md), so the solve rate should stay high far beyond
// "perfect channel" conditions.
//
//   chaos_sweep [--n 30] [--trials 20] [--seed 7] [--crash 0] [--amnesia 0]
//               [--refresh 50] [--max-activations 2000000] [--ack-timeout 0]
//               [--nogood-capacity 0] [--checkpoint-interval 64]
//               [--partition-interval 400] [--partition-duration 150]
//               [--partition-groups 2] [--quarantine-budget 0]
//               [--quarantine-duration 200] [--monitor 1] [--repro-dir DIR]
//               [--threads 1] [--incremental 1] [--coord-kill-ms 0]
//
// --coord-kill-ms T > 0 adds a coordinator-crash axis: each trial runs on
// the in-proc distributed runtime (net/coordinator.h) instead of the
// single-process engine, the coordinator is halted abruptly T ms into the
// solve (no STOP, no drain — the SIGKILL analogue) and restarted from its
// control-plane journal with --resume semantics; workers park orphaned and
// re-rendezvous. The folded counters then cover both coordinator
// incarnations. The halt timer is wall-clock, so which trials are actually
// interrupted (vs. solved before T) varies with machine speed.
//
// --threads T fans each point's trials out over T workers (0 = all cores);
// every trial seeds its own RNG streams, so the printed numbers are
// identical at any thread count.
//
// Sweeps a grid of (drop, duplicate, corrupt, partition) cells with
// reordering tied to the drop rate, printing solve %, mean activations,
// observed fault counters, rejected malformed frames, quarantines and
// monitor violations. Every trial runs under the protocol-invariant monitor
// (sim/monitor.h) with the instance's planted coloring as witness; the
// column `viol` must stay 0 — anything else is a soundness bug, and the
// offending trial is written as a repro bundle to --repro-dir (or
// $DISCSP_REPRO_DIR) for deterministic replay with `discsp_cli repro`.
// Unsolved trials are bundled the same way.
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/parallel.h"
#include "analysis/repro.h"
#include "common/options.h"
#include "csp/validate.h"
#include "gen/coloring_gen.h"
#include "net/coordinator.h"
#include "net/jobspec.h"
#include "net/transport.h"
#include "net/worker.h"

namespace {

/// One trial on the in-proc distributed runtime: the coordinator is halted
/// `kill_ms` into the solve (the SIGKILL analogue: no STOP, no drain, no
/// final checkpoint) and restarted against the same journal with resume
/// semantics, while the three workers park orphaned and re-rendezvous. If
/// the solve beats the halt timer the first incarnation's result stands.
discsp::net::ServeResult run_with_coordinator_kill(
    const discsp::analysis::ReproBundle& bundle, std::int64_t kill_ms,
    std::uint64_t trial_seed) {
  namespace net = discsp::net;
  net::InProcTransport transport;
  const std::string name = "sweep." + std::to_string(trial_seed);
  const std::string journal =
      (std::filesystem::temp_directory_path() /
       ("discsp_sweep_" + std::to_string(trial_seed) + ".journal"))
          .string();
  std::remove(journal.c_str());

  net::ServeConfig config;
  config.job.bundle = bundle;
  config.job.num_workers = 3;
  config.job.report_interval_ms = 5;
  config.deadline_ms = 120000;
  config.journal_path = journal;
  config.halt_after_ms = kill_ms;

  std::vector<std::thread> threads;
  threads.reserve(3);
  for (int i = 0; i < 3; ++i) {
    net::WorkerConfig wc;
    wc.endpoint = name;
    wc.reconnect_seed = trial_seed * 31 + static_cast<std::uint64_t>(i);
    // The outage spans the restart gap; keep retrying well past it.
    wc.max_connect_attempts = 200;
    wc.connect_timeout_ms = 500;
    threads.emplace_back([&transport, wc] { net::run_worker(transport, wc); });
  }

  net::ServeResult result;
  {
    auto listener = transport.listen(name);
    result = net::serve(*listener, config);
    // The listener dies with this scope — exactly like the process.
  }
  if (result.halted) {
    net::ServeConfig resumed = config;
    resumed.halt_after_ms = 0;
    resumed.resume = true;
    auto listener = transport.listen(name);
    result = net::serve(*listener, resumed);
  }
  for (auto& t : threads) t.join();
  std::remove(journal.c_str());
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace discsp;
  try {
    const Options opts(argc, argv);
    const int n = static_cast<int>(opts.get_int("n", 30));
    const int trials = static_cast<int>(opts.get_int("trials", 20));
    const std::uint64_t seed = static_cast<std::uint64_t>(opts.get_int("seed", 7));
    const double crash = opts.get_double("crash", 0.0);
    const double amnesia = opts.get_double("amnesia", 0.0);
    const std::int64_t refresh = opts.get_int("refresh", 50);
    const std::uint64_t max_activations =
        static_cast<std::uint64_t>(opts.get_int("max-activations", 2'000'000));
    const std::int64_t ack_timeout = opts.get_int("ack-timeout", 0);
    const std::size_t nogood_capacity =
        static_cast<std::size_t>(opts.get_int("nogood-capacity", 0));
    const std::int64_t checkpoint_interval = opts.get_int("checkpoint-interval", 64);
    const std::int64_t partition_interval = opts.get_int("partition-interval", 400);
    const std::int64_t partition_duration = opts.get_int("partition-duration", 150);
    const int partition_groups =
        static_cast<int>(opts.get_int("partition-groups", 2));
    const int quarantine_budget =
        static_cast<int>(opts.get_int("quarantine-budget", 0));
    const std::int64_t quarantine_duration = opts.get_int("quarantine-duration", 200);
    const bool monitor = opts.get_bool("monitor", true);
    const std::string repro_dir =
        opts.get_string("repro-dir", "", "DISCSP_REPRO_DIR");
    const int threads = static_cast<int>(opts.get_int("threads", 1, "REPRO_THREADS"));
    const bool incremental = opts.get_bool("incremental", true, "REPRO_INCREMENTAL");
    const std::int64_t coord_kill_ms = opts.get_int("coord-kill-ms", 0);
    if (coord_kill_ms < 0) {
      throw std::invalid_argument("--coord-kill-ms must be >= 0");
    }

    struct Point {
      double drop;
      double duplicate;
      double corrupt;
      bool partition;
    };
    const std::vector<Point> grid = {
        {0.00, 0.00, 0.000, false}, {0.02, 0.01, 0.000, false},
        {0.05, 0.05, 0.005, false}, {0.10, 0.05, 0.010, true},
        {0.20, 0.10, 0.010, true},
    };

    std::cout << "AWC (resolvent) on async engine, 3-coloring n=" << n << ", "
              << trials << " trials per point, heartbeat every " << refresh
              << " ticks";
    if (amnesia > 0) std::cout << ", amnesia " << amnesia << " (journaled)";
    if (ack_timeout > 0) std::cout << ", ack timeout " << ack_timeout;
    if (nogood_capacity > 0) std::cout << ", nogood capacity " << nogood_capacity;
    std::cout << ", partitions " << partition_duration << "/" << partition_interval
              << " x" << partition_groups
              << (monitor ? ", monitor on" : ", monitor OFF");
    if (coord_kill_ms > 0) {
      std::cout << ", coordinator killed+resumed at " << coord_kill_ms
                << " ms (in-proc runtime, 3 workers)";
    }
    std::cout << "\n\n";
    std::cout << std::setw(6) << "drop%" << std::setw(6) << "dup%"
              << std::setw(7) << "corr%" << std::setw(6) << "part"
              << std::setw(9) << "solved%" << std::setw(12) << "mean_acts"
              << std::setw(10) << "dropped" << std::setw(8) << "duped"
              << std::setw(10) << "reorder" << std::setw(9) << "cutdrop"
              << std::setw(9) << "corrupt" << std::setw(9) << "badfrm"
              << std::setw(6) << "quar" << std::setw(8) << "crash"
              << std::setw(9) << "amnesia" << std::setw(8) << "retx"
              << std::setw(6) << "viol" << std::setw(7) << "valid\n";

    for (const Point& pt : grid) {
      sim::FaultConfig faults;
      faults.drop_rate = pt.drop;
      faults.duplicate_rate = pt.duplicate;
      faults.reorder_rate = pt.drop;  // a lossy channel rarely stays FIFO
      faults.corrupt_rate = pt.corrupt;
      faults.crash_rate = crash;
      faults.amnesia_rate = amnesia;
      faults.refresh_interval = refresh;
      if (pt.partition) {
        faults.partition_interval = partition_interval;
        faults.partition_duration = partition_duration;
        faults.partition_groups = partition_groups;
      }
      faults.quarantine_budget = quarantine_budget;
      faults.quarantine_duration = quarantine_duration;
      faults.seed = seed * 977 + 1;
      faults.validate();

      // Trials are independent (each generates its own instance from its own
      // seed), so they fan out over the thread pool; the per-trial outcomes
      // land in fixed slots and are folded in trial order below, making the
      // printed numbers independent of the thread count. Each trial is built
      // as a ReproBundle and executed through the canonical run_bundle
      // recipe, so a failing trial's bundle file replays the exact run.
      struct TrialOutcome {
        double acts = 0.0;
        sim::FaultSummary faults;
        std::uint64_t malformed = 0, quarantines = 0, retx = 0, violations = 0;
        bool solved = false;
        bool valid = true;
        std::string bundle_path;
      };
      std::vector<TrialOutcome> outcomes(static_cast<std::size_t>(trials));
      analysis::parallel_for(
          static_cast<std::size_t>(trials), threads, [&](std::size_t t) {
            const std::uint64_t trial_seed =
                seed ^ (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(t) + 1));
            Rng rng(trial_seed);
            const auto instance = gen::generate_coloring3(n, rng);

            analysis::ReproBundle bundle;
            bundle.algo = "awc";
            bundle.strategy = "Rslv";
            bundle.seed = trial_seed;
            bundle.max_activations = max_activations;
            bundle.faults = faults;
            bundle.retransmit.ack_timeout = ack_timeout;
            bundle.nogood_capacity = nogood_capacity;
            bundle.journal = amnesia > 0;
            bundle.checkpoint_interval = static_cast<int>(checkpoint_interval);
            bundle.incremental = incremental;
            bundle.monitor = monitor;
            bundle.planted = monitor ? instance.planted : FullAssignment{};
            bundle.initial.resize(static_cast<std::size_t>(n));
            for (auto& v : bundle.initial) v = static_cast<Value>(rng.index(3));
            bundle.instance = gen::distribute(instance);

            sim::RunResult result;
            if (coord_kill_ms > 0) {
              result = run_with_coordinator_kill(bundle, coord_kill_ms,
                                                 trial_seed)
                           .run;
            } else {
              result = analysis::run_bundle(bundle);
            }
            TrialOutcome& out = outcomes[t];
            out.acts = static_cast<double>(result.metrics.cycles);
            out.faults = result.metrics.faults;
            out.malformed = result.metrics.malformed_frames;
            out.quarantines = result.metrics.quarantines;
            out.retx = result.metrics.retransmissions;
            out.violations = result.metrics.monitor.violations;
            out.solved = result.metrics.solved;
            if (result.metrics.solved) {
              out.valid = validate_solution(instance.problem, result.assignment).ok;
            }

            if (!repro_dir.empty() &&
                (out.violations > 0 || !out.solved || !out.valid)) {
              std::ostringstream reason;
              reason << "cell drop=" << pt.drop << " dup=" << pt.duplicate
                     << " corrupt=" << pt.corrupt
                     << " partition=" << (pt.partition ? 1 : 0) << ": "
                     << (out.violations > 0 ? "monitor violation"
                         : !out.solved      ? "trial unsolved"
                                            : "invalid solution");
              bundle.reason = reason.str();
              bundle.observed = analysis::observe(result);
              out.bundle_path = analysis::emit_bundle(repro_dir, bundle);
            }
          });

      int solved = 0;
      bool all_valid = true;
      double total_acts = 0.0;
      sim::FaultSummary totals;
      std::uint64_t total_malformed = 0, total_quarantines = 0, total_retx = 0,
                    total_violations = 0;
      std::vector<std::string> bundles;
      for (const TrialOutcome& out : outcomes) {
        total_acts += out.acts;
        totals.dropped += out.faults.dropped;
        totals.duplicated += out.faults.duplicated;
        totals.reordered += out.faults.reordered;
        totals.partition_drops += out.faults.partition_drops;
        totals.corrupted += out.faults.corrupted;
        totals.crashes += out.faults.crashes;
        totals.amnesia += out.faults.amnesia;
        total_malformed += out.malformed;
        total_quarantines += out.quarantines;
        total_retx += out.retx;
        total_violations += out.violations;
        if (out.solved) ++solved;
        if (!out.valid) all_valid = false;
        if (!out.bundle_path.empty()) bundles.push_back(out.bundle_path);
      }

      std::cout << std::fixed << std::setprecision(1) << std::setw(6)
                << 100.0 * pt.drop << std::setw(6) << 100.0 * pt.duplicate
                << std::setw(7) << 100.0 * pt.corrupt << std::setw(6)
                << (pt.partition ? "yes" : "no") << std::setw(9)
                << 100.0 * solved / trials << std::setw(12)
                << std::setprecision(0) << total_acts / trials << std::setw(10)
                << totals.dropped << std::setw(8) << totals.duplicated
                << std::setw(10) << totals.reordered << std::setw(9)
                << totals.partition_drops << std::setw(9) << totals.corrupted
                << std::setw(9) << total_malformed << std::setw(6)
                << total_quarantines << std::setw(8) << totals.crashes
                << std::setw(9) << totals.amnesia << std::setw(8) << total_retx
                << std::setw(6) << total_violations << std::setw(7)
                << (all_valid ? "yes" : "NO") << '\n';
      for (const std::string& path : bundles) {
        std::cout << "  repro bundle: " << path << '\n';
      }
      if (!all_valid) {
        std::cerr << "error: a reported solution failed validation\n";
        return 1;
      }
      if (total_violations > 0) {
        std::cerr << "error: the invariant monitor flagged "
                  << total_violations << " violation(s)\n";
        return 1;
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
