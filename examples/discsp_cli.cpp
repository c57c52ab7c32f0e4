// discsp_cli — generate, convert and solve distributed CSP instances from
// the command line. Ties the whole library surface together:
//
//   discsp_cli gen coloring --n 60 --out inst.dcsp
//   discsp_cli gen sat3 --n 50 --out inst.cnf
//   discsp_cli gen onesat --n 30 --out one.cnf
//   discsp_cli convert inst.cnf inst.dcsp
//   discsp_cli solve inst.dcsp --algo awc --strategy 3rdRslv --seed 7
//   discsp_cli solve inst.cnf --algo db
//   discsp_cli repro repro-awc-1a2b.repro
//   discsp_cli experiment --family d3s --n 40 --trials 20 --threads 8
//   discsp_cli serve inst.dcsp --workers 3 --deadline-ms 5000
//   discsp_cli serve inst.dcsp --listen 127.0.0.1:0 --port-file port.txt
//   discsp_cli serve inst.dcsp --listen 127.0.0.1:0 --port-file port.txt
//       --coordinator-journal run.journal --resume
//   discsp_cli worker --connect 127.0.0.1:9000
//   discsp_cli worker --port-file port.txt --max-connect-attempts 60
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>
#include <vector>

#include "abt/abt_solver.h"
#include "analysis/experiment.h"
#include "analysis/repro.h"
#include "common/table.h"
#include "awc/awc_solver.h"
#include "common/options.h"
#include "csp/serialize.h"
#include "csp/validate.h"
#include "db/db_solver.h"
#include "gen/coloring_gen.h"
#include "gen/onesat_gen.h"
#include "gen/sat_gen.h"
#include "learning/strategy.h"
#include "net/coordinator.h"
#include "net/jobspec.h"
#include "net/tcp_transport.h"
#include "net/worker.h"
#include "sat/cnf_to_csp.h"
#include "sat/dimacs.h"
#include "sim/async_engine.h"

namespace {

using namespace discsp;

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() && s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

DistributedProblem load(const std::string& path) {
  if (ends_with(path, ".cnf")) return sat::to_distributed(sat::read_dimacs_file(path));
  return read_distributed_file(path);
}

int cmd_gen(const Options& opts) {
  if (opts.positional().size() < 2) {
    std::cerr << "usage: discsp_cli gen <coloring|sat3|onesat> --n N [--seed S] --out FILE\n";
    return 2;
  }
  const std::string kind = opts.positional()[1];
  const int n = static_cast<int>(opts.get_int("n", 60));
  Rng rng(static_cast<std::uint64_t>(opts.get_int("seed", 1)));
  const std::string out = opts.get_string("out", "");
  if (out.empty()) {
    std::cerr << "gen: --out FILE is required\n";
    return 2;
  }
  // load() picks the reader from the extension, so a file whose extension
  // names the other format could never be read back.
  const bool is_sat = kind == "sat3" || kind == "onesat";
  if (kind != "coloring" && !is_sat) {
    std::cerr << "gen: unknown kind '" << kind << "'\n";
    return 2;
  }
  const std::string ext = is_sat ? ".cnf" : ".dcsp";
  if (!ends_with(out, ext)) {
    std::cerr << "gen: " << kind << " writes " << (is_sat ? "DIMACS" : "dcsp")
              << ", so --out must end in " << ext << " (got '" << out << "')\n";
    return 2;
  }

  if (kind == "coloring") {
    const auto inst = gen::generate_coloring3(n, rng);
    write_problem_file(out, inst.problem,
                       "solvable 3-coloring, n=" + std::to_string(n) + ", m=2.7n");
    std::cout << "wrote " << out << " (" << inst.problem.num_nogoods() << " nogoods)\n";
  } else if (kind == "sat3") {
    const auto inst = gen::generate_sat3(n, rng);
    sat::write_dimacs_file(out, inst.cnf, "planted-satisfiable 3SAT, m=4.3n");
    std::cout << "wrote " << out << " (" << inst.cnf.num_clauses() << " clauses)\n";
  } else {  // onesat
    gen::OneSatParams params;
    params.n = n;
    const auto inst = gen::generate_onesat(params, rng);
    gen::save_onesat(inst, out);
    std::cout << "wrote " << out << " (" << inst.cnf.num_clauses()
              << " clauses, exactly one model)\n";
  }
  return 0;
}

int cmd_convert(const Options& opts) {
  if (opts.positional().size() != 3) {
    std::cerr << "usage: discsp_cli convert <in.cnf|in.dcsp> <out.dcsp|out.cnf>\n";
    return 2;
  }
  const std::string& in = opts.positional()[1];
  const std::string& out = opts.positional()[2];
  if (ends_with(in, ".cnf") && ends_with(out, ".dcsp")) {
    write_problem_file(out, sat::to_problem(sat::read_dimacs_file(in)),
                       "converted from " + in);
  } else if (ends_with(in, ".dcsp") && ends_with(out, ".cnf")) {
    sat::write_dimacs_file(out, sat::to_cnf(read_problem_file(in)),
                           "converted from " + in);
  } else {
    std::cerr << "convert: need .cnf -> .dcsp or .dcsp -> .cnf\n";
    return 2;
  }
  std::cout << "wrote " << out << '\n';
  return 0;
}

void print_chaos_counters(const sim::RunMetrics& metrics) {
  const sim::FaultSummary& f = metrics.faults;
  std::cout << "faults: dropped " << f.dropped << ", duplicated " << f.duplicated
            << ", reordered " << f.reordered << ", crashes " << f.crashes
            << ", amnesia " << f.amnesia << ", partition drops "
            << f.partition_drops << ", corrupted " << f.corrupted
            << " (heartbeats " << metrics.heartbeats << ", refresh messages "
            << metrics.refresh_messages << ")\n";
  if (f.corrupted > 0 || metrics.malformed_frames > 0 || metrics.quarantines > 0) {
    std::cout << "wire: malformed frames rejected " << metrics.malformed_frames
              << ", quarantines " << metrics.quarantines
              << ", quarantine drops " << metrics.quarantine_drops << '\n';
  }
  if (metrics.backpressure_drops > 0) {
    std::cout << "backpressure: frames shed at send high-water / orphan "
                 "overflow "
              << metrics.backpressure_drops << '\n';
  }
}

void print_monitor_summary(const sim::MonitorSummary& monitor) {
  std::cout << "monitor: violations " << monitor.violations << ", checks "
            << monitor.checks << ", nogoods screened " << monitor.nogoods_screened
            << ", seq regressions " << monitor.seq_regressions << ", stalls "
            << monitor.stalls << '\n';
  for (const std::string& report : monitor.reports) {
    std::cout << "  violation: " << report << '\n';
  }
}

int cmd_solve(const Options& opts) {
  if (opts.positional().size() < 2) {
    std::cerr << "usage: discsp_cli solve FILE [--algo awc|db|abt] [--strategy Rslv] "
                 "[--seed S] [--max-cycles N] [--fault-drop P] [--fault-duplicate P] "
                 "[--fault-reorder P] [--fault-corrupt P] [--fault-crash P] "
                 "[--fault-amnesia P] [--fault-refresh N] [--fault-seed S] "
                 "[--partition-interval N] [--partition-duration N] "
                 "[--partition-groups K] [--quarantine-budget N] "
                 "[--quarantine-duration N] [--ack-timeout N] "
                 "[--nogood-capacity N] [--checkpoint-interval N] "
                 "[--incremental 0|1] [--monitor 0|1] [--monitor-stall N]\n";
    return 2;
  }
  const auto dp = load(opts.positional()[1]);
  const std::string algo = opts.get_string("algo", "awc");
  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
  const int max_cycles = static_cast<int>(opts.get_int("max-cycles", 10000));
  Rng rng(seed);

  // --fault-* knobs (see docs/FAULT_MODEL.md) run the hardened algorithms on
  // the asynchronous engine with fault injection instead of the synchronous
  // simulator. Only AWC and DB are hardened against unreliable delivery.
  const ReproConfig repro = repro_config_from(opts);
  const sim::FaultConfig faults = sim::fault_config_from(repro);
  faults.validate();
  // Recovery layer: journal whenever amnesia crashes are possible (recovery
  // needs it), bound learned stores and arm the failure detector on request.
  const bool journal = repro.fault_amnesia > 0;
  recovery::JournalConfig journal_config;
  journal_config.checkpoint_interval =
      static_cast<std::size_t>(repro.checkpoint_interval);
  // The monitor needs the engine's hooks, so --monitor also routes through
  // the asynchronous engine (with a disabled fault plan it is plain
  // asynchronous execution, and the monitor never perturbs outcomes).
  const bool async_path = faults.enabled() || repro.monitor;
  const auto run_with_faults = [&](auto& solver) {
    sim::AsyncConfig config;
    config.faults = faults;
    config.retransmit.ack_timeout = repro.ack_timeout;
    config.retransmit.validate();
    config.monitor.enabled = repro.monitor;
    config.monitor.stall_window = repro.monitor_stall;
    sim::AsyncEngine engine(dp.problem(),
                            solver.make_agents(solver.random_initial(rng),
                                               rng.derive(1)),
                            config, rng.derive(2));
    return engine.run();
  };

  sim::RunResult result;
  if (algo == "awc") {
    auto strategy = learning::make_strategy(opts.get_string("strategy", "Rslv"));
    awc::AwcOptions options;
    options.max_cycles = max_cycles;
    options.nogood_capacity = static_cast<std::size_t>(repro.nogood_capacity);
    options.journal = journal;
    options.journal_config = journal_config;
    options.incremental = repro.incremental;
    awc::AwcSolver solver(dp, *strategy, options);
    result = async_path ? run_with_faults(solver)
                        : solver.solve(solver.random_initial(rng), rng.derive(1));
  } else if (algo == "db") {
    db::DbOptions db_options;
    db_options.max_cycles = max_cycles;
    db_options.journal = journal;
    db_options.journal_config = journal_config;
    db_options.incremental = repro.incremental;
    db::DbSolver solver(dp, db_options);
    result = async_path ? run_with_faults(solver)
                        : solver.solve(solver.random_initial(rng), rng.derive(1));
  } else if (algo == "abt") {
    if (async_path) {
      std::cerr << "solve: --fault-* and --monitor require --algo awc or db "
                   "(abt is not hardened against unreliable delivery)\n";
      return 2;
    }
    abt::AbtOptions options;
    options.max_cycles = max_cycles;
    options.use_resolvent = opts.get_bool("abt-resolvent", true);
    options.incremental = repro.incremental;
    abt::AbtSolver solver(dp, options);
    result = solver.solve(solver.random_initial(rng), rng.derive(1));
  } else {
    std::cerr << "solve: unknown algorithm '" << algo << "'\n";
    return 2;
  }

  if (faults.enabled()) print_chaos_counters(result.metrics);
  if (repro.monitor) print_monitor_summary(result.metrics.monitor);
  if (result.metrics.journal_appends > 0 || result.metrics.retransmissions > 0 ||
      result.metrics.store_evictions > 0 || repro.nogood_capacity > 0) {
    std::cout << "recovery: journal appends " << result.metrics.journal_appends
              << ", checkpoints " << result.metrics.journal_checkpoints
              << ", replays " << result.metrics.journal_replays
              << ", evictions " << result.metrics.store_evictions
              << ", peak learned " << result.metrics.peak_learned_nogoods
              << ", retransmissions " << result.metrics.retransmissions
              << " (false positives " << result.metrics.detector_false_positives
              << ")\n";
  }
  if (result.metrics.solved) {
    const auto validation = validate_solution(dp.problem(), result.assignment);
    std::cout << "SOLVED in " << result.metrics.cycles << " cycles (maxcck "
              << result.metrics.maxcck << ", " << result.metrics.messages
              << " messages); validated: " << (validation.ok ? "yes" : "NO") << '\n';
    std::cout << "assignment:";
    for (VarId v = 0; v < dp.problem().num_variables(); ++v) {
      std::cout << " x" << v << '=' << result.assignment[static_cast<std::size_t>(v)];
    }
    std::cout << '\n';
    return validation.ok ? 0 : 1;
  }
  if (result.metrics.insoluble) {
    std::cout << "INSOLUBLE (empty nogood derived after " << result.metrics.cycles
              << " cycles)\n";
    return 0;
  }
  std::cout << "UNDECIDED after " << result.metrics.cycles << " cycles"
            << (result.metrics.timed_out ? " (wall-clock timeout)"
                : result.metrics.hit_cycle_cap ? " (cycle cap)" : "")
            << '\n';
  return 1;
}

// Replay a repro bundle (analysis/repro.h) emitted by a chaos run. The
// replay is bit-deterministic, so when the bundle records its original
// outcome the command certifies whether it reproduced.
int cmd_repro(const Options& opts) {
  if (opts.positional().size() != 2) {
    std::cerr << "usage: discsp_cli repro BUNDLE.repro\n";
    return 2;
  }
  const analysis::ReproBundle bundle =
      analysis::read_bundle_file(opts.positional()[1]);
  std::cout << "replaying " << opts.positional()[1] << ": algo=" << bundle.algo
            << " strategy=" << bundle.strategy << " seed=" << bundle.seed
            << " n=" << bundle.instance.problem().num_variables() << '\n';
  if (!bundle.reason.empty()) std::cout << "reason: " << bundle.reason << '\n';

  const sim::RunResult result = analysis::run_bundle(bundle);
  const sim::RunMetrics& m = result.metrics;
  std::cout << "outcome: "
            << (m.solved ? "SOLVED" : m.insoluble ? "INSOLUBLE" : "UNDECIDED")
            << " after " << m.cycles << " activations (" << m.messages
            << " messages)\n";
  print_chaos_counters(m);
  print_monitor_summary(m.monitor);

  if (!bundle.observed.has_value()) {
    std::cout << "bundle records no observed outcome; nothing to compare\n";
    return 0;
  }
  const analysis::ObservedOutcome replay = analysis::observe(result);
  const bool ok = analysis::matches_observed(bundle, result);
  std::cout << "observed: solved=" << bundle.observed->solved
            << " cycles=" << bundle.observed->cycles
            << " violations=" << bundle.observed->violations
            << " malformed=" << bundle.observed->malformed_frames << '\n';
  std::cout << "replayed: solved=" << replay.solved << " cycles=" << replay.cycles
            << " violations=" << replay.violations
            << " malformed=" << replay.malformed_frames << '\n';
  std::cout << "reproduced: " << (ok ? "yes" : "NO") << '\n';
  return ok ? 0 : 1;
}

// Run the paper's comparison protocol on generated instances and print one
// aggregate row per algorithm. `--strategies` takes a comma list of AWC
// learning strategies plus the special labels DB, ABT and ABT+Rslv.
int cmd_experiment(const Options& opts) {
  const std::string family_str = opts.get_string("family", "d3c");
  analysis::ProblemFamily family;
  if (family_str == "d3c") {
    family = analysis::ProblemFamily::kColoring3;
  } else if (family_str == "d3s") {
    family = analysis::ProblemFamily::kSat3;
  } else if (family_str == "d3s1") {
    family = analysis::ProblemFamily::kOneSat3;
  } else {
    std::cerr << "experiment: --family must be d3c, d3s or d3s1\n";
    return 2;
  }
  const int n = static_cast<int>(opts.get_int("n", 60));
  const ReproConfig config = repro_config_from(opts);
  const auto spec = analysis::spec_for(family, n, config);

  std::vector<analysis::NamedRunner> runners;
  std::stringstream labels(opts.get_string("strategies", "No,Rslv"));
  std::string label;
  while (std::getline(labels, label, ',')) {
    if (label.empty()) continue;
    if (label == "DB") {
      runners.push_back({label, analysis::db_runner(config.max_cycles,
                                                    config.incremental)});
    } else if (label == "ABT") {
      runners.push_back({label, analysis::abt_runner(false, config.max_cycles,
                                                     config.incremental)});
    } else if (label == "ABT+Rslv") {
      runners.push_back({label, analysis::abt_runner(true, config.max_cycles,
                                                     config.incremental)});
    } else {
      runners.push_back({label, analysis::awc_runner(label, true, config.max_cycles,
                                                     config.incremental)});
    }
  }
  if (runners.empty()) {
    std::cerr << "experiment: --strategies produced no runners\n";
    return 2;
  }

  std::cout << "experiment family=" << family_str << " n=" << spec.n
            << " instances=" << spec.instances << " inits=" << spec.inits_per_instance
            << " max_cycles=" << spec.max_cycles << " seed=" << spec.seed
            << " threads=" << config.threads
            << " incremental=" << (config.incremental ? 1 : 0) << "\n\n";
  const auto rows = analysis::run_comparison(spec, runners, config.threads);
  TextTable table({"learn", "cycle", "maxcck", "%", "med", "p95", "checks", "work_ops"});
  for (const auto& row : rows) {
    table.row()
        .cell(row.label)
        .cell(row.mean_cycles, 1)
        .cell(row.mean_maxcck, 1)
        .cell(row.solved_percent, 0)
        .cell(row.median_cycles, 1)
        .cell(row.p95_cycles, 1)
        .cell(row.mean_total_checks, 0)
        .cell(row.mean_work_ops, 0);
  }
  table.print(std::cout);
  return 0;
}

// ---------------------------------------------------------------------------
// Multi-process runtime (docs/NETWORK.md).

// Assemble the job spec shared by every worker: the full repro bundle
// (instance embedded) plus the sharding/reporting knobs. The recorded
// transport and deadline make any emitted repro bundle replayable in-process.
net::JobSpec build_jobspec(const Options& opts, const DistributedProblem& dp,
                           const NetConfig& net_cfg) {
  const ReproConfig repro = repro_config_from(opts);
  analysis::ReproBundle bundle;
  bundle.algo = opts.get_string("algo", "awc");
  if (bundle.algo != "awc" && bundle.algo != "db") {
    throw std::invalid_argument("serve: --algo must be awc or db (only the "
                                "hardened algorithms run distributed)");
  }
  bundle.strategy = opts.get_string("strategy", "Rslv");
  bundle.seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
  bundle.faults = sim::fault_config_from(repro);
  bundle.faults.validate();
  // Distributed runs default the failure detector ON (50 ms base RTO):
  // worker death always loses in-flight messages, faults or not.
  bundle.retransmit.ack_timeout =
      opts.get_int("ack-timeout", 50, "REPRO_ACK_TIMEOUT");
  bundle.retransmit.validate();
  bundle.nogood_capacity = static_cast<std::size_t>(repro.nogood_capacity);
  bundle.journal = repro.fault_amnesia > 0;
  bundle.checkpoint_interval = static_cast<int>(repro.checkpoint_interval);
  bundle.incremental = repro.incremental;
  // The coordinator-side invariant monitor likewise defaults ON.
  bundle.monitor = opts.get_bool("monitor", true, "REPRO_MONITOR");
  bundle.monitor_stall = repro.monitor_stall;
  bundle.instance = dp;
  bundle.transport = net_cfg.listen.empty() ? "inproc" : "tcp";
  bundle.deadline_ms = net_cfg.deadline_ms;

  Rng rng(bundle.seed);
  const Problem& p = dp.problem();
  bundle.initial.resize(static_cast<std::size_t>(p.num_variables()));
  for (VarId v = 0; v < p.num_variables(); ++v) {
    bundle.initial[static_cast<std::size_t>(v)] = static_cast<Value>(
        rng.below(static_cast<std::uint64_t>(p.domain_size(v))));
  }

  net::JobSpec job;
  job.bundle = std::move(bundle);
  job.num_workers = net_cfg.workers;
  job.report_interval_ms = net_cfg.report_interval_ms;
  return job;
}

net::ServeConfig build_serve_config(net::JobSpec job, const NetConfig& net_cfg) {
  net::ServeConfig cfg;
  cfg.job = std::move(job);
  cfg.deadline_ms = net_cfg.deadline_ms;
  cfg.supervisor.dead_after_ms = net_cfg.dead_after_ms;
  cfg.supervisor.suspect_after_ms =
      std::max<std::int64_t>(1, std::min<std::int64_t>(250, net_cfg.dead_after_ms / 2));
  cfg.supervisor.ping_interval_ms =
      std::max<std::int64_t>(1, std::min<std::int64_t>(50, cfg.supervisor.suspect_after_ms));
  if (net_cfg.detector == "phi") {
    cfg.supervisor.adaptive = true;
    cfg.supervisor.phi_suspect = net_cfg.phi_suspect;
    cfg.supervisor.phi_dead = net_cfg.phi_dead;
    cfg.supervisor.phi_window = static_cast<int>(net_cfg.phi_window);
    cfg.supervisor.phi_min_samples = static_cast<int>(net_cfg.phi_min_samples);
    cfg.supervisor.phi_min_std_ms = net_cfg.phi_min_std_ms;
  }
  cfg.supervisor.ping_burst = static_cast<int>(net_cfg.ping_burst);
  cfg.emit_dir = net_cfg.emit_dir;
  cfg.transport = net_cfg.listen.empty() ? "inproc" : "tcp";
  cfg.journal_path = net_cfg.coordinator_journal;
  cfg.resume = net_cfg.resume;
  cfg.halt_after_ms = net_cfg.halt_after_ms;
  cfg.migrate_after_dead = net_cfg.migrate_after_dead;
  cfg.migration_max_batch = static_cast<int>(net_cfg.migration_max_batch);
  return cfg;
}

// Publish the bound port atomically: write a sibling temp file, then
// rename(2) over the target. A worker re-reading the file mid-publish sees
// either the old complete contents or the new ones, never a torn prefix.
void write_port_file(const std::string& path, int port) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    out << port << '\n';
  }
  std::rename(tmp.c_str(), path.c_str());
}

int report_serve(const net::ServeResult& res, const DistributedProblem& dp,
                 const net::ServeConfig& cfg) {
  const sim::RunMetrics& m = res.run.metrics;
  if (res.halted) {
    // halt_after_ms fired: the coordinator "died". The run is not over —
    // restart with --resume against the same journal to pick it back up.
    std::cout << "HALTED (simulated coordinator crash; resume with --resume)\n";
    return 3;
  }
  std::cout << "stop: " << net::to_string(res.reason) << " (worker restarts "
            << res.worker_restarts << ", deliveries " << m.cycles << ", messages "
            << m.messages << ")\n";
  std::cout << "coordinator incarnation " << res.coordinator_incarnation
            << (res.resumed ? " (resumed from journal)" : "") << '\n';
  // Supervision and migration health, visible without digging into metrics:
  // how many channels were quarantined (and came back), and how much agent
  // state moved between shards.
  std::cout << "supervision: quarantines " << m.quarantines
            << " (readmitted " << m.quarantine_readmissions << "), malformed "
            << m.malformed_frames << '\n';
  if (cfg.migrate_after_dead) {
    std::cout << "migration: agents adopted " << res.agent_migrations
              << ", stale frames fenced " << m.migration_fenced << '\n';
  }
  if (cfg.job.bundle.faults.enabled()) print_chaos_counters(m);
  if (cfg.job.bundle.monitor) print_monitor_summary(m.monitor);
  if (!res.bundle_path.empty()) {
    std::cout << "repro bundle: " << res.bundle_path << '\n';
  }
  if (!res.error.empty()) {
    std::cerr << "serve: " << res.error << '\n';
    return 2;
  }
  const Problem& p = dp.problem();
  if (m.solved) {
    const auto validation = validate_solution(p, res.run.assignment);
    std::cout << "SOLVED; validated: " << (validation.ok ? "yes" : "NO") << '\n';
    return validation.ok ? 0 : 1;
  }
  if (m.insoluble) {
    std::cout << "INSOLUBLE (empty nogood derived)\n";
    return 0;
  }
  if (res.reason == net::StopReason::kDeadline) {
    // Graceful degradation: a well-formed partial result with full metrics.
    std::size_t assigned = 0;
    for (Value v : res.run.assignment) {
      if (v != kNoValue) ++assigned;
    }
    std::cout << "DEADLINE: partial assignment covers " << assigned << '/'
              << p.num_variables() << " variables";
    if (assigned == static_cast<std::size_t>(p.num_variables())) {
      std::cout << " (" << p.violated_count(res.run.assignment)
                << " violated constraints)";
    }
    std::cout << '\n';
    return 3;
  }
  std::cout << "UNDECIDED\n";
  return 1;
}

net::BatchConfig batch_config_from(const NetConfig& cfg) {
  net::BatchConfig batch;
  batch.close_flush_ms = cfg.batch_close_flush_ms;
  return batch;
}

int cmd_serve(const Options& opts) {
  if (opts.positional().size() < 2) {
    std::cerr << "usage: discsp_cli serve FILE [--workers N] [--listen host:port] "
                 "[--port-file F] [--deadline-ms N] [--algo awc|db] [--strategy S] "
                 "[--seed S] [--report-interval-ms N] [--dead-after-ms N] "
                 "[--emit-dir DIR] [--ack-timeout N] [--monitor 0|1] "
                 "[--coordinator-journal F] [--resume] [--halt-after-ms N] "
                 "[--detector fixed|phi] [--phi-suspect X] [--phi-dead X] "
                 "[--phi-window N] [--phi-min-samples N] [--phi-min-std-ms X] "
                 "[--ping-burst N] [--batch-close-flush-ms N] "
                 "[--migrate-after-dead] [--migration-max-batch N] "
                 "[+ the --fault-* / --partition-* / --quarantine-* knobs of solve]\n";
    return 2;
  }
  const NetConfig net_cfg = net_config_from(opts);
  const auto dp = load(opts.positional()[1]);
  const net::ServeConfig cfg =
      build_serve_config(build_jobspec(opts, dp, net_cfg), net_cfg);

  if (net_cfg.listen.empty()) {
    // In-process distributed mode: the same protocol, frames and supervisor,
    // with worker threads instead of worker processes.
    net::InProcTransport transport;
    auto listener = transport.listen("coordinator");
    std::vector<net::WorkerResult> results(
        static_cast<std::size_t>(net_cfg.workers));
    std::vector<std::thread> threads;
    threads.reserve(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      threads.emplace_back([&transport, &results, i] {
        net::WorkerConfig wc;
        wc.endpoint = "coordinator";
        wc.connect_timeout_ms = 1000;
        wc.max_connect_attempts = 10;
        wc.reconnect_seed = 0x5eed + i;
        results[i] = net::run_worker(transport, wc);
      });
    }
    const net::ServeResult res = net::serve(*listener, cfg);
    for (std::thread& t : threads) t.join();
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (!results[i].error.empty()) {
        std::cerr << "worker " << i << ": " << results[i].error << '\n';
      }
    }
    return report_serve(res, dp, cfg);
  }

  net::TcpTransport transport(batch_config_from(net_cfg));
  auto listener = transport.listen(net_cfg.listen);
  if (!net_cfg.port_file.empty()) {
    write_port_file(net_cfg.port_file, listener->port());
  }
  std::cout << "listening on " << net_cfg.listen << " (port "
            << listener->port() << "), expecting " << net_cfg.workers
            << " workers\n"
            << std::flush;
  const net::ServeResult res = net::serve(*listener, cfg);
  return report_serve(res, dp, cfg);
}

int cmd_worker(const Options& opts) {
  const NetConfig net_cfg = net_config_from(opts);
  if (net_cfg.connect.empty() && net_cfg.port_file.empty()) {
    std::cerr << "usage: discsp_cli worker --connect host:port [--shard K] "
                 "[--exit-after-ms N] [--port-file F [--host H]] "
                 "[--max-connect-attempts N] [--batch-close-flush-ms N]\n";
    return 2;
  }
  net::TcpTransport transport(batch_config_from(net_cfg));
  net::WorkerConfig wc;
  wc.endpoint = net_cfg.connect;
  wc.port_file = net_cfg.port_file;
  wc.host = net_cfg.host;
  wc.max_connect_attempts = static_cast<int>(net_cfg.max_connect_attempts);
  wc.shard = net_cfg.shard >= 0 ? static_cast<std::uint64_t>(net_cfg.shard)
                                : net::kAnyShard;
  wc.exit_after_ms = net_cfg.exit_after_ms;
  const net::WorkerResult res = net::run_worker(transport, wc);
  if (res.gave_up) {
    // Distinct exit code: "I am healthy but my coordinator never came back"
    // must not read as success (or as a worker-side crash) to the harness.
    std::cerr << "worker: gave up re-rendezvous; final supervisor verdict: "
              << res.verdict << '\n';
    return 4;
  }
  if (!res.error.empty()) {
    std::cerr << "worker: " << res.error << '\n';
    return 1;
  }
  std::cout << "worker done: stop=" << net::to_string(res.stop)
            << " reconnects=" << res.reconnects
            << (res.killed ? " (simulated kill)" : "") << '\n';
  return res.killed || res.completed ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opts(argc, argv);
    if (opts.positional().empty()) {
      std::cerr << "usage: discsp_cli "
                   "<gen|convert|solve|repro|experiment|serve|worker> ...\n";
      return 2;
    }
    const std::string& cmd = opts.positional()[0];
    if (cmd == "gen") return cmd_gen(opts);
    if (cmd == "convert") return cmd_convert(opts);
    if (cmd == "solve") return cmd_solve(opts);
    if (cmd == "repro") return cmd_repro(opts);
    if (cmd == "experiment") return cmd_experiment(opts);
    if (cmd == "serve") return cmd_serve(opts);
    if (cmd == "worker") return cmd_worker(opts);
    std::cerr << "unknown command '" << cmd << "'\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
