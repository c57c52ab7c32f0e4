#include "analysis/repro.h"

#include <filesystem>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "awc/awc_solver.h"
#include "csp/serialize.h"
#include "db/db_solver.h"
#include "learning/strategy.h"
#include "sim/async_engine.h"

namespace discsp::analysis {

namespace {

void write_assignment(std::ostream& out, const char* keyword,
                      const FullAssignment& values) {
  if (values.empty()) return;
  out << keyword;
  for (Value v : values) out << ' ' << v;
  out << '\n';
}

FullAssignment parse_assignment(std::istringstream& body, int lineno) {
  FullAssignment values;
  long v = 0;
  while (body >> v) values.push_back(static_cast<Value>(v));
  if (!body.eof()) {
    throw std::runtime_error("repro parse error at line " + std::to_string(lineno) +
                             ": non-numeric value in assignment");
  }
  return values;
}

[[noreturn]] void fail(int lineno, const std::string& what) {
  throw std::runtime_error("repro parse error at line " + std::to_string(lineno) +
                           ": " + what);
}

}  // namespace

sim::RunResult run_bundle(const ReproBundle& bundle) {
  if (bundle.algo != "awc" && bundle.algo != "db") {
    throw std::invalid_argument("repro bundle: unknown algo '" + bundle.algo +
                                "' (expected awc or db)");
  }
  const Problem& p = bundle.instance.problem();
  if (static_cast<int>(bundle.initial.size()) != p.num_variables()) {
    throw std::invalid_argument(
        "repro bundle: initial assignment has " +
        std::to_string(bundle.initial.size()) + " values for " +
        std::to_string(p.num_variables()) + " variables");
  }
  bundle.faults.validate();
  bundle.retransmit.validate();

  sim::AsyncConfig config;
  config.max_activations = bundle.max_activations;
  config.faults = bundle.faults;
  config.retransmit = bundle.retransmit;
  config.monitor.enabled = bundle.monitor;
  config.monitor.planted = bundle.planted;
  config.monitor.stall_window = bundle.monitor_stall;

  // The canonical seeding recipe shared by every emitter: agents draw from
  // derive(1), the engine from derive(2). Nothing else touches the root
  // stream, so the replay is a bit-identical re-execution of the trial.
  Rng rng(bundle.seed);
  if (bundle.algo == "awc") {
    awc::AwcOptions options;
    options.nogood_capacity = bundle.nogood_capacity;
    options.journal = bundle.journal;
    options.journal_config.checkpoint_interval = bundle.checkpoint_interval;
    options.incremental = bundle.incremental;
    auto strategy = learning::make_strategy(bundle.strategy);
    awc::AwcSolver solver(bundle.instance, *strategy, options);
    sim::AsyncEngine engine(p, solver.make_agents(bundle.initial, rng.derive(1)),
                            config, rng.derive(2));
    return engine.run();
  }
  db::DbOptions options;
  options.journal = bundle.journal;
  options.journal_config.checkpoint_interval = bundle.checkpoint_interval;
  options.incremental = bundle.incremental;
  db::DbSolver solver(bundle.instance, options);
  sim::AsyncEngine engine(p, solver.make_agents(bundle.initial, rng.derive(1)),
                          config, rng.derive(2));
  return engine.run();
}

ObservedOutcome observe(const sim::RunResult& result) {
  const sim::RunMetrics& m = result.metrics;
  return {m.solved, m.cycles, m.monitor.violations, m.malformed_frames};
}

bool matches_observed(const ReproBundle& bundle, const sim::RunResult& result) {
  if (!bundle.observed.has_value()) return true;
  const ObservedOutcome replay = observe(result);
  return replay.solved == bundle.observed->solved &&
         replay.cycles == bundle.observed->cycles &&
         replay.violations == bundle.observed->violations &&
         replay.malformed_frames == bundle.observed->malformed_frames;
}

void write_bundle(std::ostream& out, const ReproBundle& bundle) {
  out << "repro 1\n";
  if (!bundle.reason.empty()) {
    // One line by contract; flatten embedded newlines defensively.
    std::string reason = bundle.reason;
    for (char& c : reason) {
      if (c == '\n' || c == '\r') c = ' ';
    }
    out << "reason " << reason << '\n';
  }
  out << "algo " << bundle.algo << '\n';
  out << "strategy " << bundle.strategy << '\n';
  out << "seed " << bundle.seed << '\n';
  out << "max-activations " << bundle.max_activations << '\n';

  // Doubles round-trip exactly at max_digits10.
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  const sim::FaultConfig& f = bundle.faults;
  out << "fault-drop " << f.drop_rate << '\n';
  out << "fault-duplicate " << f.duplicate_rate << '\n';
  out << "fault-reorder " << f.reorder_rate << '\n';
  out << "fault-spike-rate " << f.delay_spike_rate << '\n';
  out << "fault-spike " << f.delay_spike << '\n';
  out << "fault-corrupt " << f.corrupt_rate << '\n';
  out << "fault-crash " << f.crash_rate << '\n';
  out << "fault-amnesia " << f.amnesia_rate << '\n';
  out << "fault-max-crashes " << f.max_crashes_per_agent << '\n';
  out << "fault-refresh " << f.refresh_interval << '\n';
  out << "partition-interval " << f.partition_interval << '\n';
  out << "partition-duration " << f.partition_duration << '\n';
  out << "partition-groups " << f.partition_groups << '\n';
  out << "quarantine-budget " << f.quarantine_budget << '\n';
  out << "quarantine-duration " << f.quarantine_duration << '\n';
  out << "fault-seed " << f.seed << '\n';

  const recovery::RetransmitConfig& r = bundle.retransmit;
  out << "ack-timeout " << r.ack_timeout << '\n';
  out << "retransmit-backoff " << r.backoff << '\n';
  out << "retransmit-max-timeout " << r.max_timeout << '\n';
  out << "retransmit-max-attempts " << r.max_attempts << '\n';
  out << "retransmit-seed " << r.seed << '\n';

  out << "nogood-capacity " << bundle.nogood_capacity << '\n';
  out << "journal " << (bundle.journal ? 1 : 0) << '\n';
  out << "checkpoint-interval " << bundle.checkpoint_interval << '\n';
  out << "incremental " << (bundle.incremental ? 1 : 0) << '\n';
  out << "monitor " << (bundle.monitor ? 1 : 0) << '\n';
  out << "monitor-stall " << bundle.monitor_stall << '\n';
  out << "transport " << bundle.transport << '\n';
  out << "deadline-ms " << bundle.deadline_ms << '\n';
  out << "coordinator-incarnations " << bundle.coordinator_incarnations << '\n';

  write_assignment(out, "initial", bundle.initial);
  write_assignment(out, "planted", bundle.planted);
  if (bundle.observed.has_value()) {
    out << "observed " << (bundle.observed->solved ? 1 : 0) << ' '
        << bundle.observed->cycles << ' ' << bundle.observed->violations << ' '
        << bundle.observed->malformed_frames << '\n';
  }

  // The instance rides along as an ordinary .dcsp block (with its integrity
  // trailer), delimited so the outer parser can hand it to read_distributed.
  out << "instance-begin\n";
  write_distributed(out, bundle.instance);
  out << "instance-end\n";
}

ReproBundle read_bundle(std::istream& in) {
  ReproBundle bundle;
  bool header_seen = false;
  bool instance_seen = false;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::istringstream body(line);
    std::string keyword;
    if (!(body >> keyword)) continue;  // blank line
    if (keyword[0] == '#') continue;

    if (keyword == "repro") {
      int version = 0;
      if (!(body >> version) || version != 1) fail(lineno, "unsupported repro version");
      header_seen = true;
      continue;
    }
    if (!header_seen) fail(lineno, "missing 'repro 1' header");

    auto rest_of_line = [&]() {
      std::string rest;
      std::getline(body, rest);
      const auto first = rest.find_first_not_of(' ');
      return first == std::string::npos ? std::string{} : rest.substr(first);
    };
    auto read_u64 = [&](std::uint64_t& field) {
      if (!(body >> field)) fail(lineno, "bad integer for '" + keyword + "'");
    };
    auto read_i64 = [&](std::int64_t& field) {
      if (!(body >> field)) fail(lineno, "bad integer for '" + keyword + "'");
    };
    auto read_int = [&](int& field) {
      if (!(body >> field)) fail(lineno, "bad integer for '" + keyword + "'");
    };
    auto read_double = [&](double& field) {
      if (!(body >> field)) fail(lineno, "bad number for '" + keyword + "'");
    };
    auto read_bool = [&](bool& field) {
      int v = 0;
      if (!(body >> v) || (v != 0 && v != 1)) fail(lineno, "bad flag for '" + keyword + "'");
      field = (v == 1);
    };

    if (keyword == "reason") {
      bundle.reason = rest_of_line();
    } else if (keyword == "algo") {
      if (!(body >> bundle.algo)) fail(lineno, "bad algo");
    } else if (keyword == "strategy") {
      if (!(body >> bundle.strategy)) fail(lineno, "bad strategy");
    } else if (keyword == "seed") {
      read_u64(bundle.seed);
    } else if (keyword == "max-activations") {
      read_u64(bundle.max_activations);
    } else if (keyword == "fault-drop") {
      read_double(bundle.faults.drop_rate);
    } else if (keyword == "fault-duplicate") {
      read_double(bundle.faults.duplicate_rate);
    } else if (keyword == "fault-reorder") {
      read_double(bundle.faults.reorder_rate);
    } else if (keyword == "fault-spike-rate") {
      read_double(bundle.faults.delay_spike_rate);
    } else if (keyword == "fault-spike") {
      read_i64(bundle.faults.delay_spike);
    } else if (keyword == "fault-corrupt") {
      read_double(bundle.faults.corrupt_rate);
    } else if (keyword == "fault-crash") {
      read_double(bundle.faults.crash_rate);
    } else if (keyword == "fault-amnesia") {
      read_double(bundle.faults.amnesia_rate);
    } else if (keyword == "fault-max-crashes") {
      read_int(bundle.faults.max_crashes_per_agent);
    } else if (keyword == "fault-refresh") {
      read_i64(bundle.faults.refresh_interval);
    } else if (keyword == "partition-interval") {
      read_i64(bundle.faults.partition_interval);
    } else if (keyword == "partition-duration") {
      read_i64(bundle.faults.partition_duration);
    } else if (keyword == "partition-groups") {
      read_int(bundle.faults.partition_groups);
    } else if (keyword == "quarantine-budget") {
      read_int(bundle.faults.quarantine_budget);
    } else if (keyword == "quarantine-duration") {
      read_i64(bundle.faults.quarantine_duration);
    } else if (keyword == "fault-seed") {
      read_u64(bundle.faults.seed);
    } else if (keyword == "ack-timeout") {
      read_i64(bundle.retransmit.ack_timeout);
    } else if (keyword == "retransmit-backoff") {
      read_double(bundle.retransmit.backoff);
    } else if (keyword == "retransmit-max-timeout") {
      read_i64(bundle.retransmit.max_timeout);
    } else if (keyword == "retransmit-max-attempts") {
      read_int(bundle.retransmit.max_attempts);
    } else if (keyword == "retransmit-seed") {
      read_u64(bundle.retransmit.seed);
    } else if (keyword == "nogood-capacity") {
      std::uint64_t cap = 0;
      read_u64(cap);
      bundle.nogood_capacity = static_cast<std::size_t>(cap);
    } else if (keyword == "journal") {
      read_bool(bundle.journal);
    } else if (keyword == "checkpoint-interval") {
      read_int(bundle.checkpoint_interval);
    } else if (keyword == "incremental") {
      read_bool(bundle.incremental);
    } else if (keyword == "store-kernel") {
      // Legacy: bundles written when the store had a second engine name it
      // here. Every engine replayed identically, so the line is validated
      // and otherwise ignored.
      std::string kernel;
      if (!(body >> kernel) || (kernel != "counters" && kernel != "watched")) {
        fail(lineno, "store-kernel must be counters or watched");
      }
    } else if (keyword == "monitor") {
      read_bool(bundle.monitor);
    } else if (keyword == "monitor-stall") {
      read_i64(bundle.monitor_stall);
    } else if (keyword == "transport") {
      if (!(body >> bundle.transport) ||
          (bundle.transport != "async" && bundle.transport != "inproc" &&
           bundle.transport != "tcp")) {
        fail(lineno, "transport must be async, inproc or tcp");
      }
    } else if (keyword == "deadline-ms") {
      read_i64(bundle.deadline_ms);
      if (bundle.deadline_ms < 0) fail(lineno, "deadline-ms must be >= 0");
    } else if (keyword == "coordinator-incarnations") {
      read_int(bundle.coordinator_incarnations);
      if (bundle.coordinator_incarnations < 1) {
        fail(lineno, "coordinator-incarnations must be >= 1");
      }
    } else if (keyword == "initial") {
      bundle.initial = parse_assignment(body, lineno);
    } else if (keyword == "planted") {
      bundle.planted = parse_assignment(body, lineno);
    } else if (keyword == "observed") {
      ObservedOutcome observed;
      int solved = 0;
      if (!(body >> solved >> observed.cycles >> observed.violations >>
            observed.malformed_frames) ||
          (solved != 0 && solved != 1)) {
        fail(lineno, "bad observed line");
      }
      observed.solved = (solved == 1);
      bundle.observed = observed;
    } else if (keyword == "instance-begin") {
      std::ostringstream dcsp;
      bool closed = false;
      while (std::getline(in, line)) {
        ++lineno;
        if (line == "instance-end") {
          closed = true;
          break;
        }
        dcsp << line << '\n';
      }
      if (!closed) fail(lineno, "unterminated instance block");
      std::istringstream dcsp_in(dcsp.str());
      bundle.instance = read_distributed(dcsp_in);  // verifies the check trailer
      instance_seen = true;
    } else {
      fail(lineno, "unknown keyword '" + keyword + "'");
    }
  }
  if (!header_seen) throw std::runtime_error("repro parse error: empty input");
  if (!instance_seen) throw std::runtime_error("repro parse error: missing instance block");
  return bundle;
}

void write_bundle_file(const std::string& path, const ReproBundle& bundle) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  write_bundle(out, bundle);
  if (!out) throw std::runtime_error("write failed: " + path);
}

ReproBundle read_bundle_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open repro bundle: " + path);
  return read_bundle(in);
}

std::string emit_bundle(const std::string& dir, const ReproBundle& bundle) {
  if (dir.empty()) return {};
  std::filesystem::create_directories(dir);
  std::ostringstream name;
  name << "repro-" << bundle.algo << '-' << std::hex << bundle.seed << ".repro";
  const std::string path = (std::filesystem::path(dir) / name.str()).string();
  write_bundle_file(path, bundle);
  return path;
}

}  // namespace discsp::analysis
