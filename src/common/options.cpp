#include "common/options.h"

#include <cstdlib>
#include <stdexcept>

namespace discsp {

Options::Options(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[body] = argv[++i];
    } else {
      flags_[body] = "1";  // bare flag == boolean true
    }
  }
}

std::optional<std::string> Options::get(const std::string& name,
                                        const char* env) const {
  if (auto it = flags_.find(name); it != flags_.end()) return it->second;
  if (env != nullptr) {
    if (const char* v = std::getenv(env); v != nullptr) return std::string(v);
  }
  return std::nullopt;
}

std::int64_t Options::get_int(const std::string& name, std::int64_t def,
                              const char* env) const {
  auto v = get(name, env);
  if (!v) return def;
  try {
    return std::stoll(*v);
  } catch (const std::exception&) {
    throw std::invalid_argument("option --" + name + " expects an integer, got '" + *v + "'");
  }
}

double Options::get_double(const std::string& name, double def,
                           const char* env) const {
  auto v = get(name, env);
  if (!v) return def;
  try {
    return std::stod(*v);
  } catch (const std::exception&) {
    throw std::invalid_argument("option --" + name + " expects a number, got '" + *v + "'");
  }
}

bool Options::get_bool(const std::string& name, bool def, const char* env) const {
  auto v = get(name, env);
  if (!v) return def;
  return *v != "0" && *v != "false" && *v != "off" && !v->empty();
}

std::string Options::get_string(const std::string& name, std::string def,
                                const char* env) const {
  auto v = get(name, env);
  return v ? *v : std::move(def);
}

ReproConfig repro_config_from(const Options& opts) {
  ReproConfig cfg;
  if (opts.get_bool("full", false, "REPRO_FULL")) cfg.trials = 100;
  cfg.trials = static_cast<int>(opts.get_int("trials", cfg.trials, "REPRO_TRIALS"));
  cfg.max_cycles = static_cast<int>(opts.get_int("max-cycles", cfg.max_cycles, "REPRO_MAX_CYCLES"));
  cfg.seed = static_cast<std::uint64_t>(opts.get_int("seed", static_cast<std::int64_t>(cfg.seed), "REPRO_SEED"));
  cfg.n_scale = opts.get_double("n-scale", cfg.n_scale, "REPRO_N_SCALE");
  cfg.threads = static_cast<int>(opts.get_int("threads", cfg.threads, "REPRO_THREADS"));
  cfg.incremental = opts.get_bool("incremental", cfg.incremental, "REPRO_INCREMENTAL");
  cfg.fault_drop = opts.get_double("fault-drop", cfg.fault_drop, "REPRO_FAULT_DROP");
  cfg.fault_duplicate =
      opts.get_double("fault-duplicate", cfg.fault_duplicate, "REPRO_FAULT_DUPLICATE");
  cfg.fault_reorder =
      opts.get_double("fault-reorder", cfg.fault_reorder, "REPRO_FAULT_REORDER");
  cfg.fault_corrupt =
      opts.get_double("fault-corrupt", cfg.fault_corrupt, "REPRO_FAULT_CORRUPT");
  cfg.fault_crash = opts.get_double("fault-crash", cfg.fault_crash, "REPRO_FAULT_CRASH");
  cfg.fault_amnesia =
      opts.get_double("fault-amnesia", cfg.fault_amnesia, "REPRO_FAULT_AMNESIA");
  cfg.fault_refresh = opts.get_int("fault-refresh", cfg.fault_refresh, "REPRO_FAULT_REFRESH");
  cfg.fault_seed = static_cast<std::uint64_t>(
      opts.get_int("fault-seed", static_cast<std::int64_t>(cfg.fault_seed), "REPRO_FAULT_SEED"));
  cfg.partition_interval = opts.get_int("partition-interval", cfg.partition_interval,
                                        "REPRO_PARTITION_INTERVAL");
  cfg.partition_duration = opts.get_int("partition-duration", cfg.partition_duration,
                                        "REPRO_PARTITION_DURATION");
  cfg.partition_groups =
      opts.get_int("partition-groups", cfg.partition_groups, "REPRO_PARTITION_GROUPS");
  cfg.quarantine_budget =
      opts.get_int("quarantine-budget", cfg.quarantine_budget, "REPRO_QUARANTINE_BUDGET");
  cfg.quarantine_duration = opts.get_int("quarantine-duration", cfg.quarantine_duration,
                                         "REPRO_QUARANTINE_DURATION");
  cfg.monitor = opts.get_bool("monitor", cfg.monitor, "REPRO_MONITOR");
  cfg.monitor_stall =
      opts.get_int("monitor-stall", cfg.monitor_stall, "REPRO_MONITOR_STALL");
  cfg.ack_timeout = opts.get_int("ack-timeout", cfg.ack_timeout, "REPRO_ACK_TIMEOUT");
  cfg.nogood_capacity =
      opts.get_int("nogood-capacity", cfg.nogood_capacity, "REPRO_NOGOOD_CAPACITY");
  cfg.checkpoint_interval = opts.get_int("checkpoint-interval", cfg.checkpoint_interval,
                                         "REPRO_CHECKPOINT_INTERVAL");
  if (cfg.trials <= 0) throw std::invalid_argument("--trials must be positive");
  if (cfg.max_cycles <= 0) throw std::invalid_argument("--max-cycles must be positive");
  if (cfg.n_scale <= 0.0) throw std::invalid_argument("--n-scale must be positive");
  if (cfg.threads < 0) throw std::invalid_argument("--threads must be >= 0");
  // Fault knobs: probabilities must be probabilities, durations must be
  // durations. Rejecting here (with the flag named) beats a deep
  // std::invalid_argument out of FaultConfig::validate long after parsing.
  const auto check_rate = [](double rate, const char* flag) {
    if (!(rate >= 0.0 && rate <= 1.0)) {
      throw std::invalid_argument(std::string(flag) +
                                  " is a probability and must lie in [0, 1]");
    }
  };
  check_rate(cfg.fault_drop, "--fault-drop");
  check_rate(cfg.fault_duplicate, "--fault-duplicate");
  check_rate(cfg.fault_reorder, "--fault-reorder");
  check_rate(cfg.fault_corrupt, "--fault-corrupt");
  check_rate(cfg.fault_crash, "--fault-crash");
  check_rate(cfg.fault_amnesia, "--fault-amnesia");
  if (cfg.fault_refresh < 0) {
    throw std::invalid_argument("--fault-refresh must be >= 0");
  }
  if (cfg.partition_interval < 0) {
    throw std::invalid_argument("--partition-interval must be >= 0");
  }
  if (cfg.partition_duration < 0) {
    throw std::invalid_argument("--partition-duration must be >= 0");
  }
  if (cfg.partition_interval > 0 && cfg.partition_duration > cfg.partition_interval) {
    throw std::invalid_argument(
        "--partition-duration must not exceed --partition-interval");
  }
  if (cfg.partition_groups < 2) {
    throw std::invalid_argument("--partition-groups must be >= 2");
  }
  if (cfg.quarantine_budget < 0) {
    throw std::invalid_argument("--quarantine-budget must be >= 0");
  }
  if (cfg.quarantine_duration < 0) {
    throw std::invalid_argument("--quarantine-duration must be >= 0");
  }
  if (cfg.monitor_stall < 0) {
    throw std::invalid_argument("--monitor-stall must be >= 0");
  }
  if (cfg.ack_timeout < 0) throw std::invalid_argument("--ack-timeout must be >= 0");
  if (cfg.nogood_capacity < 0) {
    throw std::invalid_argument("--nogood-capacity must be >= 0");
  }
  if (cfg.checkpoint_interval < 0) {
    throw std::invalid_argument("--checkpoint-interval must be >= 0");
  }
  return cfg;
}

namespace {

/// Syntactic endpoint check: "host:port", non-empty host, numeric port in
/// [0, 65535]. Resolution/bind errors are the transport's job; this only
/// guarantees the flag is shaped like an endpoint.
void check_endpoint(const std::string& endpoint, const char* flag) {
  const auto colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == endpoint.size()) {
    throw std::invalid_argument(std::string(flag) +
                                " expects host:port, got '" + endpoint + "'");
  }
  const std::string port = endpoint.substr(colon + 1);
  long value = 0;
  try {
    std::size_t used = 0;
    value = std::stol(port, &used);
    if (used != port.size()) throw std::invalid_argument(port);
  } catch (const std::exception&) {
    throw std::invalid_argument(std::string(flag) + " port '" + port +
                                "' is not a number");
  }
  if (value < 0 || value > 65535) {
    throw std::invalid_argument(std::string(flag) +
                                " port must lie in [0, 65535]");
  }
}

}  // namespace

NetConfig net_config_from(const Options& opts) {
  NetConfig cfg;
  cfg.listen = opts.get_string("listen", cfg.listen);
  cfg.connect = opts.get_string("connect", cfg.connect);
  cfg.workers = static_cast<int>(opts.get_int("workers", cfg.workers));
  cfg.deadline_ms = opts.get_int("deadline-ms", cfg.deadline_ms);
  cfg.shard = opts.get_int("shard", cfg.shard);
  cfg.exit_after_ms = opts.get_int("exit-after-ms", cfg.exit_after_ms);
  cfg.port_file = opts.get_string("port-file", cfg.port_file);
  cfg.report_interval_ms =
      opts.get_int("report-interval-ms", cfg.report_interval_ms);
  cfg.dead_after_ms = opts.get_int("dead-after-ms", cfg.dead_after_ms);
  cfg.emit_dir = opts.get_string("emit-dir", cfg.emit_dir);
  cfg.coordinator_journal =
      opts.get_string("coordinator-journal", cfg.coordinator_journal);
  cfg.resume = opts.get_bool("resume", cfg.resume);
  cfg.halt_after_ms = opts.get_int("halt-after-ms", cfg.halt_after_ms);
  cfg.max_connect_attempts =
      opts.get_int("max-connect-attempts", cfg.max_connect_attempts);
  cfg.host = opts.get_string("host", cfg.host);
  cfg.detector = opts.get_string("detector", cfg.detector);
  cfg.phi_suspect = opts.get_double("phi-suspect", cfg.phi_suspect);
  cfg.phi_dead = opts.get_double("phi-dead", cfg.phi_dead);
  cfg.phi_window = opts.get_int("phi-window", cfg.phi_window);
  cfg.phi_min_samples = opts.get_int("phi-min-samples", cfg.phi_min_samples);
  cfg.phi_min_std_ms = opts.get_double("phi-min-std-ms", cfg.phi_min_std_ms);
  cfg.ping_burst = opts.get_int("ping-burst", cfg.ping_burst);
  cfg.batch_close_flush_ms =
      opts.get_int("batch-close-flush-ms", cfg.batch_close_flush_ms);
  cfg.migrate_after_dead =
      opts.get_bool("migrate-after-dead", cfg.migrate_after_dead);
  cfg.migration_max_batch =
      opts.get_int("migration-max-batch", cfg.migration_max_batch);

  if (!cfg.listen.empty()) check_endpoint(cfg.listen, "--listen");
  if (!cfg.connect.empty()) check_endpoint(cfg.connect, "--connect");
  // 4096 mirrors the wire protocol's kMaxWorkers sanity cap.
  if (cfg.workers < 1 || cfg.workers > 4096) {
    throw std::invalid_argument("--workers must lie in [1, 4096]");
  }
  if (cfg.deadline_ms < 0) {
    throw std::invalid_argument("--deadline-ms must be >= 0");
  }
  if (cfg.shard < -1) {
    throw std::invalid_argument("--shard must be >= 0 (or -1 for any)");
  }
  if (cfg.exit_after_ms < 0) {
    throw std::invalid_argument("--exit-after-ms must be >= 0");
  }
  if (cfg.report_interval_ms < 1) {
    throw std::invalid_argument("--report-interval-ms must be >= 1");
  }
  if (cfg.dead_after_ms < 1) {
    throw std::invalid_argument("--dead-after-ms must be >= 1");
  }
  if (cfg.resume && cfg.coordinator_journal.empty()) {
    throw std::invalid_argument("--resume requires --coordinator-journal");
  }
  if (cfg.halt_after_ms < 0) {
    throw std::invalid_argument("--halt-after-ms must be >= 0");
  }
  if (cfg.max_connect_attempts < 1) {
    throw std::invalid_argument("--max-connect-attempts must be >= 1");
  }
  if (cfg.detector != "fixed" && cfg.detector != "phi") {
    throw std::invalid_argument("--detector must be fixed or phi");
  }
  if (cfg.detector == "phi") {
    if (!(cfg.phi_suspect > 0.0) || !(cfg.phi_dead > cfg.phi_suspect)) {
      throw std::invalid_argument(
          "--phi-suspect must be > 0 and --phi-dead greater still");
    }
    if (cfg.phi_window < 2) {
      throw std::invalid_argument("--phi-window must be >= 2");
    }
    if (cfg.phi_min_samples < 2 || cfg.phi_min_samples > cfg.phi_window) {
      throw std::invalid_argument(
          "--phi-min-samples must lie in [2, --phi-window]");
    }
    if (!(cfg.phi_min_std_ms > 0.0)) {
      throw std::invalid_argument("--phi-min-std-ms must be > 0");
    }
  }
  if (cfg.ping_burst < 0) {
    throw std::invalid_argument("--ping-burst must be >= 0");
  }
  if (cfg.batch_close_flush_ms < 0) {
    throw std::invalid_argument("--batch-close-flush-ms must be >= 0");
  }
  if (cfg.migration_max_batch < 1) {
    throw std::invalid_argument("--migration-max-batch must be >= 1");
  }
  return cfg;
}

}  // namespace discsp
