// Minimal command-line / environment option handling for benches & examples.
//
// We keep this deliberately tiny: flags of the form --name=value or
// --name value, plus environment fallbacks so `for b in build/bench/*; do $b;
// done` can be steered globally (REPRO_TRIALS, REPRO_FULL, REPRO_SEED).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace discsp {

class Options {
 public:
  Options() = default;
  /// Parse argv; unknown positional arguments are collected separately.
  Options(int argc, const char* const* argv);

  /// Look up --name; falls back to the environment variable `env` when the
  /// flag was not given and `env` is non-null.
  std::optional<std::string> get(const std::string& name,
                                 const char* env = nullptr) const;

  std::int64_t get_int(const std::string& name, std::int64_t def,
                       const char* env = nullptr) const;
  double get_double(const std::string& name, double def,
                    const char* env = nullptr) const;
  bool get_bool(const std::string& name, bool def,
                const char* env = nullptr) const;
  std::string get_string(const std::string& name, std::string def,
                         const char* env = nullptr) const;

  const std::vector<std::string>& positional() const { return positional_; }
  bool has(const std::string& name) const { return flags_.count(name) != 0; }

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

/// Standard knobs shared by all paper-reproduction benches.
struct ReproConfig {
  /// Trials per n (paper: 100). Defaults to a CI-friendly reduction.
  int trials = 20;
  /// Cycle cap per trial (paper: 10000).
  int max_cycles = 10000;
  /// Root seed; each (n, instance, trial) derives its own stream.
  std::uint64_t seed = 20000704;  // ICDCS 2000 vintage
  /// Scale factor on the paper's n values (1.0 = paper scale).
  double n_scale = 1.0;
  /// Worker threads for the experiment fan-out (1 = serial, 0 = all cores).
  /// Results are bit-identical at any value; see docs/PERF.md.
  int threads = 1;
  /// Counter-based incremental consistency path (paper metrics are
  /// bit-identical to the scan path either way; see docs/PERF.md).
  bool incremental = true;

  // Fault-injection knobs for the asynchronous engines (all off by default;
  // consumed via sim::fault_config_from, see docs/FAULT_MODEL.md).
  double fault_drop = 0.0;       ///< message drop probability
  double fault_duplicate = 0.0;  ///< message duplication probability
  double fault_reorder = 0.0;    ///< per-message FIFO-relaxation probability
  double fault_corrupt = 0.0;    ///< per-message wire-corruption probability
  double fault_crash = 0.0;      ///< per-delivery receiver crash probability
  double fault_amnesia = 0.0;    ///< per-delivery amnesia-crash probability
  std::int64_t fault_refresh = 50;  ///< anti-entropy heartbeat period
  std::uint64_t fault_seed = 0;  ///< 0 = reuse `seed` for the fault streams

  // Correlated partition episodes (see sim::PartitionSchedule).
  std::int64_t partition_interval = 0;  ///< time between episodes; 0 = off
  std::int64_t partition_duration = 0;  ///< severed window length
  std::int64_t partition_groups = 2;    ///< groups per episode (>= 2)

  // Receiver-side wire defense (see sim::ChannelGuard).
  std::int64_t quarantine_budget = 0;     ///< malformed frames per window; 0 = off
  std::int64_t quarantine_duration = 200; ///< quarantine window length

  // Online protocol-invariant monitor (see sim/monitor.h).
  bool monitor = false;            ///< enable the invariant monitor
  std::int64_t monitor_stall = 0;  ///< stall-watchdog window; 0 = off

  // Recovery-layer knobs (see src/recovery/).
  std::int64_t ack_timeout = 0;        ///< failure-detector base RTO; 0 = off
  std::int64_t nogood_capacity = 0;    ///< learned-nogood bound; 0 = unbounded
  std::int64_t checkpoint_interval = 64;  ///< journal records per checkpoint
};

/// Build a ReproConfig from options: --trials/REPRO_TRIALS,
/// --max-cycles, --seed/REPRO_SEED, --full/REPRO_FULL=1 which restores
/// the paper's 100 trials, --threads/REPRO_THREADS,
/// --incremental/REPRO_INCREMENTAL, the fault knobs --fault-drop,
/// --fault-duplicate, --fault-reorder, --fault-corrupt, --fault-crash,
/// --fault-amnesia, --fault-refresh, --fault-seed (REPRO_FAULT_* in the
/// environment), the partition knobs --partition-interval,
/// --partition-duration, --partition-groups (REPRO_PARTITION_*), the wire
/// defense knobs --quarantine-budget, --quarantine-duration
/// (REPRO_QUARANTINE_*), the monitor knobs --monitor, --monitor-stall
/// (REPRO_MONITOR, REPRO_MONITOR_STALL), and the recovery knobs
/// --ack-timeout/REPRO_ACK_TIMEOUT, --nogood-capacity/REPRO_NOGOOD_CAPACITY,
/// --checkpoint-interval/REPRO_CHECKPOINT_INTERVAL.
///
/// Every probability is validated to lie in [0, 1] and every duration /
/// count to be non-negative; violations throw std::invalid_argument with
/// the offending flag named.
ReproConfig repro_config_from(const Options& opts);

/// Knobs of the multi-process runtime (`discsp_cli serve` / `worker`; see
/// docs/NETWORK.md). Validation here is purely syntactic — endpoint shape,
/// ranges — so a bad flag fails fast with its name instead of surfacing as a
/// socket error mid-run.
struct NetConfig {
  /// Coordinator bind endpoint "host:port" ("" = in-proc worker threads).
  /// Port 0 binds an ephemeral port (report it with --port-file).
  std::string listen;
  /// Worker-side coordinator endpoint "host:port".
  std::string connect;
  /// Worker shards the coordinator expects (agents are dealt round-robin).
  int workers = 3;
  /// Wall-clock budget in ms; 0 = unlimited. On expiry the run degrades
  /// gracefully: workers are stopped and the best partial result returned.
  std::int64_t deadline_ms = 0;
  /// Worker: requested shard (-1 = let the coordinator assign one).
  std::int64_t shard = -1;
  /// Worker: simulate a SIGKILL this many ms after attaching (0 = off).
  std::int64_t exit_after_ms = 0;
  /// Coordinator: write the bound TCP port here (ephemeral-port rendezvous).
  std::string port_file;
  /// Worker stats cadence in ms.
  std::int64_t report_interval_ms = 25;
  /// Supervisor silence window after which a worker slot is declared dead.
  std::int64_t dead_after_ms = 2000;
  /// Directory for repro bundles on monitor violations ("" = disabled).
  std::string emit_dir;

  // Coordinator failover (docs/FAULT_MODEL.md, "coordinator recovery").
  /// Control-plane write-ahead journal path ("" = no crash survival).
  std::string coordinator_journal;
  /// Rebuild from the journal and resume instead of starting fresh.
  bool resume = false;
  /// Chaos knob: abrupt coordinator death (no STOP/drain/checkpoint) this
  /// many ms into serve(); 0 = off. Pairs with --resume for failover drills.
  std::int64_t halt_after_ms = 0;
  /// Worker: connect attempts (initial + reconnects) before giving up.
  /// The default keeps a worker that outlives its run from lingering in
  /// backoff for minutes; raise it (e.g. 200) for coordinator-failover
  /// setups where the outage must be outwaited.
  std::int64_t max_connect_attempts = 10;
  /// Worker: host to pair with a --port-file port (re-rendezvous).
  std::string host = "127.0.0.1";

  // Failure detection (net/supervisor.h). "fixed" = silence windows only;
  // "phi" = phi-accrual over observed inter-arrival times, with
  // dead_after_ms kept as the hard cap.
  std::string detector = "fixed";
  double phi_suspect = 1.0;   ///< suspicion threshold (phi)
  double phi_dead = 4.0;      ///< death threshold (phi)
  std::int64_t phi_window = 64;       ///< inter-arrival samples retained
  std::int64_t phi_min_samples = 8;   ///< warmup floor before phi applies
  double phi_min_std_ms = 10.0;       ///< sigma floor in ms
  std::int64_t ping_burst = 0;        ///< pings per interval window; 0 = unbounded

  /// TCP final-flush budget when closing a connection, in ms (0 = close
  /// immediately, shedding whatever is still queued; net/transport.h
  /// BatchConfig::close_flush_ms).
  std::int64_t batch_close_flush_ms = 50;

  // Live shard migration (docs/NETWORK.md §shard migration).
  /// Coordinator: when a worker is declared permanently dead, re-shard its
  /// agents onto survivors instead of waiting for a replacement.
  bool migrate_after_dead = false;
  /// Coordinator: adoptions shipped per loop iteration (>= 1).
  std::int64_t migration_max_batch = 8;
};

/// Build a NetConfig from --listen, --connect, --workers, --deadline-ms,
/// --shard, --exit-after-ms, --port-file, --report-interval-ms,
/// --dead-after-ms, --emit-dir, the failover knobs --coordinator-journal,
/// --resume, --halt-after-ms, --max-connect-attempts, --host, and the
/// failure-detection knobs --detector fixed|phi, --phi-suspect, --phi-dead,
/// --phi-window, --phi-min-samples, --phi-min-std-ms, --ping-burst, the TCP
/// close budget --batch-close-flush-ms (>= 0), and the shard-migration knobs
/// --migrate-after-dead, --migration-max-batch (>= 1).
/// Endpoints must look like "host:port" with a numeric port in [0, 65535];
/// --workers must lie in [1, 4096]; every duration must be non-negative;
/// the phi thresholds must satisfy 0 < suspect < dead with a window of at
/// least 2 samples. Violations throw std::invalid_argument naming the
/// offending flag.
NetConfig net_config_from(const Options& opts);

}  // namespace discsp
