// Run metrics matching the paper's measurement definitions (§4):
//   cycle  — simulator cycles until a solution is found,
//   maxcck — sum over cycles of the maximal per-agent nogood-check count.
#pragma once

#include <algorithm>
#include <cstdint>

#include "csp/problem.h"
#include "sim/fault.h"
#include "sim/monitor.h"

namespace discsp::sim {

struct RunMetrics {
  int cycles = 0;
  /// Σ over cycles of max over agents of nogood checks in that cycle.
  std::uint64_t maxcck = 0;
  /// Σ over cycles and agents of nogood checks (not reported by the paper,
  /// but useful when reasoning about total computational load).
  std::uint64_t total_checks = 0;
  /// Σ over agents of real consistency-engine operations actually executed
  /// (Agent::work_ops) — the implementation-cost counter the bench harness
  /// compares across scan/incremental paths; independent of the paper's
  /// check metric.
  std::uint64_t work_ops = 0;
  std::uint64_t messages = 0;
  /// Nogoods generated at deadends (learning solvers fill these in).
  std::uint64_t nogoods_generated = 0;
  /// Generations of a nogood identical to one generated earlier in the run
  /// (the paper's Table 4 quantity).
  std::uint64_t redundant_generations = 0;

  bool solved = false;
  bool insoluble = false;     // the empty nogood was derived
  bool hit_cycle_cap = false; // trial cut off at the cycle/activation bound
  /// Trial cut off at a wall-clock deadline (serve) — distinct from
  /// hit_cycle_cap so consumers can tell budget exhaustion from slowness.
  bool timed_out = false;

  /// Injected-fault totals (all zero on fault-free runs; see sim/fault.h).
  FaultSummary faults;
  /// Messages sent by anti-entropy heartbeats (subset of `messages`).
  std::uint64_t refresh_messages = 0;
  /// Heartbeat rounds fired by the engine.
  std::uint64_t heartbeats = 0;

  // Recovery-layer totals (all zero without a journal / bounded store /
  // failure detector; see src/recovery/ and docs/FAULT_MODEL.md).
  std::uint64_t journal_appends = 0;      ///< write-ahead records written
  std::uint64_t journal_checkpoints = 0;  ///< log truncations
  std::uint64_t journal_replays = 0;      ///< amnesia recoveries performed
  std::uint64_t store_evictions = 0;      ///< learned nogoods evicted (bounds)
  std::uint64_t peak_learned_nogoods = 0; ///< max resident learned, any agent
  std::uint64_t retransmissions = 0;      ///< failure-detector resends
  std::uint64_t detector_false_positives = 0;  ///< resends the receiver had

  // Wire-format defense totals (all zero unless corruption is enabled; see
  // sim/message.h). Every corrupted frame copy that reaches a receiver must
  // land in malformed_frames or quarantine_drops — none may reach an agent.
  std::uint64_t malformed_frames = 0;   ///< frames rejected by checksum/validation
  std::uint64_t quarantines = 0;        ///< channels pushed into quarantine
  std::uint64_t quarantine_drops = 0;   ///< frames refused while quarantined

  /// Frames dropped at a send-side high-water bound instead of buffered
  /// unboundedly (TCP backpressure + worker orphan-buffer overflow; the
  /// retransmit layer repairs tracked drops). Zero in-process.
  std::uint64_t backpressure_drops = 0;

  // Live shard migration totals (all zero unless --migrate-after-dead; see
  // docs/NETWORK.md §shard migration).
  std::uint64_t agent_migrations = 0;  ///< agents adopted away from home
  std::uint64_t migration_fenced = 0;  ///< stale dead-incarnation frames dropped
  /// Quarantined channels readmitted after a clean probation window (the
  /// recovery half of `quarantines`).
  std::uint64_t quarantine_readmissions = 0;

  /// Online invariant-monitor result (all zero when the monitor is off; see
  /// sim/monitor.h). `monitor.violations` must be zero on every healthy run.
  MonitorSummary monitor;
};

/// How a counter combines across reports: Σ, or max for peak gauges.
enum class Fold { kSum, kMax };

/// The counter table: calls `f(fold, m.field...)` once per counter a worker
/// reports, passing the same field of every `m`. Its order is the wire
/// format of NetStats `metrics_words` and of the coordinator journal's
/// `prior_words`, so it is append-only: a new counter goes at the end, where
/// an older peer's shorter list simply leaves it untouched. Never reorder.
/// Fields not listed (cycles, maxcck, the outcome bools,
/// `faults.crashes_by_agent`, the monitor's screening/stall counts and
/// reports) are the coordinator's own and do not travel.
template <typename F, typename... M>
void for_each_counter(F&& f, M&... m) {
  f(Fold::kSum, m.messages...);
  f(Fold::kSum, m.total_checks...);
  f(Fold::kSum, m.work_ops...);
  f(Fold::kSum, m.nogoods_generated...);
  f(Fold::kSum, m.redundant_generations...);
  f(Fold::kSum, m.refresh_messages...);
  f(Fold::kSum, m.heartbeats...);
  f(Fold::kSum, m.retransmissions...);
  f(Fold::kSum, m.detector_false_positives...);
  f(Fold::kSum, m.malformed_frames...);
  f(Fold::kSum, m.quarantines...);
  f(Fold::kSum, m.quarantine_drops...);
  f(Fold::kSum, m.store_evictions...);
  f(Fold::kMax, m.peak_learned_nogoods...);
  f(Fold::kSum, m.journal_appends...);
  f(Fold::kSum, m.journal_checkpoints...);
  f(Fold::kSum, m.journal_replays...);
  f(Fold::kSum, m.faults.dropped...);
  f(Fold::kSum, m.faults.duplicated...);
  f(Fold::kSum, m.faults.reordered...);
  f(Fold::kSum, m.faults.delay_spikes...);
  f(Fold::kSum, m.faults.crashes...);
  f(Fold::kSum, m.faults.amnesia...);
  f(Fold::kSum, m.faults.partition_drops...);
  f(Fold::kSum, m.faults.corrupted...);
  f(Fold::kSum, m.monitor.violations...);
  f(Fold::kSum, m.monitor.checks...);
  f(Fold::kSum, m.monitor.seq_regressions...);
  f(Fold::kSum, m.backpressure_drops...);
  f(Fold::kSum, m.agent_migrations...);
  f(Fold::kSum, m.migration_fenced...);
  f(Fold::kSum, m.quarantine_readmissions...);
}

/// Fold every table counter of `add` into `into` by its rule.
inline void merge_metrics(RunMetrics& into, const RunMetrics& add) {
  for_each_counter(
      [](Fold fold, std::uint64_t& a, std::uint64_t b) {
        a = fold == Fold::kMax ? std::max(a, b) : a + b;
      },
      into, add);
}

struct RunResult {
  RunMetrics metrics;
  /// Global assignment at termination (a validated solution when solved).
  FullAssignment assignment;
};

}  // namespace discsp::sim
