// Online protocol-invariant monitor.
//
// Chaos runs are only as trustworthy as the oracle that judges them: a run
// that "solves" after corrupting a nogood into ruling out the real solution,
// or that "terminates" with messages unaccounted for, is a silent soundness
// bug. The InvariantMonitor rides along inside AsyncEngine and the serve
// coordinator and checks, while the run executes:
//
//  (a) No false insolubility — when the planted solution of the instance is
//      known, no learned nogood may rule it out, and no agent may report
//      insolubility at all (a soluble instance must never be "proved"
//      insoluble, no matter what faults were injected).
//  (b) Message conservation — AsyncEngine: every scheduled event is either
//      delivered or still queued at run end; serve: an adopting worker
//      reports at least the learned state its migration capsule shipped.
//  (c) Sequence sanity after validation — no delivered ok?/improve may carry
//      a seq its sender never issued (a forged or corrupted seq that slipped
//      past the checksum); genuine regressions from reordering are counted
//      but are not violations.
//  (d) Liveness watchdog — a configurable window with no agent value change
//      flags a stall (informational by default: stalls are recorded and
//      counted so chaos cells can alert on them, but livelock is a
//      legitimate outcome of heuristic search under faults).
//
// Every breach is recorded (bounded) and counted; runners turn a nonzero
// violation count into a repro bundle (analysis/repro.h) that replays the
// exact run. Hooks take no lock: each monitor is driven by one thread (the
// AsyncEngine loop, or the serve coordinator loop). They draw no randomness,
// so enabling the monitor never perturbs a run's outcome.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "csp/problem.h"
#include "sim/message.h"

namespace discsp::sim {

struct MonitorConfig {
  bool enabled = false;
  /// A known solution of the instance (one value per variable); empty when
  /// no witness is available — invariant (a) is then limited to "no false
  /// insolubility cannot be checked" and nogood screening is skipped.
  FullAssignment planted;
  /// No-progress window for the liveness watchdog (engine time units:
  /// virtual time in AsyncEngine, milliseconds on the serve coordinator).
  /// 0 = off.
  std::int64_t stall_window = 0;
  /// Cap on recorded violation reports (counters keep exact totals).
  std::size_t max_reports = 16;
};

enum class InvariantKind {
  kSolutionExcluded,   ///< a learned nogood rules out the planted solution
  kFalseInsolubility,  ///< insolubility reported for a witnessed instance
  kConservation,       ///< scheduled != delivered + queued (AsyncEngine)
  kForgedSeq,          ///< delivered seq its sender never issued
  kStall,              ///< no value change for a full stall window
  kMigrationLoss,      ///< learned state lost across a shard-migration handoff
};
const char* to_string(InvariantKind kind);

/// Copyable result of one run's monitoring (lands in RunMetrics::monitor).
struct MonitorSummary {
  /// Hard invariant breaches: (a), (b), (c). Zero on every healthy run.
  std::uint64_t violations = 0;
  /// Total invariant evaluations performed (proof the monitor ran).
  std::uint64_t checks = 0;
  /// Nogoods screened against the planted solution.
  std::uint64_t nogoods_screened = 0;
  /// Seq regressions observed after validation (legal under reordering).
  std::uint64_t seq_regressions = 0;
  /// Stall-watchdog windows that elapsed without progress (informational).
  std::uint64_t stalls = 0;
  /// First max_reports breach descriptions, in detection order.
  std::vector<std::string> reports;
};

class InvariantMonitor {
 public:
  /// `num_agents` sizes the per-sender seq tables. Not thread-safe: the
  /// owning runtime calls every hook from one thread.
  InvariantMonitor(MonitorConfig config, int num_agents);

  const MonitorConfig& config() const { return config_; }
  bool screening() const { return !config_.planted.empty(); }

  /// Send-side hook: records the highest seq each sender issued and screens
  /// locally learned nogoods the moment they are emitted (a poisoned nogood
  /// is a violation even if its message is later dropped).
  void on_send(AgentId from, const MessagePayload& payload, std::int64_t now);

  /// Delivery-side hook, after checksum + semantic validation and before the
  /// receiving agent processes the payload.
  void on_deliver(AgentId from, AgentId to, const MessagePayload& payload,
                  std::int64_t now);

  /// An agent reported insolubility (empty nogood derived).
  void on_insoluble(AgentId agent, std::int64_t now);

  /// An agent changed its value (progress, feeds the stall watchdog).
  void on_progress(std::int64_t now);

  /// One engine activation elapsed; drives the stall watchdog clock.
  void on_activation(std::int64_t now);

  /// AsyncEngine conservation identity at run end: every event ever pushed
  /// is either popped or still in the queue.
  void check_conservation(std::uint64_t scheduled, std::uint64_t delivered,
                          std::uint64_t queued, std::int64_t now);

  /// Shard-migration conservation identity: an adopting worker must report
  /// at least the learned count the coordinator shipped in the capsule
  /// (`expected`). More is legal — the agent keeps learning between export
  /// and adoption — but less means the handoff dropped learned state.
  void check_handoff(AgentId agent, std::uint64_t expected,
                     std::uint64_t imported, std::int64_t now);

  MonitorSummary summary() const;

 private:
  void note_check();
  void violate(InvariantKind kind, std::string detail, std::int64_t now);
  void screen_nogood(AgentId from, const Nogood& nogood, std::int64_t now);
  void track_send_seq(AgentId from, const MessagePayload& payload);

  MonitorConfig config_;
  int num_agents_;

  MonitorSummary summary_;
  /// Highest seq each sender has issued in an ok?/improve (0 = none yet).
  std::vector<std::uint64_t> max_sent_seq_;
  /// Last delivered seq per (from, to) channel, for regression counting.
  std::vector<std::uint64_t> last_delivered_seq_;
  std::int64_t last_progress_ = 0;
  bool insoluble_reported_ = false;
};

}  // namespace discsp::sim
