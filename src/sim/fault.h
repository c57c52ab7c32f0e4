// Deterministic fault-injection for the asynchronous engines.
//
// The paper's algorithms target fully asynchronous distributed systems, but
// every engine in this repo historically assumed lossless, duplicate-free,
// crash-free delivery. A FaultPlan relaxes that: it decides — per message,
// from seeded per-channel random streams — whether a send is dropped,
// duplicated, allowed to overtake earlier traffic on its channel (relaxing
// per-channel FIFO), hit by a delay spike, or corrupted on the wire, and
// whether a delivery first crash-restarts its receiver (losing volatile
// state). AsyncEngine and the serve worker both consult it from one
// sim::AgentHost, so the fault taxonomy and its counters are
// engine-independent.
//
// On top of the independent per-message faults, a PartitionSchedule injects
// *correlated* failure episodes: at fixed intervals the agent population is
// split into groups for a time window, and every message crossing the cut
// is dropped for the whole window. When the window ends the partition heals
// and the ordinary repair machinery (ack/retransmit, heartbeats) catches the
// survivors up.
//
// Determinism: every channel (from, to) owns an independent random stream
// seeded from (config.seed, from, to), and every agent owns a crash stream
// seeded from (config.seed, agent). The k-th send on a channel therefore
// meets the same fate for a given seed, regardless of how sends on other
// channels interleave — in particular regardless of how a serve worker's
// timers and socket reads order them. Partition membership is a pure
// function of (seed, episode index, agent) and consumes no stream state, so
// an empty schedule leaves every stream bit-identical to the pre-partition
// layer.
// The corruption draw is likewise only taken when corrupt_rate > 0, so
// corruption-free configs keep their historical streams. See
// docs/FAULT_MODEL.md for the full model.
#pragma once

#include <cstdint>
#include <vector>

#include "common/options.h"
#include "common/rng.h"
#include "csp/nogood.h"

namespace discsp::sim {

/// Deterministic correlated partition episodes. Episode k covers the time
/// window [k * interval, k * interval + duration); during it every agent
/// belongs to one of `groups` groups — a stateless hash of
/// (seed, k, agent) — and traffic between different groups is severed.
/// Between windows (and with interval == 0) nothing is cut.
class PartitionSchedule {
 public:
  PartitionSchedule() = default;
  PartitionSchedule(std::uint64_t seed, std::int64_t interval,
                    std::int64_t duration, int groups)
      : seed_(seed), interval_(interval), duration_(duration), groups_(groups) {}

  /// True when any window can ever sever traffic.
  bool active() const { return interval_ > 0 && duration_ > 0 && groups_ >= 2; }

  /// Group of `agent` during episode `episode` (stateless, thread-safe).
  int group_of(std::int64_t episode, AgentId agent) const;

  /// Episode index covering time `now`, or -1 when no window is open.
  std::int64_t episode_at(std::int64_t now) const;

  /// True when (from, to) traffic is cut at time `now`. Symmetric.
  bool severed(AgentId from, AgentId to, std::int64_t now) const;

 private:
  std::uint64_t seed_ = 0;
  std::int64_t interval_ = 0;
  std::int64_t duration_ = 0;
  int groups_ = 2;
};

struct FaultConfig {
  /// Probability a sent message silently vanishes.
  double drop_rate = 0.0;
  /// Probability a sent message is delivered twice.
  double duplicate_rate = 0.0;
  /// Probability a sent message may overtake earlier messages on its channel
  /// (per-channel FIFO is relaxed for that message only).
  double reorder_rate = 0.0;
  /// Probability a sent message suffers an extra `delay_spike` of latency.
  double delay_spike_rate = 0.0;
  /// Extra latency on a spike: virtual-time units in AsyncEngine,
  /// milliseconds on the serve worker.
  std::int64_t delay_spike = 50;
  /// Probability a sent message is corrupted on the wire: its serialized
  /// frame is mutated (bit flip, truncation, or an out-of-range field
  /// rewrite with a fixed-up checksum). Receivers must detect and drop every
  /// such frame (checksum + semantic validation; see sim/message.h).
  double corrupt_rate = 0.0;
  /// Probability a delivery crash-restarts its receiver first: the agent
  /// loses volatile state (value, priority, agent view) but keeps stable
  /// storage (nogood store, sequence counters), and the in-flight message
  /// is lost with it.
  double crash_rate = 0.0;
  /// Probability a delivery amnesia-crashes its receiver first: the agent
  /// loses volatile state AND stable storage — everything except its
  /// write-ahead journal — and must recover by checkpoint load + replay.
  double amnesia_rate = 0.0;
  /// Crash budget per agent (restart and amnesia share it); keeps crash
  /// storms from starving progress.
  int max_crashes_per_agent = 3;
  /// Anti-entropy heartbeat period (0 disables refresh): virtual-time units
  /// in AsyncEngine, milliseconds on the serve worker. On each beat every agent
  /// re-announces state that repairs dropped messages (Agent::on_heartbeat).
  std::int64_t refresh_interval = 50;

  // Correlated partition episodes (PartitionSchedule). Times are
  // virtual-time units in AsyncEngine, milliseconds since job load on the
  // serve worker.
  /// Time between episode starts (0 disables partitions).
  std::int64_t partition_interval = 0;
  /// Length of each severed window; must not exceed the interval.
  std::int64_t partition_duration = 0;
  /// Number of groups each episode splits the agents into (>= 2).
  int partition_groups = 2;

  // Defensive wire policy (receiver side; travels with the fault config so
  // every engine and runner sees one coherent chaos cell description).
  /// Malformed frames tolerated per channel within one quarantine window
  /// before the receiver quarantines the channel (0 = never quarantine).
  int quarantine_budget = 0;
  /// How long a quarantined channel stays blocked (same unit as partition
  /// times) before it is readmitted and its malformed budget resets.
  std::int64_t quarantine_duration = 200;

  /// Root seed of all fault streams.
  std::uint64_t seed = 0xfa017;

  /// True when partition episodes can ever sever traffic.
  bool partitions_enabled() const {
    return partition_interval > 0 && partition_duration > 0;
  }

  /// True when any fault can actually fire; engines bypass the plan (and
  /// the heartbeat) entirely otherwise, keeping fault-free runs bit-identical
  /// to the pre-fault-layer behavior.
  bool enabled() const {
    return drop_rate > 0 || duplicate_rate > 0 || reorder_rate > 0 ||
           delay_spike_rate > 0 || corrupt_rate > 0 || crash_rate > 0 ||
           amnesia_rate > 0 || partitions_enabled();
  }

  /// Throws std::invalid_argument on rates outside [0, 1] or negative knobs.
  void validate() const;
};

/// Fate of one send, as decided by FaultPlan::on_send.
struct ChannelVerdict {
  int copies = 1;                 ///< 0 = dropped, 2 = duplicated
  bool reorder = false;           ///< may bypass the channel's FIFO order
  std::int64_t extra_delay = 0;   ///< delay spike to add to the latency
  bool corrupt = false;           ///< mutate the serialized frame
  std::uint64_t corrupt_seed = 0; ///< seeds the deterministic mutation
};

/// Fate of one delivery, as decided by FaultPlan::on_deliver.
enum class CrashKind {
  kNone,     ///< deliver normally
  kRestart,  ///< crash-restart: volatile state lost, stable storage kept
  kAmnesia,  ///< amnesia crash: everything lost except the write-ahead journal
};

/// Totals of injected faults over one run (copied into RunMetrics).
struct FaultSummary {
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t reordered = 0;
  std::uint64_t delay_spikes = 0;
  std::uint64_t crashes = 0;   ///< crash-restarts (excludes amnesia)
  std::uint64_t amnesia = 0;   ///< amnesia crashes
  /// Sends severed by an open partition window (not counted in `dropped`).
  std::uint64_t partition_drops = 0;
  /// Corrupted frame copies put on the wire (every one must be rejected by
  /// the receiving side's checksum/validation — see RunMetrics counters).
  std::uint64_t corrupted = 0;
  /// Per-agent crash histogram (restart + amnesia combined); each entry is
  /// bounded by max_crashes_per_agent.
  std::vector<int> crashes_by_agent;
};

class FaultPlan {
 public:
  /// `num_agents` fixes the channel matrix; ids outside [0, num_agents)
  /// are rejected by the hooks.
  FaultPlan(const FaultConfig& config, int num_agents);

  const FaultConfig& config() const { return config_; }

  /// Decide the fate of one send on channel (from, to) at time `now`.
  /// The decision depends only on (seed, from, to, per-channel send index) — and, for the partition cut, on `now` alone. A send
  /// severed by an open partition window consumes no channel stream state.
  ChannelVerdict on_send(AgentId from, AgentId to, std::int64_t now = 0);

  /// Decide whether the receiver crashes before this delivery, and how badly.
  /// Depends only on (seed, to, per-agent delivery index).
  CrashKind on_deliver(AgentId to);

  FaultSummary summary() const;

 private:
  struct ChannelState {
    Rng rng;
  };
  struct AgentState {
    Rng rng;
    int crashes = 0;
  };

  FaultConfig config_;
  int num_agents_;
  PartitionSchedule partitions_;
  std::vector<ChannelState> channels_;  // num_agents^2, row-major by sender
  std::vector<AgentState> agents_;
  /// Running totals; summary() adds the per-agent crash histogram.
  FaultSummary counts_;
};

/// Build a FaultConfig from the shared repro knobs (--fault-drop etc.; see
/// repro_config_from).
FaultConfig fault_config_from(const ReproConfig& config);

}  // namespace discsp::sim
