// The agent interface every distributed algorithm implements.
//
// Engines drive agents through three hooks:
//   start()    — choose an initial value, send initial ok? messages;
//   receive()  — absorb one incoming message (state update only);
//   compute()  — act once on the absorbed state, emitting messages.
//
// The synchronous engine delivers a whole cycle's messages through receive()
// and then calls compute() once — exactly the paper's "read all incoming
// messages, do local computation, send messages" cycle. The asynchronous
// engines call receive()+compute() per delivery. Algorithms must therefore
// keep receive() free of decisions; all reasoning lives in compute().
#pragma once

#include <algorithm>
#include <cstdint>

#include "recovery/journal.h"
#include "sim/message.h"
#include "sim/metrics.h"

namespace discsp::sim {

class Agent {
 public:
  virtual ~Agent() = default;

  virtual AgentId id() const = 0;
  /// The (single) variable this agent owns.
  virtual VarId variable() const = 0;
  /// Current value of the owned variable (always a valid domain value).
  virtual Value current_value() const = 0;

  virtual void start(MessageSink& out) = 0;
  virtual void receive(const MessagePayload& msg) = 0;
  virtual void compute(MessageSink& out) = 0;

  /// Nogood checks performed since the last call (engines pull this once per
  /// cycle/activation to build the maxcck metric).
  virtual std::uint64_t take_checks() = 0;

  /// True once the agent has derived the empty nogood.
  virtual bool detected_insoluble() const { return false; }

  // Fault-tolerance hooks (see sim/fault.h and docs/FAULT_MODEL.md). Both
  // default to no-ops so unhardened algorithms keep working on fault-free
  // runs; engines only invoke them when a fault plan is active.

  /// Simulate a crash + recovery: discard volatile state (current value,
  /// priority, agent view) — stable storage (nogood store, links, sequence
  /// counters) survives — then re-announce state and re-request neighbor
  /// values through `out`.
  virtual void crash_restart(MessageSink& out) { (void)out; }
  /// Simulate an amnesia crash: volatile state AND stable storage are lost;
  /// only the agent's write-ahead journal survives. Recovery is checkpoint
  /// load + record replay + link re-request. Agents without a journal
  /// degrade to crash_restart (their "stable storage" is then treated as an
  /// unrealistically durable device — PR 1's model).
  virtual void amnesia_restart(MessageSink& out) { crash_restart(out); }
  /// Anti-entropy heartbeat: re-send whatever repairs dropped messages
  /// (current ok?, pending wave state, the last learned nogood).
  virtual void on_heartbeat(MessageSink& out) { (void)out; }
  /// Reserve the sequence space up to `floor`: every ok?/improve seq the
  /// agent emits afterwards must exceed it. The multi-process analogue of
  /// the journal's kSeqReserve record — a worker process rebuilt after a
  /// SIGKILL lost its counters, but its peers' per-sender seq guards did
  /// not, so fresh announcements would be dropped as stale without this.
  virtual void set_seq_floor(std::uint64_t floor) { (void)floor; }
  /// Lifetime learning counters for Table-4 style reporting.
  virtual std::uint64_t nogoods_generated() const { return 0; }
  virtual std::uint64_t redundant_generations() const { return 0; }

  // Live-migration hooks (docs/NETWORK.md §shard migration). A worker that
  // outlives a dead peer adopts the peer's agents: the coordinator ships a
  // recovery::Checkpoint capsule exported here and the adopting worker
  // imports it into a freshly built agent. Agents without migratable state
  // keep the defaults: export reports "nothing to ship" and import degrades
  // to crash_restart, so the run stays correct with only the learning lost.

  /// Snapshot this agent's migratable state into `out` (same shape the
  /// journal layer checkpoints). Returns false when the agent has nothing
  /// beyond its static configuration — the capsule is then omitted.
  virtual bool export_capsule(recovery::Checkpoint& out) const {
    (void)out;
    return false;
  }
  /// Install a capsule exported by a prior incarnation of this agent on
  /// another worker, then re-announce through `out`. Call set_seq_floor()
  /// BEFORE this: the re-announcement must already clear the fence.
  virtual void import_capsule(const recovery::Checkpoint& state,
                              MessageSink& out) {
    (void)state;
    crash_restart(out);
  }
  /// Resident learned state right now (learned nogoods / raised weights) —
  /// the conservation quantity the invariant monitor checks across an
  /// ADOPT/ADOPT_ACK handoff.
  virtual std::uint64_t learned_count() const { return 0; }
  /// Highest announcement sequence this agent has stamped (0 = the agent
  /// does not track one); shipped in capsules so the coordinator can fence
  /// the dead incarnation's in-flight frames.
  virtual std::uint64_t announce_seq() const { return 0; }

  /// Lifetime count of real consistency-engine operations (literal touches,
  /// occurrence walks, scan evaluations) — the machine-cost counter behind
  /// BENCH_core, as opposed to the paper's check metric, which is defined by
  /// the algorithm rather than the implementation. Zero when unreported.
  virtual std::uint64_t work_ops() const { return 0; }

  /// Per-agent recovery/durability counters, aggregated into RunMetrics.
  /// Agents without a journal or bounded store report zeros.
  struct RecoveryStats {
    std::uint64_t journal_appends = 0;
    std::uint64_t journal_checkpoints = 0;
    std::uint64_t journal_replays = 0;
    std::uint64_t store_evictions = 0;
    std::uint64_t peak_learned_nogoods = 0;  ///< max over agents, not a sum
  };
  virtual RecoveryStats recovery_stats() const { return {}; }
};

/// Add one agent's lifetime counters (generations, work ops, recovery stats)
/// to `m`. Runtimes fold every agent through this on every exit path, the
/// already-solved return included.
inline void add_agent_counters(const Agent& agent, RunMetrics& m) {
  m.nogoods_generated += agent.nogoods_generated();
  m.redundant_generations += agent.redundant_generations();
  m.work_ops += agent.work_ops();
  const Agent::RecoveryStats rs = agent.recovery_stats();
  m.journal_appends += rs.journal_appends;
  m.journal_checkpoints += rs.journal_checkpoints;
  m.journal_replays += rs.journal_replays;
  m.store_evictions += rs.store_evictions;
  m.peak_learned_nogoods = std::max(m.peak_learned_nogoods, rs.peak_learned_nogoods);
}

}  // namespace discsp::sim
