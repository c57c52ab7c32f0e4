// Asynchronous weak-commitment search agent (Yokoo CP'95 / TKDE'98), with
// the pluggable nogood-learning strategies of Hirayama & Yokoo ICDCS 2000.
//
// Protocol summary (paper §2.2):
//  - the agent keeps an agent_view of linked variables' (value, priority);
//  - a nogood is *higher* when its weakest member variable (lowest priority,
//    ties by ascending id) outranks the own variable;
//  - consistent w.r.t. higher nogoods → idle;
//  - repairable → move to the consistent value minimizing violated lower
//    nogoods, broadcast ok?;
//  - deadend → learn a nogood (strategy-dependent); if it differs from the
//    previously generated one: send it to every member agent, raise own
//    priority to 1 + max(view priorities), move to the value minimizing
//    violations over all nogoods, broadcast ok?. An empty learned nogood
//    proves insolubility. With NoLearning the priority raise and move happen
//    unconditionally (and completeness is lost).
//
// View representation: values live in the nogood store's mirrored flat view
// (vector indexed by variable id — one cache-friendly array instead of a
// hash map), which also drives the store's incremental violation counters;
// the AWC-specific per-variable priority and ok?-sequence live in flat
// arrays here. With config.incremental (the default) consistency tests read
// those counters; the flat-scan path is kept selectable because it is the
// accounting the paper's maxcck tables define — both paths produce
// bit-identical metrics (the incremental one adds the same check counts
// arithmetically).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "csp/dedup_table.h"
#include "csp/nogood_store.h"
#include "learning/strategy.h"
#include "recovery/journal.h"
#include "sim/agent.h"

namespace discsp::awc {

/// Simulation-level instrumentation shared by all agents of one run: tracks
/// which nogoods have been generated anywhere before, yielding the paper's
/// Table-4 "redundant generation" count. Thread-safe, though each runtime
/// drives one run's agents from one thread (a serve worker builds its own
/// agents, and so its own log).
class GenerationLog {
 public:
  /// Record a generation; returns true when `ng` was generated before.
  bool record(const Nogood& ng) {
    std::lock_guard lock(mutex_);
    const auto equal = [&](std::uint32_t i) { return generated_[i] == ng; };
    if (index_.find(ng.hash(), equal) != DedupTable::kAbsent) return true;
    index_.insert(ng.hash(), static_cast<std::uint32_t>(generated_.size()),
                  [this](std::uint32_t i) { return generated_[i].hash(); });
    generated_.push_back(ng);
    return false;
  }
  std::size_t distinct() const {
    std::lock_guard lock(mutex_);
    return generated_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::vector<Nogood> generated_;  // distinct generations, first-seen order
  DedupTable index_;
};

struct AwcAgentConfig {
  /// When false, received nogood messages are not recorded ("Rslv/norec",
  /// Table 4). Generation, sending, and the duplicate guard are unaffected.
  bool record_received = true;
  /// Bound on resident *learned* nogoods (0 = unbounded); see
  /// NogoodStore::set_capacity for the eviction rules.
  std::size_t nogood_capacity = 0;
  /// Maintain a write-ahead journal so amnesia crashes (CrashKind::kAmnesia)
  /// are recoverable. Without it amnesia degrades to crash_restart.
  bool journal = false;
  recovery::JournalConfig journal_config;
  /// Consistency tests through the store's match counters (O(Δ)) instead of
  /// flat scans. Metrics are bit-identical either way.
  bool incremental = true;
};

/// Higher/lower classification over flat arrays: true iff every variable in
/// `vars` (a stored nogood's non-own variables) outranks the own variable,
/// under the strict order of learning::PriorityOrder (higher priority wins,
/// ties go to the smaller id). A variable the view does not know (kNoValue
/// in `view`) ranks at priority 0. This is exactly "the weakest non-own
/// variable outranks own" without locating the weakest; a nogood with no
/// non-own variable binds unconditionally and counts as higher.
inline bool nogood_outranks_own(std::span<const VarId> vars, std::span<const Value> view,
                                std::span<const Priority> view_priority,
                                Priority own_priority, VarId own) {
  for (const VarId v : vars) {
    const auto i = static_cast<std::size_t>(v);
    const bool known = i < view.size() && view[i] != kNoValue;
    const Priority p = known && i < view_priority.size() ? view_priority[i] : 0;
    if (p != own_priority ? p < own_priority : v > own) return false;
  }
  return true;
}

class AwcAgent final : public sim::Agent, private learning::PriorityOrder {
 public:
  AwcAgent(AgentId id, VarId var, int domain_size, Value initial_value,
           std::unique_ptr<learning::LearningStrategy> strategy,
           std::vector<AgentId> initial_links,
           const std::vector<Nogood>& initial_nogoods,
           std::shared_ptr<const std::vector<AgentId>> owner_of_var,
           std::shared_ptr<GenerationLog> generation_log, Rng rng,
           AwcAgentConfig config = {});

  // sim::Agent
  AgentId id() const override { return id_; }
  VarId variable() const override { return var_; }
  Value current_value() const override { return value_; }
  void start(sim::MessageSink& out) override;
  void receive(const sim::MessagePayload& msg) override;
  void compute(sim::MessageSink& out) override;
  std::uint64_t take_checks() override;
  bool detected_insoluble() const override { return insoluble_; }
  void crash_restart(sim::MessageSink& out) override;
  void amnesia_restart(sim::MessageSink& out) override;
  void on_heartbeat(sim::MessageSink& out) override;
  void set_seq_floor(std::uint64_t floor) override {
    // broadcast_ok pre-increments, so the next announcement carries > floor.
    if (ok_seq_ < floor) ok_seq_ = floor;
  }
  std::uint64_t nogoods_generated() const override { return nogoods_generated_; }
  std::uint64_t redundant_generations() const override { return redundant_generations_; }
  std::uint64_t work_ops() const override { return store_.work_ops(); }
  RecoveryStats recovery_stats() const override;
  bool export_capsule(recovery::Checkpoint& out) const override;
  void import_capsule(const recovery::Checkpoint& state,
                      sim::MessageSink& out) override;
  std::uint64_t learned_count() const override {
    return store_.size() - store_.initial_count();
  }
  std::uint64_t announce_seq() const override { return ok_seq_; }

  // Introspection (tests, metrics).
  Priority priority() const { return priority_; }
  const NogoodStore& store() const { return store_; }
  std::size_t view_size() const;
  const recovery::WriteAheadLog& wal() const { return wal_; }

 private:
  // learning::PriorityOrder
  Priority priority_of(VarId v) const override;

  Value view_value(VarId v) const { return store_.view_value(v); }
  bool view_known(VarId v) const { return store_.view_value(v) != kNoValue; }
  /// Scan-path classification through weakest_var (the oracle).
  bool nogood_is_higher(const Nogood& ng) const;
  /// Counter-path classification of stored nogood `idx` (arena read).
  bool stored_is_higher(std::size_t idx) const {
    return nogood_outranks_own(store_.lit_vars(idx), store_.view_values(), view_priority_,
                               priority_, var_);
  }
  /// One metered evaluation of a stored nogood under the view with own = d.
  bool violated_with_own(const Nogood& ng, Value d);

  void on_ok(const sim::OkMessage& m);
  void on_nogood(const sim::NogoodMessage& m);
  void on_add_link(const sim::AddLinkMessage& m);

  void evaluate(sim::MessageSink& out);
  void evaluate_scan(sim::MessageSink& out);
  void evaluate_incremental(sim::MessageSink& out);
  void handle_deadend(const std::vector<std::vector<const Nogood*>>& violated_higher,
                      std::span<const Nogood* const> higher, sim::MessageSink& out);
  /// Append one journal record (no-op unless journaling), then fold the log
  /// into a checkpoint when it has grown past the configured interval.
  void journal(recovery::JournalRecord record);
  void maybe_checkpoint();
  /// Snapshot the dynamic state (value, priority, extra links, learned
  /// suffix) — shared by journal checkpoints and migration capsules.
  recovery::Checkpoint make_checkpoint() const;
  /// Record a new value / priority and journal the transition.
  void set_value(Value v);
  void set_priority(Priority p);
  /// Value among `candidates` minimizing violation counts; ties broken
  /// uniformly at random. Lower nogoods are checked afresh; higher-nogood
  /// violations come from the caller (null = none, as for repair candidates).
  Value min_conflict_value(
      const std::vector<Value>& candidates,
      const std::vector<std::vector<const Nogood*>>* higher_violations);
  void broadcast_ok(sim::MessageSink& out);
  /// Reset the agent view (values in the store, priorities/seqs here).
  void clear_agent_view();
  /// Grow the priority/seq arrays to cover `var`.
  void ensure_view_var(VarId var);

  AgentId id_;
  VarId var_;
  int domain_size_;
  Value value_;
  Priority priority_ = 0;
  /// Own state version stamped on outgoing ok? messages; monotone across
  /// crash-restarts (modeled as stable storage, like the nogood store).
  std::uint64_t ok_seq_ = 0;

  // Flat agent view, indexed by variable id. Values (the part constraint
  // checks read) are mirrored in store_; these carry the AWC extras.
  std::vector<Priority> view_priority_;
  std::vector<std::uint64_t> view_seq_;
  NogoodStore store_;
  std::unique_ptr<learning::LearningStrategy> strategy_;

  std::vector<AgentId> links_;                  // ok? recipients
  std::unordered_set<AgentId> link_set_;
  std::shared_ptr<const std::vector<AgentId>> owner_of_var_;
  std::shared_ptr<GenerationLog> generation_log_;

  // Static problem configuration, re-read on amnesia recovery (a real
  // deployment reloads it from the problem definition, not the journal).
  std::vector<Nogood> initial_nogoods_;
  std::size_t initial_link_count_ = 0;
  recovery::WriteAheadLog wal_;

  std::optional<Nogood> last_generated_;
  std::vector<VarId> pending_value_requests_;   // unknown vars from nogoods
  std::vector<AgentId> pending_link_replies_;   // new links awaiting our ok?
  std::vector<std::uint32_t> scratch_violated_;  // reused per evaluate()
  // Reused per counter-path evaluation / deadend (capacity only).
  std::vector<std::vector<const Nogood*>> scratch_violated_higher_;
  std::vector<const Nogood*> scratch_higher_;
  std::vector<Assignment> scratch_view_;

  Rng rng_;
  AwcAgentConfig config_;
  bool dirty_ = true;
  bool insoluble_ = false;

  std::uint64_t checks_ = 0;
  std::uint64_t nogoods_generated_ = 0;
  std::uint64_t redundant_generations_ = 0;
};

}  // namespace discsp::awc
