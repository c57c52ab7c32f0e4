// Distributed breakout agent (Yokoo & Hirayama ICMAS'96), in the paper's
// per-nogood-weight variant (§4.3 footnote 7).
//
// Two-wave protocol: after collecting all neighbors' values (wave A) the
// agent computes its weighted violation cost and possible improvement and
// broadcasts them; after collecting all neighbors' improvements (wave B) the
// unique local winner moves, agents stuck in a quasi-local-minimum raise the
// weights of their violated nogoods (breakout), and everyone broadcasts
// values again. Each wave costs one simulator cycle — the "extra cycles" the
// paper attributes to DB.
//
// Hardening (docs/FAULT_MODEL.md): wave completion is tracked per neighbor
// slot (one dense entry per element of the neighbor list, found from the
// sender id through a flat AgentId -> slot table) by message *round* (the
// seq field), not by raw arrival counts, so a duplicated or reordered
// message can never desynchronize the waves; under reliable FIFO delivery
// the accounting is equivalent to counting. Messages from a sender that is
// not a neighbor (negative, past the table, or simply not listed) are
// ignored. Dropped messages are repaired by the engine's heartbeat (the
// agent re-sends its current wave's announcements idempotently).
//
// Incremental cost engine: DB carries no NogoodStore, so the agent keeps its
// own flat view (vector indexed by VarId) plus per-nogood match counters and
// a var→occurrence index, maintaining the weighted violation cost of every
// own value (`cost_[d]`, plus `global_cost_` for nogoods not mentioning the
// own variable) under view updates. With config.incremental (the default)
// eval(d) is a counter read credited with the scan's check count, so paper
// metrics are bit-identical between the two paths.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "csp/nogood.h"
#include "recovery/journal.h"
#include "sim/agent.h"

namespace discsp::db {

struct DbAgentConfig {
  /// Maintain a write-ahead journal (weights, value, round reservations) so
  /// amnesia crashes are recoverable. Without it amnesia degrades to
  /// crash_restart.
  bool journal = false;
  recovery::JournalConfig journal_config;
  /// Cost evaluations through the match counters instead of nogood scans.
  /// Metrics are bit-identical either way.
  bool incremental = true;
};

class DbAgent final : public sim::Agent {
 public:
  /// Throws std::invalid_argument, naming the id, for a negative, self or
  /// duplicate entry in `neighbors`: its wave slot could never fill.
  DbAgent(AgentId id, VarId var, int domain_size, Value initial_value,
          std::vector<AgentId> neighbors, std::vector<Nogood> nogoods, Rng rng,
          DbAgentConfig config = {});

  AgentId id() const override { return id_; }
  VarId variable() const override { return var_; }
  Value current_value() const override { return value_; }
  void start(sim::MessageSink& out) override;
  void receive(const sim::MessagePayload& msg) override;
  void compute(sim::MessageSink& out) override;
  std::uint64_t take_checks() override;
  void crash_restart(sim::MessageSink& out) override;
  void amnesia_restart(sim::MessageSink& out) override;
  void on_heartbeat(sim::MessageSink& out) override;
  void set_seq_floor(std::uint64_t floor) override {
    // Rounds double as ok?/improve seqs; resume strictly above the floor so
    // neighbors' per-round guards accept the rebuilt agent's announcements
    // (they would otherwise drop them as stale until catch_up converges).
    if (round_ <= floor) {
      round_ = floor + 1;
      awaiting_improves_ = false;
    }
  }
  std::uint64_t work_ops() const override { return work_ops_; }
  RecoveryStats recovery_stats() const override;
  bool export_capsule(recovery::Checkpoint& out) const override;
  void import_capsule(const recovery::Checkpoint& state,
                      sim::MessageSink& out) override;
  /// DB's learned state is its raised weights (no nogood store).
  std::uint64_t learned_count() const override;
  std::uint64_t announce_seq() const override { return round_; }

  // Introspection for tests.
  std::int64_t weight_of(std::size_t nogood_idx) const { return weights_[nogood_idx]; }
  std::size_t num_nogoods() const { return nogoods_.size(); }
  std::uint64_t round() const { return round_; }
  const recovery::WriteAheadLog& wal() const { return wal_; }

 private:
  /// Wave state of one neighbor: the newest ok? and improve rounds seen
  /// from it, and the wave-B data of that newest improve.
  struct NeighborState {
    std::uint64_t ok_round = 0;
    std::uint64_t improve_round = 0;
    std::int64_t improve = 0;
    std::int64_t eval = 0;
  };
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;
  /// One occurrence of a variable in a nogood's non-own literals.
  struct Occ {
    std::uint32_t ng = 0;
    Value bound = kNoValue;
  };
  /// Weighted cost of taking value d under the current view. Both paths
  /// credit one check per stored nogood (the paper's metric).
  std::int64_t eval(Value d);
  /// Record a view update and maintain the match counters / cost sums.
  void set_view(VarId var, Value value);
  /// Forget the whole view and recompute counters/costs from scratch
  /// (crash and amnesia recovery, where weights may have changed too).
  void clear_view();
  void rebuild_costs();
  /// Add `delta` to the cost bucket nogood `i` feeds.
  void add_cost(std::size_t i, std::int64_t delta);
  /// Grow the view / occurrence tables to cover `var`.
  void ensure_var(VarId var);
  Value view_value(VarId v) const {
    const auto vi = static_cast<std::size_t>(v);
    return vi < view_.size() ? view_[vi] : kNoValue;
  }
  /// The wave state of `sender`, or nullptr if it is not a neighbor. A
  /// negative id converts to a huge index, past the table like any stranger.
  NeighborState* slot_for(AgentId sender) {
    const auto a = static_cast<std::size_t>(sender);
    if (a >= slot_of_.size() || slot_of_[a] == kNoSlot) return nullptr;
    return &slots_[slot_of_[a]];
  }
  bool wave_a_complete() const;
  bool wave_b_complete() const;
  void send_improve(sim::MessageSink& out);
  void conclude_wave(sim::MessageSink& out);
  void broadcast_ok(sim::MessageSink& out);
  void catch_up(std::uint64_t seq);
  void journal(recovery::JournalRecord record);
  void maybe_checkpoint();

  AgentId id_;
  VarId var_;
  int domain_size_;
  Value value_;

  std::vector<AgentId> neighbors_;
  std::vector<Nogood> nogoods_;
  std::vector<std::int64_t> weights_;

  // Flat agent view + incremental cost engine (see the header comment).
  std::vector<Value> view_;                 // var -> value (kNoValue = unknown)
  std::vector<std::vector<Occ>> occ_;       // var -> occurrences
  std::vector<std::uint32_t> matched_;      // nogood -> matching non-own literals
  std::vector<std::uint32_t> needed_;       // nogood -> non-own literal count
  std::vector<Value> own_binding_;          // nogood -> own value (kNoValue = absent)
  std::vector<std::int64_t> cost_;          // own value -> weighted violation cost
  std::int64_t global_cost_ = 0;            // nogoods not mentioning the own var

  // Wave bookkeeping, by round. round_ r means: ok? announcements for round
  // r have been broadcast; wave A of round r completes when every neighbor's
  // ok? of round >= r arrived, wave B when every neighbor's improve of round
  // >= r arrived. Survives crash-restarts (stable storage, like weights_).
  std::uint64_t round_ = 1;
  std::vector<NeighborState> slots_;   // parallel to neighbors_
  std::vector<std::uint32_t> slot_of_; // AgentId -> index into slots_ (kNoSlot = none)
  bool awaiting_improves_ = false;
  std::int64_t my_eval_ = 0;
  std::int64_t my_improve_ = 0;
  Value my_best_value_ = 0;
  std::uint64_t last_improve_round_ = 0;  // 0 = no improve sent yet

  Rng rng_;
  DbAgentConfig config_;
  recovery::WriteAheadLog wal_;
  std::uint64_t checks_ = 0;
  std::uint64_t work_ops_ = 0;
};

}  // namespace discsp::db
