#include "db/db_agent.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

namespace discsp::db {

DbAgent::DbAgent(AgentId id, VarId var, int domain_size, Value initial_value,
                 std::vector<AgentId> neighbors, std::vector<Nogood> nogoods, Rng rng,
                 DbAgentConfig config)
    : id_(id), var_(var), domain_size_(domain_size), value_(initial_value),
      neighbors_(std::move(neighbors)), nogoods_(std::move(nogoods)),
      weights_(nogoods_.size(), 1), rng_(rng), config_(config),
      wal_(config.journal_config) {
  if (initial_value < 0 || initial_value >= domain_size) {
    throw std::invalid_argument("initial value outside domain");
  }
  const std::string self = "DB agent " + std::to_string(id_) + ": ";
  for (std::size_t k = 0; k < neighbors_.size(); ++k) {
    const AgentId n = neighbors_[k];
    if (n < 0) {
      throw std::invalid_argument(self + "negative neighbor id " + std::to_string(n));
    }
    if (n == id_) {
      throw std::invalid_argument(self + "lists itself (" + std::to_string(n) +
                                  ") as a neighbor");
    }
    const auto a = static_cast<std::size_t>(n);
    if (a >= slot_of_.size()) slot_of_.resize(a + 1, kNoSlot);
    if (slot_of_[a] != kNoSlot) {
      throw std::invalid_argument(self + "duplicate neighbor id " + std::to_string(n));
    }
    slot_of_[a] = static_cast<std::uint32_t>(k);
  }
  slots_.assign(neighbors_.size(), NeighborState{});
  // Build the occurrence index once: DB's nogood set is fixed for the run.
  matched_.assign(nogoods_.size(), 0);
  needed_.assign(nogoods_.size(), 0);
  own_binding_.assign(nogoods_.size(), kNoValue);
  cost_.assign(static_cast<std::size_t>(domain_size_), 0);
  for (std::size_t i = 0; i < nogoods_.size(); ++i) {
    for (const Assignment& a : nogoods_[i]) {
      if (a.var == var_) {
        own_binding_[i] = a.value;
        continue;
      }
      ensure_var(a.var);
      occ_[static_cast<std::size_t>(a.var)].push_back(
          Occ{static_cast<std::uint32_t>(i), a.value});
      ++needed_[i];
    }
  }
  rebuild_costs();
}

void DbAgent::ensure_var(VarId var) {
  const auto v = static_cast<std::size_t>(var);
  if (v >= view_.size()) {
    view_.resize(v + 1, kNoValue);
    occ_.resize(v + 1);
  }
}

void DbAgent::add_cost(std::size_t i, std::int64_t delta) {
  if (own_binding_[i] == kNoValue) {
    global_cost_ += delta;
  } else {
    cost_[static_cast<std::size_t>(own_binding_[i])] += delta;
  }
}

void DbAgent::set_view(VarId var, Value value) {
  ensure_var(var);
  Value& slot = view_[static_cast<std::size_t>(var)];
  if (slot == value) return;
  const Value old = slot;
  slot = value;
  for (const Occ& o : occ_[static_cast<std::size_t>(var)]) {
    ++work_ops_;
    const bool was = o.bound == old;
    const bool now = o.bound == value;
    if (was == now) continue;
    if (now) {
      if (++matched_[o.ng] == needed_[o.ng]) add_cost(o.ng, weights_[o.ng]);
    } else {
      if (matched_[o.ng]-- == needed_[o.ng]) add_cost(o.ng, -weights_[o.ng]);
    }
  }
}

void DbAgent::clear_view() {
  std::fill(view_.begin(), view_.end(), kNoValue);
  rebuild_costs();
}

void DbAgent::rebuild_costs() {
  // From-scratch recompute: recovery paths reset the view and may have
  // replaced the weights wholesale, so the deltas are not reconstructible.
  std::fill(cost_.begin(), cost_.end(), std::int64_t{0});
  global_cost_ = 0;
  for (std::size_t i = 0; i < nogoods_.size(); ++i) {
    std::uint32_t matched = 0;
    for (const Assignment& a : nogoods_[i]) {
      if (a.var == var_) continue;
      ++work_ops_;
      if (view_value(a.var) == a.value) ++matched;
    }
    matched_[i] = matched;
    if (matched == needed_[i]) add_cost(i, weights_[i]);
  }
}

void DbAgent::journal(recovery::JournalRecord record) {
  if (!config_.journal) return;
  wal_.append(std::move(record));
  maybe_checkpoint();
}

void DbAgent::maybe_checkpoint() {
  if (!wal_.should_checkpoint()) return;
  recovery::Checkpoint cp;
  cp.has_value = true;
  cp.value = value_;
  cp.weights = weights_;
  wal_.write_checkpoint(std::move(cp));
}

std::int64_t DbAgent::eval(Value d) {
  if (config_.incremental) {
    // The scan would evaluate every nogood — credit the same check count
    // (the paper's metric); the answer itself is two counter reads.
    checks_ += nogoods_.size();
    ++work_ops_;
    return cost_[static_cast<std::size_t>(d)] + global_cost_;
  }
  std::int64_t cost = 0;
  for (std::size_t i = 0; i < nogoods_.size(); ++i) {
    ++checks_;
    ++work_ops_;
    const bool violated = nogoods_[i].violated_by([&](VarId v) {
      return v == var_ ? d : view_value(v);
    });
    if (violated) cost += weights_[i];
  }
  return cost;
}

void DbAgent::start(sim::MessageSink& out) {
  if (neighbors_.empty()) {
    // No peers to coordinate with: settle on a locally optimal value once
    // (only unary nogoods can matter).
    std::int64_t best = std::numeric_limits<std::int64_t>::max();
    Value best_value = value_;
    for (Value d = 0; d < domain_size_; ++d) {
      const std::int64_t c = eval(d);
      if (c < best) {
        best = c;
        best_value = d;
      }
    }
    value_ = best_value;
    return;
  }
  broadcast_ok(out);
}

void DbAgent::receive(const sim::MessagePayload& msg) {
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, sim::OkMessage>) {
          // Apply only announcements at least as new as the newest seen from
          // this neighbor: a duplicate re-applies the same value (harmless),
          // a stale reordered one is discarded instead of regressing the
          // view. Under reliable FIFO the seq is strictly increasing and
          // every message is applied, exactly like the unguarded original.
          NeighborState* from = slot_for(m.sender);
          if (from == nullptr) return;  // not a neighbor of ours
          if (m.seq >= from->ok_round) {
            from->ok_round = m.seq;
            set_view(m.var, m.value);
          }
          catch_up(m.seq);
        } else if constexpr (std::is_same_v<T, sim::ImproveMessage>) {
          NeighborState* from = slot_for(m.sender);
          if (from == nullptr) return;
          if (m.seq >= from->improve_round) {
            from->improve_round = m.seq;
            from->improve = m.improve;
            from->eval = m.eval;
          }
          catch_up(m.seq);
        } else {
          throw std::logic_error("DB agent received an unsupported message type");
        }
      },
      msg);
}

void DbAgent::catch_up(std::uint64_t seq) {
  // A neighbor announcing a round more than one wave ahead can only be a
  // post-amnesia incarnation that resumed at its reserved seq-block limit
  // (fault-free, the two-wave lockstep keeps every incoming seq within
  // round_ + 1). Climbing there one wave at a time is heartbeat-paced and
  // mixed-round neighborhoods can deadlock outright: an agent in wave B of
  // round r starves for improves from a neighbor stuck in wave A of r + 1,
  // which in turn starves for our ok? of r + 1. Adopt the inflated round
  // instead — the >= completion guards absorb the skipped waves and the
  // whole neighborhood re-synchronizes at the maximum.
  if (seq <= round_ + 1) return;
  round_ = seq;
  awaiting_improves_ = false;
}

bool DbAgent::wave_a_complete() const {
  for (const NeighborState& s : slots_) {
    if (s.ok_round < round_) return false;
  }
  return true;
}

bool DbAgent::wave_b_complete() const {
  for (const NeighborState& s : slots_) {
    if (s.improve_round < round_) return false;
  }
  return true;
}

void DbAgent::compute(sim::MessageSink& out) {
  if (neighbors_.empty()) return;
  // Under asynchronous delivery a single activation can complete both waves
  // (the last expected ok? may arrive after every improve already did), so
  // loop until no wave transition fires — otherwise the protocol deadlocks
  // waiting for a message that will never come.
  for (;;) {
    if (!awaiting_improves_ && wave_a_complete()) {
      send_improve(out);
      continue;
    }
    if (awaiting_improves_ && wave_b_complete()) {
      conclude_wave(out);
      continue;
    }
    break;
  }
}

void DbAgent::send_improve(sim::MessageSink& out) {
  my_eval_ = eval(value_);
  std::int64_t best = my_eval_;
  std::vector<Value> best_values{value_};
  for (Value d = 0; d < domain_size_; ++d) {
    if (d == value_) continue;
    const std::int64_t c = eval(d);
    if (c < best) {
      best = c;
      best_values.assign(1, d);
    } else if (c == best && best < my_eval_) {
      best_values.push_back(d);
    }
  }
  my_improve_ = my_eval_ - best;
  my_best_value_ = best_values[rng_.index(best_values.size())];

  for (AgentId n : neighbors_) {
    out.send(n, sim::ImproveMessage{.sender = id_, .var = var_,
                                    .improve = my_improve_, .eval = my_eval_,
                                    .seq = round_});
  }
  awaiting_improves_ = true;
  last_improve_round_ = round_;
}

void DbAgent::conclude_wave(sim::MessageSink& out) {
  // Strongest neighbor claim this round: larger improve wins, ties go to
  // the smaller agent id (a max over a total order — identical to the
  // arrival-order accumulation it replaces, but duplicate-proof).
  bool any_positive_neighbor = false;
  AgentId best_neighbor = kNoAgent;
  std::int64_t best_neighbor_improve = 0;
  for (std::size_t k = 0; k < neighbors_.size(); ++k) {
    const AgentId n = neighbors_[k];
    const std::int64_t improve = slots_[k].improve;
    if (improve > 0) any_positive_neighbor = true;
    if (best_neighbor == kNoAgent || improve > best_neighbor_improve ||
        (improve == best_neighbor_improve && n < best_neighbor)) {
      best_neighbor = n;
      best_neighbor_improve = improve;
    }
  }

  const bool i_win =
      my_improve_ > 0 &&
      (best_neighbor == kNoAgent || my_improve_ > best_neighbor_improve ||
       (my_improve_ == best_neighbor_improve && id_ < best_neighbor));
  if (i_win) {
    value_ = my_best_value_;
    journal({recovery::RecordType::kValue, value_, 0, Nogood{}});
  } else if (my_eval_ > 0 && my_improve_ <= 0 && !any_positive_neighbor) {
    // Quasi-local-minimum: cost remains, nobody in the neighborhood can
    // improve. Breakout: make the current violations more expensive. Both
    // paths enumerate ascending i, so journal record order is identical.
    for (std::size_t i = 0; i < nogoods_.size(); ++i) {
      ++checks_;
      ++work_ops_;
      const bool fully_matched = matched_[i] == needed_[i];
      const bool violated =
          config_.incremental
              ? fully_matched &&
                    (own_binding_[i] == kNoValue || own_binding_[i] == value_)
              : nogoods_[i].violated_by([&](VarId v) {
                  return v == var_ ? value_ : view_value(v);
                });
      if (violated) {
        ++weights_[i];
        // Keep the cost sums in step with the new weight (a violated nogood
        // is necessarily fully matched).
        if (fully_matched) add_cost(i, 1);
        journal({recovery::RecordType::kWeight, static_cast<std::int64_t>(i),
                 weights_[i], Nogood{}});
      }
    }
  }

  ++round_;
  awaiting_improves_ = false;
  broadcast_ok(out);
}

void DbAgent::broadcast_ok(sim::MessageSink& out) {
  if (config_.journal) {
    // Round numbers double as ok?/improve sequence numbers; reserve them in
    // blocks so they survive amnesia without journaling every wave.
    wal_.ensure_seq(round_);
    maybe_checkpoint();
  }
  for (AgentId n : neighbors_) {
    out.send(n, sim::OkMessage{.sender = id_, .var = var_, .value = value_,
                               .priority = 0, .seq = round_});
  }
}

void DbAgent::crash_restart(sim::MessageSink& out) {
  if (neighbors_.empty()) return;
  // Volatile state dies: current value, view, mid-wave scratch. Stable
  // storage survives: learned weights and the round/seq bookkeeping (so the
  // restart rejoins the wave protocol instead of replaying it from round 1,
  // which neighbors would discard as stale anyway).
  value_ = static_cast<Value>(rng_.index(static_cast<std::size_t>(domain_size_)));
  journal({recovery::RecordType::kValue, value_, 0, Nogood{}});
  clear_view();
  awaiting_improves_ = false;  // redo wave A of the current round
  last_improve_round_ = 0;     // the improve scratch was volatile too
  broadcast_ok(out);
  // The view is repaired by the neighbors' heartbeat re-announcements.
}

void DbAgent::amnesia_restart(sim::MessageSink& out) {
  if (!config_.journal) {
    crash_restart(out);
    return;
  }
  if (neighbors_.empty()) return;
  // Everything is gone: weights, round bookkeeping, view, scratch. Rebuild
  // from the problem definition (all weights 1) plus checkpoint plus the
  // journal's record tail.
  weights_.assign(nogoods_.size(), 1);
  const recovery::Checkpoint& cp = wal_.checkpoint();
  bool have_value = cp.has_value;
  if (have_value) {
    value_ = static_cast<Value>(cp.value);
    if (!cp.weights.empty()) weights_ = cp.weights;
  }
  for (const recovery::JournalRecord& rec : wal_.records()) {
    switch (rec.type) {
      case recovery::RecordType::kValue:
        value_ = static_cast<Value>(rec.a);
        have_value = true;
        break;
      case recovery::RecordType::kWeight:
        weights_[static_cast<std::size_t>(rec.a)] = rec.b;
        break;
      default:
        break;  // AWC-only record types never appear in a DB journal
    }
  }
  if (!have_value) {
    value_ = static_cast<Value>(rng_.index(static_cast<std::size_t>(domain_size_)));
  }
  // Resume rounds past anything a pre-crash incarnation may have announced;
  // neighbors' >= guards absorb the skipped block tail, and their own rounds
  // catch up because our (inflated) announcements satisfy any lower round.
  round_ = std::max<std::uint64_t>(1, wal_.seq_limit());
  clear_view();  // also folds the restored weights back into the cost sums
  awaiting_improves_ = false;
  slots_.assign(neighbors_.size(), NeighborState{});
  wal_.note_replay();
  broadcast_ok(out);
  // Jump straight into wave B of the resumed round. Our round is inflated
  // past the neighbors' (the skipped block tail), so waiting for their ok?s
  // of round >= round_ stalls us for many waves — and in the meantime their
  // own wave B would starve waiting for improves we never send. One improve
  // stamped with the inflated round satisfies every neighbor's >= guard for
  // all their rounds up to ours, keeping the neighborhood live while it
  // catches up. (Its improve value is computed from the still-empty view —
  // heuristically poor but protocol-safe, like any stale improve.)
  send_improve(out);
}

sim::Agent::RecoveryStats DbAgent::recovery_stats() const {
  return {wal_.appends(), wal_.checkpoints(), wal_.replays(), 0, 0};
}

bool DbAgent::export_capsule(recovery::Checkpoint& out) const {
  out = recovery::Checkpoint{};
  out.has_value = true;
  out.value = value_;
  out.weights = weights_;
  return true;
}

void DbAgent::import_capsule(const recovery::Checkpoint& state,
                             sim::MessageSink& out) {
  if (neighbors_.empty()) return;
  // Freshly built agent: weights are all 1, view empty. Apply the capsule's
  // dynamic layer — the amnesia path without the record replay.
  if (state.has_value && state.value >= 0 && state.value < domain_size_) {
    value_ = static_cast<Value>(state.value);
  }
  if (state.weights.size() == nogoods_.size()) weights_ = state.weights;
  if (config_.journal) {
    recovery::Checkpoint cp;
    cp.has_value = true;
    cp.value = value_;
    cp.weights = weights_;
    wal_.write_checkpoint(std::move(cp));
  }
  clear_view();  // folds the restored weights into the cost sums
  awaiting_improves_ = false;
  last_improve_round_ = 0;
  slots_.assign(neighbors_.size(), NeighborState{});
  // Same liveness trick as amnesia recovery: our round was fenced past the
  // neighbors', so announce and send one inflated-round improve to keep the
  // neighborhood's wave B from starving while it catches up.
  broadcast_ok(out);
  send_improve(out);
}

std::uint64_t DbAgent::learned_count() const {
  std::uint64_t raised = 0;
  for (std::int64_t w : weights_) {
    if (w != 1) ++raised;
  }
  return raised;
}

void DbAgent::on_heartbeat(sim::MessageSink& out) {
  if (neighbors_.empty()) return;
  // Re-send the current round's announcements. Receivers already past them
  // ignore the duplicates (seq guard); receivers whose copy was dropped are
  // repaired — this is what keeps the two-wave protocol live under loss.
  // The improve is re-sent with the round it was computed at even after this
  // agent concluded its wave: a neighbor one round behind may still be
  // starving for exactly that improve (we no longer await anything from it,
  // so nothing else would repair the drop).
  broadcast_ok(out);
  if (last_improve_round_ > 0) {
    for (AgentId n : neighbors_) {
      out.send(n, sim::ImproveMessage{.sender = id_, .var = var_,
                                      .improve = my_improve_, .eval = my_eval_,
                                      .seq = last_improve_round_});
    }
  }
}

std::uint64_t DbAgent::take_checks() {
  const std::uint64_t c = checks_;
  checks_ = 0;
  return c;
}

}  // namespace discsp::db
