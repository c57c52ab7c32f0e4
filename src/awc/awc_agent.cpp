#include "awc/awc_agent.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

namespace discsp::awc {

AwcAgent::AwcAgent(AgentId id, VarId var, int domain_size, Value initial_value,
                   std::unique_ptr<learning::LearningStrategy> strategy,
                   std::vector<AgentId> initial_links,
                   const std::vector<Nogood>& initial_nogoods,
                   std::shared_ptr<const std::vector<AgentId>> owner_of_var,
                   std::shared_ptr<GenerationLog> generation_log, Rng rng,
                   AwcAgentConfig config)
    : id_(id), var_(var), domain_size_(domain_size), value_(initial_value),
      store_(var, domain_size), strategy_(std::move(strategy)),
      links_(std::move(initial_links)), owner_of_var_(std::move(owner_of_var)),
      generation_log_(std::move(generation_log)),
      wal_(config.journal_config), rng_(rng), config_(config) {
  if (initial_value < 0 || initial_value >= domain_size) {
    throw std::invalid_argument("initial value outside domain");
  }
  if (strategy_ == nullptr) throw std::invalid_argument("null learning strategy");
  link_set_.insert(links_.begin(), links_.end());
  initial_link_count_ = links_.size();
  if (owner_of_var_ != nullptr) {
    view_priority_.resize(owner_of_var_->size(), 0);
    view_seq_.resize(owner_of_var_->size(), 0);
  }
  if (config_.journal) initial_nogoods_ = initial_nogoods;
  for (const Nogood& ng : initial_nogoods) {
    if (ng.empty()) {
      insoluble_ = true;  // the problem carries an explicit contradiction
      continue;
    }
    store_.add(ng);
  }
  store_.mark_initial();
  store_.set_capacity(config_.nogood_capacity);
  store_.set_own_value(value_);
}

Priority AwcAgent::priority_of(VarId v) const {
  if (v == var_) return priority_;
  if (!view_known(v)) return 0;
  const auto vi = static_cast<std::size_t>(v);
  return vi < view_priority_.size() ? view_priority_[vi] : 0;
}

void AwcAgent::ensure_view_var(VarId var) {
  const auto v = static_cast<std::size_t>(var);
  if (v >= view_priority_.size()) {
    view_priority_.resize(v + 1, 0);
    view_seq_.resize(v + 1, 0);
  }
}

void AwcAgent::clear_agent_view() {
  store_.clear_view();
  std::fill(view_priority_.begin(), view_priority_.end(), Priority{0});
  std::fill(view_seq_.begin(), view_seq_.end(), std::uint64_t{0});
}

std::size_t AwcAgent::view_size() const {
  const auto view = store_.view_values();
  return static_cast<std::size_t>(
      std::count_if(view.begin(), view.end(),
                    [](Value v) { return v != kNoValue; }));
}

bool AwcAgent::nogood_is_higher(const Nogood& ng) const {
  const VarId weakest = weakest_var(ng, var_);
  // A nogood mentioning only the own variable binds unconditionally; treat
  // it as higher than everything.
  if (weakest == kNoVar) return true;
  return outranks(weakest, var_);
}

bool AwcAgent::violated_with_own(const Nogood& ng, Value d) {
  ++checks_;
  store_.add_scan_work(1);  // the flat-scan path's unit of real work
  return ng.violated_by([&](VarId v) { return v == var_ ? d : view_value(v); });
}

void AwcAgent::journal(recovery::JournalRecord record) {
  if (!config_.journal) return;
  wal_.append(std::move(record));
  maybe_checkpoint();
}

recovery::Checkpoint AwcAgent::make_checkpoint() const {
  recovery::Checkpoint cp;
  cp.has_value = true;
  cp.value = value_;
  cp.priority = priority_;
  cp.insoluble = insoluble_;
  cp.extra_links.assign(links_.begin() + static_cast<std::ptrdiff_t>(initial_link_count_),
                        links_.end());
  // Initial nogoods always occupy the store's leading indices (eviction only
  // ever removes learned ones, and swap-with-last swaps learned into
  // learned), so the learned tail is a contiguous suffix.
  cp.learned.reserve(store_.size() - store_.initial_count());
  for (std::size_t idx = store_.initial_count(); idx < store_.size(); ++idx) {
    cp.learned.push_back(store_.at(idx));
  }
  return cp;
}

void AwcAgent::maybe_checkpoint() {
  if (!wal_.should_checkpoint()) return;
  wal_.write_checkpoint(make_checkpoint());
}

bool AwcAgent::export_capsule(recovery::Checkpoint& out) const {
  out = make_checkpoint();
  return true;
}

void AwcAgent::import_capsule(const recovery::Checkpoint& state,
                              sim::MessageSink& out) {
  // The adopting worker just built this agent from static configuration
  // (initial nogoods, initial links are already in place), so only the
  // capsule's dynamic layer needs applying — the amnesia path's checkpoint
  // stage without the record replay.
  pending_value_requests_.clear();
  pending_link_replies_.clear();
  last_generated_.reset();
  clear_agent_view();
  insoluble_ = insoluble_ || state.insoluble;
  for (int link : state.extra_links) {
    if (link_set_.insert(link).second) links_.push_back(link);
  }
  // Re-admit the learned suffix un-evicted (as replay does), then restore
  // the bound: the exporter obeyed the same capacity, so this cannot grow
  // past it.
  store_.set_capacity(0);
  for (const Nogood& ng : state.learned) {
    if (ng.empty()) {
      insoluble_ = true;
      continue;
    }
    store_.add(ng);
  }
  store_.set_capacity(config_.nogood_capacity);
  if (state.has_value && state.value >= 0 && state.value < domain_size_) {
    value_ = static_cast<Value>(state.value);
    priority_ = static_cast<Priority>(state.priority);
  }
  store_.set_own_value(value_);
  // Fold the imported state into this incarnation's journal so a later
  // amnesia crash recovers the migrated learning too.
  if (config_.journal) wal_.write_checkpoint(make_checkpoint());
  dirty_ = true;
  // Re-announce (the caller raised the seq floor first, so this clears the
  // coordinator's fence) and re-request every neighbor's current state.
  broadcast_ok(out);
  for (AgentId neighbor : links_) {
    out.send(neighbor, sim::AddLinkMessage{.sender = id_, .var = kNoVar});
  }
}

void AwcAgent::set_value(Value v) {
  value_ = v;
  store_.set_own_value(v);
  journal({recovery::RecordType::kValue, v, 0, Nogood{}});
}

void AwcAgent::set_priority(Priority p) {
  priority_ = p;
  journal({recovery::RecordType::kPriority, p, 0, Nogood{}});
}

void AwcAgent::start(sim::MessageSink& out) {
  // Journal the starting state so an amnesia crash that hits before any
  // transition still recovers a concrete (value, priority) pair.
  journal({recovery::RecordType::kValue, value_, 0, Nogood{}});
  journal({recovery::RecordType::kPriority, priority_, 0, Nogood{}});
  broadcast_ok(out);
  dirty_ = true;
}

void AwcAgent::receive(const sim::MessagePayload& msg) {
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, sim::OkMessage>) {
          on_ok(m);
        } else if constexpr (std::is_same_v<T, sim::NogoodMessage>) {
          on_nogood(m);
        } else if constexpr (std::is_same_v<T, sim::AddLinkMessage>) {
          on_add_link(m);
        } else {
          throw std::logic_error("AWC agent received an unsupported message type");
        }
      },
      msg);
}

void AwcAgent::on_ok(const sim::OkMessage& m) {
  if (m.var == var_) return;  // defensive: nobody else announces our variable
  ensure_view_var(m.var);
  const auto vi = static_cast<std::size_t>(m.var);
  // Duplicate/stale suppression: under unreliable delivery an older
  // announcement can arrive after a newer one; applying it would regress
  // the view to a value/priority its owner has already abandoned. Sequence
  // numbers are monotone per sender, so "older" is simply a smaller seq.
  // (seq 0 = unsequenced legacy sender: always applied, as before.)
  if (m.seq != 0 && m.seq < view_seq_[vi]) return;
  view_seq_[vi] = m.seq;
  if (store_.view_value(m.var) != m.value || view_priority_[vi] != m.priority) {
    store_.set_view(m.var, m.value);
    view_priority_[vi] = m.priority;
    dirty_ = true;
  }
}

void AwcAgent::on_nogood(const sim::NogoodMessage& m) {
  if (!config_.record_received) return;
  const std::size_t bound = strategy_->record_bound();
  if (bound != 0 && m.nogood.size() > bound) return;  // size-bounded learning
  if (m.nogood.empty()) {
    insoluble_ = true;
    journal({recovery::RecordType::kInsoluble, 0, 0, Nogood{}});
    return;
  }
  if (!m.nogood.contains(var_)) {
    // Defensive: a nogood not mentioning our variable is not ours to keep.
    return;
  }
  if (store_.add(m.nogood)) {
    // Journal the eviction (if the bounded add displaced something) before
    // the insert, so in-order replay reproduces the store exactly.
    if (store_.last_eviction().has_value()) {
      journal({recovery::RecordType::kEvict, 0, 0, *store_.last_eviction()});
    }
    journal({recovery::RecordType::kNogood, 0, 0, m.nogood});
    dirty_ = true;
    for (const Assignment& a : m.nogood) {
      if (a.var != var_ && !view_known(a.var)) {
        pending_value_requests_.push_back(a.var);
      }
    }
  }
}

void AwcAgent::on_add_link(const sim::AddLinkMessage& m) {
  if (link_set_.insert(m.sender).second) {
    links_.push_back(m.sender);
    journal({recovery::RecordType::kLink, m.sender, 0, Nogood{}});
  }
  pending_link_replies_.push_back(m.sender);
}

void AwcAgent::compute(sim::MessageSink& out) {
  // 1. Request values for variables that appeared in received nogoods.
  for (VarId v : pending_value_requests_) {
    if (view_known(v)) continue;  // answered meanwhile
    const AgentId owner = (*owner_of_var_)[static_cast<std::size_t>(v)];
    out.send(owner, sim::AddLinkMessage{.sender = id_, .var = v});
  }
  pending_value_requests_.clear();

  // 2. Answer fresh links with our current state (at its current version:
  //    a later broadcast must not be undercut by this reply).
  for (AgentId requester : pending_link_replies_) {
    out.send(requester, sim::OkMessage{.sender = id_, .var = var_,
                                       .value = value_, .priority = priority_,
                                       .seq = ok_seq_});
  }
  pending_link_replies_.clear();

  // 3. Re-evaluate only when something changed; re-running on an unchanged
  //    view would repeat identical nogood checks and distort maxcck.
  if (!dirty_ || insoluble_) return;
  dirty_ = false;
  evaluate(out);
}

void AwcAgent::evaluate(sim::MessageSink& out) {
  // Check metering note: both paths account one check per (nogood, candidate
  // value) examined — exactly like the flat-list implementation the paper
  // meters, so maxcck in Tables 1-10 / Figure 2 is path-independent. The
  // scan path performs the evaluations; the incremental path reads the
  // store's counters and credits the same arithmetic.
  if (config_.incremental) {
    evaluate_incremental(out);
  } else {
    evaluate_scan(out);
  }
}

void AwcAgent::evaluate_scan(sim::MessageSink& out) {
  // Pass 1: is the current value consistent with all higher nogoods?
  std::vector<const Nogood*> current_violations;
  for (std::size_t idx = 0; idx < store_.size(); ++idx) {
    const Nogood& ng = store_.at(idx);
    if (violated_with_own(ng, value_)) {
      // Violation recency feeds the bounded store's LRU eviction order.
      store_.note_violation(idx);
      if (nogood_is_higher(ng)) current_violations.push_back(&ng);
    }
  }
  if (current_violations.empty()) return;  // consistent: weak commitment holds

  // Pass 2: the higher nogoods (value-independent; they also feed the mcs
  // subset search's cost accounting), and the violated ones among them per
  // candidate value.
  std::vector<const Nogood*> higher;
  for (std::size_t idx = 0; idx < store_.size(); ++idx) {
    if (nogood_is_higher(store_.at(idx))) higher.push_back(&store_.at(idx));
  }
  std::vector<std::vector<const Nogood*>> violated_higher(
      static_cast<std::size_t>(domain_size_));
  std::vector<Value> consistent;
  for (Value d = 0; d < domain_size_; ++d) {
    auto& violated = violated_higher[static_cast<std::size_t>(d)];
    if (d == value_) {
      violated = std::move(current_violations);  // already tested in pass 1
    } else {
      for (const Nogood* ng : higher) {
        if (violated_with_own(*ng, d)) violated.push_back(ng);
      }
    }
    if (violated.empty()) consistent.push_back(d);
  }

  if (!consistent.empty()) {
    // Repair: move to the consistent value minimizing violated lower nogoods.
    set_value(min_conflict_value(consistent, nullptr));
    broadcast_ok(out);
    return;
  }

  handle_deadend(violated_higher, higher, out);
}

void AwcAgent::evaluate_incremental(sim::MessageSink& out) {
  // Pass 1 via counters: the nogoods violated with own = value_ are exactly
  // the store's violated list for value_, already in flat-scan discovery
  // order. The scan path evaluates every stored nogood here — credit the
  // same store_.size() checks.
  checks_ += store_.size();
  auto& violated_higher = scratch_violated_higher_;
  violated_higher.resize(static_cast<std::size_t>(domain_size_));
  for (auto& list : violated_higher) list.clear();
  auto& current_violations = violated_higher[static_cast<std::size_t>(value_)];
  scratch_violated_.clear();
  store_.violated_with_own(value_, scratch_violated_);
  for (std::uint32_t idx : scratch_violated_) {
    store_.note_violation(idx);  // identical LRU stamping order to the scan
    if (stored_is_higher(idx)) current_violations.push_back(&store_.at(idx));
  }
  if (current_violations.empty()) return;  // consistent: weak commitment holds

  // Pass 2: the violated higher nogoods per candidate value come from the
  // counters.
  std::vector<Value> consistent;
  for (Value d = 0; d < domain_size_; ++d) {
    auto& violated = violated_higher[static_cast<std::size_t>(d)];
    if (d != value_) {
      scratch_violated_.clear();
      store_.violated_with_own(d, scratch_violated_);
      for (std::uint32_t idx : scratch_violated_) {
        if (stored_is_higher(idx)) violated.push_back(&store_.at(idx));
      }
    }
    if (violated.empty()) consistent.push_back(d);
  }

  // The scan path meters (domain - 1) * |higher| checks in pass 2 — credit
  // the same. A deadend also hands the (value-independent) list itself to
  // the learning strategy.
  scratch_higher_.clear();
  for (std::size_t idx = 0; idx < store_.size(); ++idx) {
    if (stored_is_higher(idx)) scratch_higher_.push_back(&store_.at(idx));
  }
  checks_ += static_cast<std::uint64_t>(domain_size_ - 1) * scratch_higher_.size();
  if (!consistent.empty()) {
    set_value(min_conflict_value(consistent, nullptr));
    broadcast_ok(out);
    return;
  }

  handle_deadend(violated_higher, scratch_higher_, out);
}

void AwcAgent::handle_deadend(const std::vector<std::vector<const Nogood*>>& violated_higher,
                              std::span<const Nogood* const> higher,
                              sim::MessageSink& out) {
  learning::DeadendContext ctx;
  ctx.own = var_;
  ctx.domain_size = domain_size_;
  ctx.violated = violated_higher;
  ctx.higher = higher;
  // The flat view in ascending variable order; strategies canonicalize the
  // nogoods they build from it, so the order carries no meaning. The same
  // pass finds the highest priority in the view for the raise below.
  const auto view = store_.view_values();
  scratch_view_.clear();
  Priority max_seen = 0;
  for (std::size_t v = 0; v < view.size(); ++v) {
    if (view[v] != kNoValue) {
      scratch_view_.push_back({static_cast<VarId>(v), view[v]});
      if (v < view_priority_.size()) max_seen = std::max(max_seen, view_priority_[v]);
    }
  }
  ctx.agent_view = &scratch_view_;
  ctx.order = this;

  std::optional<Nogood> learned = strategy_->learn(ctx, checks_);

  if (learned.has_value()) {
    if (learned->empty()) {
      // The resolvent over an empty context: no combination of other
      // variables permits any value — the problem is insoluble.
      insoluble_ = true;
      journal({recovery::RecordType::kInsoluble, 0, 0, Nogood{}});
      return;
    }
    // Every deadend derivation counts as a generation — including the ones
    // the completeness guard below then suppresses. This is the paper's
    // Table-4 instrument: "an agent repeatedly makes the same nogoods if
    // the previously generated nogoods are not recorded".
    ++nogoods_generated_;
    if (generation_log_ != nullptr && generation_log_->record(*learned)) {
      ++redundant_generations_;
    }
    if (last_generated_.has_value() && *last_generated_ == *learned) {
      // Completeness guard (paper §2.2): re-deriving the same nogood means
      // nothing new was learned; stay put until the view changes.
      return;
    }
    last_generated_ = *learned;
    // Send the nogood to every agent whose variable appears in it.
    for (const Assignment& a : *learned) {
      const AgentId owner = (*owner_of_var_)[static_cast<std::size_t>(a.var)];
      out.send(owner, sim::NogoodMessage{.sender = id_, .nogood = *learned});
    }
  }

  // Move to the value minimizing violations over *all* nogoods (the value
  // choice must precede the priority raise: min_conflict_value combines the
  // higher-nogood evidence gathered above with fresh lower-nogood checks,
  // and both sides are classified under the current priority). Then raise
  // the priority above everything in the view and announce. With learning
  // this happens only for fresh nogoods (handled above); without learning it
  // is the only way to break the deadend.
  std::vector<Value> all_values(static_cast<std::size_t>(domain_size_));
  for (Value d = 0; d < domain_size_; ++d) all_values[static_cast<std::size_t>(d)] = d;
  set_value(min_conflict_value(all_values, &violated_higher));
  set_priority(max_seen + 1);
  dirty_ = true;  // classification changed with the priority; re-examine next round
  broadcast_ok(out);
}

Value AwcAgent::min_conflict_value(
    const std::vector<Value>& candidates,
    const std::vector<std::vector<const Nogood*>>* higher_violations) {
  assert(!candidates.empty());
  // Violations of *higher* nogoods were already established by the caller:
  // zero for consistent repair candidates, `higher_violations` at a deadend.
  // Only lower nogoods need fresh checks here.
  std::vector<Value> best;
  std::uint64_t best_count = std::numeric_limits<std::uint64_t>::max();
  for (Value d : candidates) {
    std::uint64_t count;
    if (config_.incremental) {
      // Counter equivalence: for repair candidates nothing higher is
      // violated, so the violated total *is* the lower count; at a deadend
      // the total splits as |higher violated| + |lower violated|, which is
      // exactly the sum the scan path forms. Either way the total is the
      // O(1) counter read — credited with the scan's store_.size() checks.
      count = store_.violated_count(d);
      checks_ += store_.size();
    } else {
      count = higher_violations == nullptr
                  ? 0
                  : (*higher_violations)[static_cast<std::size_t>(d)].size();
      for (std::size_t idx = 0; idx < store_.size(); ++idx) {
        const Nogood& ng = store_.at(idx);
        // Flat scan (see evaluate() metering note); higher-nogood violations
        // arrive pre-counted through `higher_violations`.
        if (violated_with_own(ng, d) && !nogood_is_higher(ng)) ++count;
      }
    }
    if (count < best_count) {
      best_count = count;
      best.clear();
    }
    if (count == best_count) best.push_back(d);
  }
  return best[rng_.index(best.size())];
}

void AwcAgent::broadcast_ok(sim::MessageSink& out) {
  ++ok_seq_;
  if (config_.journal) {
    // Reserve the sequence block covering this announcement (one record per
    // `seq_reserve` increments) so post-amnesia announcements never regress.
    wal_.ensure_seq(ok_seq_);
    maybe_checkpoint();
  }
  for (AgentId neighbor : links_) {
    out.send(neighbor, sim::OkMessage{.sender = id_, .var = var_,
                                      .value = value_, .priority = priority_,
                                      .seq = ok_seq_});
  }
}

void AwcAgent::crash_restart(sim::MessageSink& out) {
  // Volatile state dies with the process: current value, priority, the
  // agent view, and in-flight bookkeeping. Stable storage survives: the
  // nogood store, the link directory, and the ok? sequence counter (so
  // post-restart announcements are not mistaken for stale ones).
  clear_agent_view();
  set_value(static_cast<Value>(rng_.index(static_cast<std::size_t>(domain_size_))));
  set_priority(0);
  pending_value_requests_.clear();
  pending_link_replies_.clear();
  last_generated_.reset();
  dirty_ = true;
  // Recovery: re-announce ourselves and re-request every link's current
  // state (kNoVar = "whatever you own"; the receiver replies with its ok?).
  broadcast_ok(out);
  for (AgentId neighbor : links_) {
    out.send(neighbor, sim::AddLinkMessage{.sender = id_, .var = kNoVar});
  }
}

void AwcAgent::amnesia_restart(sim::MessageSink& out) {
  if (!config_.journal) {
    // No journal, no recovery story: degrade to the PR 1 model where stable
    // storage is assumed indestructible.
    crash_restart(out);
    return;
  }
  // Everything in memory is gone. Rebuild in three layers:
  //  1. static problem configuration (initial nogoods, initial links) —
  //     re-read from the problem definition;
  //  2. the journal's checkpoint;
  //  3. the journal's record tail, replayed in order.
  pending_value_requests_.clear();
  pending_link_replies_.clear();
  last_generated_.reset();
  links_.resize(initial_link_count_);
  link_set_.clear();
  link_set_.insert(links_.begin(), links_.end());
  store_ = NogoodStore(var_, domain_size_);
  clear_agent_view();  // fresh store: resets the flat priority/seq arrays
  insoluble_ = false;
  for (const Nogood& ng : initial_nogoods_) {
    if (ng.empty()) {
      insoluble_ = true;
      continue;
    }
    store_.add(ng);
  }
  store_.mark_initial();

  const recovery::Checkpoint& cp = wal_.checkpoint();
  bool have_value = cp.has_value;
  value_ = have_value ? static_cast<Value>(cp.value) : value_;
  priority_ = static_cast<Priority>(cp.priority);
  insoluble_ = insoluble_ || cp.insoluble;
  for (int link : cp.extra_links) {
    if (link_set_.insert(link).second) links_.push_back(link);
  }
  // Replay rebuilds the store with the bound disabled: kEvict records
  // already say exactly which nogood left and when, so re-running the
  // eviction policy (whose recency clock died with the process) would
  // diverge from the pre-crash store.
  for (const Nogood& ng : cp.learned) store_.add(ng);
  for (const recovery::JournalRecord& rec : wal_.records()) {
    switch (rec.type) {
      case recovery::RecordType::kValue:
        value_ = static_cast<Value>(rec.a);
        have_value = true;
        break;
      case recovery::RecordType::kPriority:
        priority_ = static_cast<Priority>(rec.a);
        break;
      case recovery::RecordType::kNogood:
        store_.add(rec.nogood);
        break;
      case recovery::RecordType::kEvict:
        store_.remove(rec.nogood);
        break;
      case recovery::RecordType::kLink:
        if (link_set_.insert(static_cast<AgentId>(rec.a)).second) {
          links_.push_back(static_cast<AgentId>(rec.a));
        }
        break;
      case recovery::RecordType::kSeqReserve:
        break;  // folded into wal_.seq_limit() below
      case recovery::RecordType::kWeight:
        break;  // DB-only record; meaningless for AWC
      case recovery::RecordType::kInsoluble:
        insoluble_ = true;
        break;
    }
  }
  store_.set_capacity(config_.nogood_capacity);
  if (!have_value) {
    // Crashed before the first kValue record could be written: any domain
    // value is as good as another.
    value_ = static_cast<Value>(rng_.index(static_cast<std::size_t>(domain_size_)));
  }
  store_.set_own_value(value_);
  // Resume sequencing past every number any pre-crash incarnation may have
  // stamped (the counter itself died with the process); skipping the unused
  // tail of the reserved block is absorbed by the receivers' >= guards.
  ok_seq_ = wal_.seq_limit();
  wal_.note_replay();

  dirty_ = true;
  broadcast_ok(out);
  for (AgentId neighbor : links_) {
    out.send(neighbor, sim::AddLinkMessage{.sender = id_, .var = kNoVar});
  }
}

sim::Agent::RecoveryStats AwcAgent::recovery_stats() const {
  return {wal_.appends(), wal_.checkpoints(), wal_.replays(),
          store_.evictions(), store_.peak_learned()};
}

void AwcAgent::on_heartbeat(sim::MessageSink& out) {
  if (insoluble_) return;
  // Anti-entropy: every message the protocol depends on is re-sent in an
  // idempotent form, so any single loss is eventually repaired.
  //  - the current ok? state, for neighbors whose copy was dropped;
  broadcast_ok(out);
  //  - add_link requests for variables stored nogoods mention but the view
  //    still lacks (a lost add_link or its ok? reply would otherwise leave
  //    those nogoods unevaluable forever);
  std::vector<VarId> missing;
  for (std::size_t idx = 0; idx < store_.size(); ++idx) {
    for (const VarId var : store_.lit_vars(idx)) {
      if (!view_known(var)) missing.push_back(var);
    }
  }
  for (VarId v : pending_value_requests_) {
    if (!view_known(v)) missing.push_back(v);
  }
  std::sort(missing.begin(), missing.end());
  missing.erase(std::unique(missing.begin(), missing.end()), missing.end());
  for (VarId v : missing) {
    const AgentId owner = (*owner_of_var_)[static_cast<std::size_t>(v)];
    out.send(owner, sim::AddLinkMessage{.sender = id_, .var = v});
  }
  //  - the last learned nogood: if its message was dropped, the completeness
  //    guard keeps this agent silent at the deadend while the addressee
  //    never learns why — the classic lost-update deadlock.
  if (last_generated_.has_value()) {
    for (const Assignment& a : *last_generated_) {
      const AgentId owner = (*owner_of_var_)[static_cast<std::size_t>(a.var)];
      out.send(owner, sim::NogoodMessage{.sender = id_, .nogood = *last_generated_});
    }
  }
}

std::uint64_t AwcAgent::take_checks() {
  const std::uint64_t c = checks_;
  checks_ = 0;
  return c;
}

}  // namespace discsp::awc
