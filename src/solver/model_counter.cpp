#include "solver/model_counter.h"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace discsp::sat {

ModelCounter::ModelCounter(const Cnf& cnf) : cnf_(cnf) {
  const auto n = static_cast<std::size_t>(cnf.num_vars());
  occurrences_.resize(2 * n);
  for (std::uint32_t ci = 0; ci < cnf.num_clauses(); ++ci) {
    const ClauseView c = cnf.clause(ci);
    if (c.empty()) contradictory_ = true;
    for (Lit l : c) occurrences_[l.code()].push_back(ci);
  }
  static_order_.resize(n);
  std::iota(static_order_.begin(), static_order_.end(), 0);
  std::stable_sort(static_order_.begin(), static_order_.end(), [&](VarId a, VarId b) {
    const auto occ = [&](VarId v) {
      return occurrences_[Lit(v, true).code()].size() + occurrences_[Lit(v, false).code()].size();
    };
    return occ(a) > occ(b);
  });
}

bool ModelCounter::assign(VarId var, Value v) {
  assert(values_[static_cast<std::size_t>(var)] == kNoValue);
  values_[static_cast<std::size_t>(var)] = v;
  trail_.push_back(var);
  ++stats_.propagations;

  const Lit sat_lit(var, v == 1);
  for (std::uint32_t ci : occurrences_[sat_lit.code()]) {
    ClauseState& st = clause_state_[ci];
    if (st.n_sat == 0) --num_open_clauses_;
    ++st.n_sat;
    --st.n_unassigned;
  }
  bool conflict = false;
  for (std::uint32_t ci : occurrences_[sat_lit.negated().code()]) {
    ClauseState& st = clause_state_[ci];
    --st.n_unassigned;
    if (st.n_sat == 0) {
      if (st.n_unassigned == 0) conflict = true;
      else if (st.n_unassigned == 1) unit_queue_.push_back(ci);
    }
  }
  return !conflict;
}

void ModelCounter::unassign_to(std::size_t mark) {
  while (trail_.size() > mark) {
    const VarId var = trail_.back();
    trail_.pop_back();
    const Value v = values_[static_cast<std::size_t>(var)];
    values_[static_cast<std::size_t>(var)] = kNoValue;

    const Lit sat_lit(var, v == 1);
    for (std::uint32_t ci : occurrences_[sat_lit.code()]) {
      ClauseState& st = clause_state_[ci];
      --st.n_sat;
      ++st.n_unassigned;
      if (st.n_sat == 0) ++num_open_clauses_;
    }
    for (std::uint32_t ci : occurrences_[sat_lit.negated().code()]) {
      ++clause_state_[ci].n_unassigned;
    }
  }
}

bool ModelCounter::propagate() {
  while (!unit_queue_.empty()) {
    const std::uint32_t ci = unit_queue_.back();
    unit_queue_.pop_back();
    const ClauseState& st = clause_state_[ci];
    if (st.n_sat > 0) continue;            // satisfied meanwhile
    if (st.n_unassigned == 0) {            // falsified meanwhile
      unit_queue_.clear();
      return false;
    }
    // Find the single unassigned literal and satisfy it.
    const ClauseView c = cnf_.clause(ci);
    Lit unit{};
    bool found = false;
    for (Lit l : c) {
      if (values_[static_cast<std::size_t>(l.var())] == kNoValue) {
        unit = l;
        found = true;
        break;
      }
    }
    assert(found);
    (void)found;
    if (!assign(unit.var(), unit.positive() ? 1 : 0)) {
      unit_queue_.clear();
      return false;
    }
  }
  return true;
}

VarId ModelCounter::pick_branch_var() const {
  // MOMS (maximum occurrences in minimum-size clauses): literals in open
  // binary clauses weigh much more than in longer ones, and the chosen
  // variable maximizes the product-ish combination of both polarities —
  // branching on it either satisfies or shortens many clauses at once.
  score_pos_.assign(score_pos_.size(), 0);
  score_neg_.assign(score_neg_.size(), 0);
  bool any_open = false;
  for (std::uint32_t ci = 0; ci < cnf_.num_clauses(); ++ci) {
    const ClauseState& st = clause_state_[ci];
    if (st.n_sat > 0) continue;
    any_open = true;
    const std::uint32_t weight = st.n_unassigned <= 2 ? 8 : 1;
    for (Lit l : cnf_.clause(ci)) {
      const auto v = static_cast<std::size_t>(l.var());
      if (values_[v] != kNoValue) continue;
      if (l.positive()) {
        score_pos_[v] += weight;
      } else {
        score_neg_[v] += weight;
      }
    }
  }
  if (!any_open) return kNoVar;

  VarId best = kNoVar;
  std::uint64_t best_score = 0;
  for (VarId v : static_order_) {
    const auto i = static_cast<std::size_t>(v);
    if (values_[i] != kNoValue) continue;
    const std::uint64_t p = score_pos_[i];
    const std::uint64_t q = score_neg_[i];
    const std::uint64_t score = p * q * 1024 + p + q;
    if (best == kNoVar || score > best_score) {
      best = v;
      best_score = score;
    }
  }
  if (best != kNoVar) {
    const auto i = static_cast<std::size_t>(best);
    preferred_polarity_ = score_pos_[i] >= score_neg_[i] ? 1 : 0;
  }
  return best;
}

void ModelCounter::emit_models(std::uint64_t limit, std::uint64_t& found,
                               std::size_t max_models,
                               std::vector<std::vector<Value>>* models) {
  // All clauses satisfied: every completion of the free variables is a model.
  std::vector<VarId> free_vars;
  for (VarId v = 0; v < cnf_.num_vars(); ++v) {
    if (values_[static_cast<std::size_t>(v)] == kNoValue) free_vars.push_back(v);
  }
  const std::size_t f = free_vars.size();

  if (models == nullptr) {
    // Pure counting: add 2^f, saturating at the limit.
    const std::uint64_t block = f >= 63 ? ~0ULL : (1ULL << f);
    if (limit != 0) {
      found += std::min(block, limit - found);
    } else {
      found = found + block < found ? ~0ULL : found + block;  // saturate on overflow
    }
    return;
  }

  // Model collection: enumerate completions until enough models are found.
  const std::uint64_t want = std::min<std::uint64_t>(
      max_models - models->size(), f >= 63 ? ~0ULL : (1ULL << f));
  for (std::uint64_t bits = 0; bits < want; ++bits) {
    std::vector<Value> model = values_;
    for (std::size_t i = 0; i < f; ++i) {
      model[static_cast<std::size_t>(free_vars[i])] = static_cast<Value>((bits >> i) & 1);
    }
    models->push_back(std::move(model));
    ++found;
  }
}

bool ModelCounter::search(std::uint64_t limit, std::uint64_t& found,
                          std::size_t max_models,
                          std::vector<std::vector<Value>>* models) {
  if (num_open_clauses_ == 0) {
    emit_models(limit, found, max_models, models);
    if (models != nullptr) return models->size() >= max_models;
    return limit != 0 && found >= limit;
  }
  const VarId var = pick_branch_var();
  assert(var != kNoVar && "open clause with all variables assigned implies a missed conflict");

  for (Value v : {preferred_polarity_, Value{1 - preferred_polarity_}}) {
    if (decision_limit_ != 0 && decisions_this_run_ >= decision_limit_) {
      aborted_ = true;
      return true;  // unwind: stop the whole search
    }
    ++stats_.decisions;
    ++decisions_this_run_;
    const std::size_t mark = trail_.size();
    if (assign(var, v) && propagate()) {
      if (search(limit, found, max_models, models)) return true;
    } else {
      ++stats_.conflicts;
    }
    unit_queue_.clear();
    unassign_to(mark);
  }
  return false;
}

void ModelCounter::reset() {
  aborted_ = false;
  decisions_this_run_ = 0;
  values_.assign(static_cast<std::size_t>(cnf_.num_vars()), kNoValue);
  score_pos_.assign(static_cast<std::size_t>(cnf_.num_vars()), 0);
  score_neg_.assign(static_cast<std::size_t>(cnf_.num_vars()), 0);
  clause_state_.assign(cnf_.num_clauses(), ClauseState{});
  trail_.clear();
  unit_queue_.clear();
  num_open_clauses_ = cnf_.num_clauses();
  for (std::uint32_t ci = 0; ci < cnf_.num_clauses(); ++ci) {
    clause_state_[ci].n_unassigned = static_cast<int>(cnf_.clause(ci).size());
    if (clause_state_[ci].n_unassigned == 1) unit_queue_.push_back(ci);
  }
}

std::uint64_t ModelCounter::count(std::uint64_t limit) {
  if (contradictory_) return 0;
  reset();
  std::uint64_t found = 0;
  if (propagate()) {
    search(limit, found, 0, nullptr);
  }
  return found;
}

std::vector<std::vector<Value>> ModelCounter::find_models(std::size_t max_models) {
  std::vector<std::vector<Value>> models;
  if (contradictory_ || max_models == 0) return models;
  reset();
  std::uint64_t found = 0;
  if (propagate()) {
    search(0, found, max_models, &models);
  }
  return models;
}

bool is_satisfiable(const Cnf& cnf) { return ModelCounter(cnf).count(1) > 0; }

std::optional<std::vector<Value>> solve_cnf(const Cnf& cnf) {
  auto models = ModelCounter(cnf).find_models(1);
  if (models.empty()) return std::nullopt;
  return std::move(models.front());
}

std::uint64_t count_models(const Cnf& cnf, std::uint64_t limit) {
  return ModelCounter(cnf).count(limit);
}

}  // namespace discsp::sat
