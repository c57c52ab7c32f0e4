#include "csp/nogood_store.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

namespace discsp {

NogoodStore::NogoodStore(VarId own, int domain_size) : own_(own) {
  if (domain_size <= 0) throw std::invalid_argument("domain_size must be positive");
  buckets_.resize(static_cast<std::size_t>(domain_size));
  violated_.resize(static_cast<std::size_t>(domain_size));
}

void NogoodStore::mark_initial() {
  initial_count_ = nogoods_.size();
  for (Meta& m : meta_) m.initial = true;
  // The adds above were counted as learned while they happened; now that
  // they are reclassified, the learned high-watermark starts from zero.
  peak_learned_ = 0;
}

void NogoodStore::ensure_var(VarId var) {
  const auto v = static_cast<std::size_t>(var);
  if (v >= view_.size()) {
    view_.resize(v + 1, kNoValue);
    occ_.resize(v + 1);
  }
}

void NogoodStore::enter_violated(std::uint32_t idx) {
  auto& list = violated_[static_cast<std::size_t>(own_binding_[idx])];
  vpos_[idx] = static_cast<std::uint32_t>(list.size());
  list.push_back(idx);
}

void NogoodStore::leave_violated(std::uint32_t idx) {
  auto& list = violated_[static_cast<std::size_t>(own_binding_[idx])];
  const std::uint32_t pos = vpos_[idx];
  assert(pos != kNoPos && list[pos] == idx);
  list[pos] = list.back();
  vpos_[list[pos]] = pos;
  list.pop_back();
  vpos_[idx] = kNoPos;
}

void NogoodStore::set_view(VarId var, Value value) {
  assert(var != own_ && "the own variable is tracked via set_own_value");
  ensure_var(var);
  Value& slot = view_[static_cast<std::size_t>(var)];
  if (slot == value) return;
  const Value old = slot;
  slot = value;
  const auto& occs = occ_[static_cast<std::size_t>(var)];
  work_ops_ += occs.size();
  for (const Occ& o : occs) {
    const bool was = o.bound == old;
    const bool now = o.bound == value;
    if (was == now) continue;
    if (now) {
      if (--unmatched_[o.ng] == 0) enter_violated(o.ng);
    } else {
      if (unmatched_[o.ng]++ == 0) leave_violated(o.ng);
    }
  }
}

void NogoodStore::clear_view() {
  for (std::size_t v = 0; v < view_.size(); ++v) {
    if (view_[v] != kNoValue) set_view(static_cast<VarId>(v), kNoValue);
  }
}

void NogoodStore::violated_with_own(Value d, std::vector<std::uint32_t>& out) const {
  const auto& list = violated_[static_cast<std::size_t>(d)];
  work_ops_ += list.size();
  out.reserve(out.size() + list.size());  // hot read path: one growth, not several
  out.insert(out.end(), list.begin(), list.end());
  // The live list is swap-maintained; flat scans discover violations in
  // index order, and resolvent source selection / LRU stamping depend on it.
  std::sort(out.end() - static_cast<std::ptrdiff_t>(list.size()), out.end());
}

void NogoodStore::insert_unchecked(Nogood ng, Meta meta) {
  const Value v = ng.value_of(own_);
  const auto idx = static_cast<std::uint32_t>(nogoods_.size());
  dedup_.insert(ng.hash(), idx, [this](std::uint32_t i) { return hash_at(i); });
  buckets_[static_cast<std::size_t>(v)].push_back(idx);
  max_size_ = std::max(max_size_, ng.size());

  // Arena/counter bookkeeping: append the non-own literals to the arena,
  // index their occurrences, and count the ones not yet matching the view.
  Lits lits{static_cast<std::uint32_t>(arena_vars_.size()), 0};
  std::uint32_t unmatched = 0;
  for (const Assignment& a : ng) {
    if (a.var == own_) continue;
    ++work_ops_;
    ensure_var(a.var);
    arena_vars_.push_back(a.var);
    arena_vals_.push_back(a.value);
    occ_[static_cast<std::size_t>(a.var)].push_back(Occ{idx, a.value});
    if (view_[static_cast<std::size_t>(a.var)] != a.value) ++unmatched;
    ++lits.len;
  }
  arena_live_ += lits.len;
  lits_.push_back(lits);
  unmatched_.push_back(unmatched);
  own_binding_.push_back(v);
  vpos_.push_back(kNoPos);
  nogoods_.push_back(std::move(ng));
  meta_.push_back(meta);
  if (unmatched == 0) enter_violated(idx);
}

void NogoodStore::compact_arena() {
  // Rebuild the arena hole-free, preserving index order so slices stay
  // cache-linear along bucket walks.
  std::vector<VarId> vars;
  std::vector<Value> vals;
  vars.reserve(arena_live_);
  vals.reserve(arena_live_);
  for (std::size_t idx = 0; idx < lits_.size(); ++idx) {
    Lits& l = lits_[idx];
    const auto offset = static_cast<std::uint32_t>(vars.size());
    vars.insert(vars.end(), arena_vars_.begin() + l.offset,
                arena_vars_.begin() + l.offset + l.len);
    vals.insert(vals.end(), arena_vals_.begin() + l.offset,
                arena_vals_.begin() + l.offset + l.len);
    l.offset = offset;
  }
  arena_vars_ = std::move(vars);
  arena_vals_ = std::move(vals);
}

void NogoodStore::remove_at(std::size_t idx) {
  const Nogood& victim = nogoods_[idx];
  const auto idx32 = static_cast<std::uint32_t>(idx);
  if (vpos_[idx] != kNoPos) leave_violated(idx32);
  // Drop the victim's occurrence-index entries (swap-removal: occurrence
  // order within a variable's list carries no meaning).
  for (const VarId var : lit_vars(idx)) {
    ++work_ops_;
    auto& occs = occ_[static_cast<std::size_t>(var)];
    auto it = std::find_if(occs.begin(), occs.end(),
                           [&](const Occ& o) { return o.ng == idx32; });
    assert(it != occs.end());
    *it = occs.back();
    occs.pop_back();
  }
  arena_live_ -= lits_[idx].len;  // the arena slice becomes a hole
  // Drop the victim's bucket and dedup references.
  dedup_.erase(victim.hash(), idx32, [this](std::uint32_t i) { return hash_at(i); });
  auto& bucket = buckets_[static_cast<std::size_t>(victim.value_of(own_))];
  bucket.erase(std::find(bucket.begin(), bucket.end(), idx32));
  if (meta_[idx].initial) --initial_count_;

  const std::size_t last = nogoods_.size() - 1;
  if (idx != last) {
    // Move the last nogood into the hole and repoint its references.
    const auto last32 = static_cast<std::uint32_t>(last);
    const Nogood& moved = nogoods_[last];
    dedup_.repoint(moved.hash(), last32, idx32);
    auto& moved_bucket = buckets_[static_cast<std::size_t>(moved.value_of(own_))];
    *std::find(moved_bucket.begin(), moved_bucket.end(), last32) = idx32;
    for (const VarId var : lit_vars(last)) {
      ++work_ops_;
      auto& occs = occ_[static_cast<std::size_t>(var)];
      auto it = std::find_if(occs.begin(), occs.end(),
                             [&](const Occ& o) { return o.ng == last32; });
      assert(it != occs.end());
      it->ng = idx32;
    }
    if (vpos_[last] != kNoPos) {
      violated_[static_cast<std::size_t>(own_binding_[last])][vpos_[last]] = idx32;
    }
    nogoods_[idx] = std::move(nogoods_[last]);
    meta_[idx] = meta_[last];
    lits_[idx] = lits_[last];
    unmatched_[idx] = unmatched_[last];
    own_binding_[idx] = own_binding_[last];
    vpos_[idx] = vpos_[last];
  }
  nogoods_.pop_back();
  meta_.pop_back();
  lits_.pop_back();
  unmatched_.pop_back();
  own_binding_.pop_back();
  vpos_.pop_back();

  if (arena_vars_.size() > 2 * arena_live_ + 64) compact_arena();
}

std::optional<std::size_t> NogoodStore::pick_victim() const {
  // LRU over violation recency among the safely evictable learned nogoods:
  // never an initial constraint (soundness), never a unit nogood (its
  // pruning holds unconditionally), never a currently-violated one (the
  // agent's next move depends on it).
  std::optional<std::size_t> victim;
  std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
  for (std::size_t idx = 0; idx < nogoods_.size(); ++idx) {
    if (meta_[idx].initial) continue;
    if (nogoods_[idx].size() <= 1) continue;
    if (meta_[idx].last_violated >= oldest) continue;
    if (currently_violated(idx)) continue;
    victim = idx;
    oldest = meta_[idx].last_violated;
  }
  return victim;
}

bool NogoodStore::add(Nogood ng) {
  last_eviction_.reset();
  const Value v = ng.value_of(own_);
  assert(v != kNoValue && "stored nogoods must mention the owning variable");
  if (v < 0 || v >= domain_size()) {
    throw std::out_of_range("nogood binds own variable to out-of-domain value");
  }
  if (find(ng) != DedupTable::kAbsent) return false;
  if (capacity_ != 0 && learned_count() >= capacity_) {
    const auto victim = pick_victim();
    if (!victim.has_value()) return false;  // bound holds; knowledge is dropped
    last_eviction_ = nogoods_[*victim];
    remove_at(*victim);
    ++evictions_;
  }
  // A fresh nogood counts as "just violated": it was learned because it is
  // relevant right now, so it must not be the next eviction victim.
  insert_unchecked(std::move(ng), Meta{false, ++clock_});
  peak_learned_ = std::max(peak_learned_, learned_count());
  return true;
}

std::uint32_t NogoodStore::find(const Nogood& ng) const {
  return dedup_.find(ng.hash(), [&](std::uint32_t idx) { return nogoods_[idx] == ng; });
}

bool NogoodStore::contains(const Nogood& ng) const { return find(ng) != DedupTable::kAbsent; }

bool NogoodStore::remove(const Nogood& ng) {
  const std::uint32_t idx = find(ng);
  if (idx == DedupTable::kAbsent) return false;
  remove_at(idx);
  return true;
}

}  // namespace discsp
