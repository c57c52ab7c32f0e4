// NogoodStore: the per-agent nogood database used by AWC and ABT.
//
// Every stored nogood contains the owning agent's variable, so the store
// buckets nogoods by the value they bind that variable to. A deadend test
// ("is value d ruled out?") then only scans bucket(d), which is exactly the
// set of nogoods that *can* be violated while x_own = d. Duplicates are
// rejected through a DedupTable keyed by the precomputed nogood hashes.
//
// Incremental consistency engine (Chaff-style counting adapted to nogoods):
// the store mirrors the agent's view of the *other* variables (`set_view`)
// and keeps, per nogood, a counter of how many of its non-own literals do
// *not* match that view. A nogood binding own = d is violated under the view
// with x_own = d exactly when that counter is zero (one load per touched
// occurrence, no separate literal count to compare against), so a view update
// for variable v only touches the nogoods mentioning v (var -> occurrence
// index), and "how many nogoods rule out d" (`violated_count`) is an O(1)
// read instead of a bucket scan. The counters stay correct across add,
// remove, eviction, journal replay and amnesia recovery because every
// structural mutation goes through add()/remove_at().
//
// Non-own literals live in a contiguous structure-of-arrays arena
// (`lit_vars`/`lit_values` spans), so the walks that remain — counter
// initialization on add, occurrence repointing on remove — are cache-linear
// instead of chasing per-nogood allocations.
//
// Graceful degradation: `set_capacity` bounds the number of resident
// *learned* nogoods (initial problem constraints are never counted and
// never evicted — dropping them would break soundness). When a bounded add
// would exceed the capacity, the least-recently-violated learned nogood is
// evicted — but never a unit (size <= 1) nogood, whose pruning is
// unconditional, and never a currently-violated one (per the mirrored view
// and `set_own_value`), whose loss could re-admit the conflict the agent is
// standing on. If nothing is evictable the incoming nogood is rejected
// instead, so the bound always holds. Evicting a *learned* nogood only ever
// discards implied knowledge: soundness and termination detection survive,
// completeness does not.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "csp/dedup_table.h"
#include "csp/nogood.h"

namespace discsp {

class NogoodStore {
 public:
  /// `own` is the variable every stored nogood must mention;
  /// `domain_size` fixes the bucket count.
  NogoodStore(VarId own, int domain_size);

  /// Insert a nogood. Returns false (and stores nothing) when an equal
  /// nogood is already present, or when the store is at capacity and no
  /// learned nogood may be safely evicted (the match counters identify the
  /// currently-violated ones — no caller-supplied predicate needed).
  /// Precondition: ng.contains(own()).
  bool add(Nogood ng);

  /// True iff an equal nogood is already stored.
  bool contains(const Nogood& ng) const;

  /// Remove a nogood by content (journal-replay support). Returns false when
  /// absent. The removal is counted as neither an add nor an eviction.
  bool remove(const Nogood& ng);

  VarId own() const { return own_; }
  int domain_size() const { return static_cast<int>(buckets_.size()); }
  std::size_t size() const { return nogoods_.size(); }
  const Nogood& at(std::size_t idx) const { return nogoods_[idx]; }

  /// Indices of the nogoods binding own() to `v`, in insertion order.
  const std::vector<std::uint32_t>& bucket(Value v) const {
    return buckets_[static_cast<std::size_t>(v)];
  }

  // --- literal arena (SoA; the non-own literals of nogood `idx`) ---
  std::span<const VarId> lit_vars(std::size_t idx) const {
    return {arena_vars_.data() + lits_[idx].offset, lits_[idx].len};
  }
  std::span<const Value> lit_values(std::size_t idx) const {
    return {arena_vals_.data() + lits_[idx].offset, lits_[idx].len};
  }
  /// The value nogood `idx` binds the own variable to.
  Value own_binding(std::size_t idx) const { return own_binding_[idx]; }

  // --- mirrored agent view (drives the match counters) ---

  /// Record the view's value for `var` (kNoValue = unknown). Touches only
  /// the nogoods mentioning `var`. `var` must not be own().
  void set_view(VarId var, Value value);
  /// The mirrored view value for `var` (kNoValue when unknown).
  Value view_value(VarId var) const {
    const auto v = static_cast<std::size_t>(var);
    return v < view_.size() ? view_[v] : kNoValue;
  }
  /// The whole mirrored view, indexed by variable id (kNoValue = unknown).
  std::span<const Value> view_values() const { return view_; }
  /// Forget every non-own view binding (crash recovery). Does not touch the
  /// own value — that is managed exclusively through set_own_value().
  void clear_view();
  /// Record the agent's current own value (kNoValue = none); only consulted
  /// by currently_violated() and the eviction guard.
  void set_own_value(Value v) { own_value_ = v; }
  Value own_value() const { return own_value_; }

  // --- counter-based violation queries ---

  /// Number of stored nogoods violated under the mirrored view with
  /// x_own = d. O(1).
  std::size_t violated_count(Value d) const {
    return violated_[static_cast<std::size_t>(d)].size();
  }
  /// Append the indices of the nogoods violated under the view with
  /// x_own = d, in ascending index order (== the order a flat scan finds
  /// them in — resolvent source selection depends on it).
  void violated_with_own(Value d, std::vector<std::uint32_t>& out) const;
  /// True iff all non-own literals of nogood `idx` match the mirrored view.
  bool matched_except_own(std::size_t idx) const {
    return vpos_[idx] != kNoPos;
  }
  /// True iff nogood `idx` is violated under the mirrored view with the
  /// own variable at set_own_value() (false when no own value is set).
  bool currently_violated(std::size_t idx) const {
    return own_value_ != kNoValue && own_binding_[idx] == own_value_ &&
           matched_except_own(idx);
  }

  /// Mark everything currently stored as "initial" (problem constraints, as
  /// opposed to learned nogoods). Initial nogoods are exempt from the
  /// capacity bound and can never be evicted.
  void mark_initial();
  std::size_t initial_count() const { return initial_count_; }
  std::size_t learned_count() const { return nogoods_.size() - initial_count_; }
  /// True iff `idx` holds an initial (problem-constraint) nogood.
  bool is_initial(std::size_t idx) const { return meta_[idx].initial; }

  /// Bound the resident learned-nogood count (0 = unbounded, the default).
  void set_capacity(std::size_t learned_capacity) { capacity_ = learned_capacity; }
  std::size_t capacity() const { return capacity_; }

  /// Record that the nogood at `idx` was observed violated — the recency
  /// signal the LRU eviction ranks by.
  void note_violation(std::size_t idx) { meta_[idx].last_violated = ++clock_; }

  /// The nogood removed by the most recent add() (cleared on every add).
  const std::optional<Nogood>& last_eviction() const { return last_eviction_; }

  /// Lifetime eviction count and the resident learned-count high watermark.
  std::uint64_t evictions() const { return evictions_; }
  std::size_t peak_learned() const { return peak_learned_; }

  /// Largest stored nogood (0 when empty) — used by nogood-explosion metrics.
  std::size_t max_nogood_size() const { return max_size_; }

  // --- work metering (not the paper's check metric) ---
  //
  // One "work op" per literal/occurrence actually touched by the incremental
  // machinery; agents running the flat-scan consistency path report their
  // per-nogood evaluations through add_scan_work() so the two paths are
  // directly comparable (the "constraint-check operations" of BENCH_core).
  std::uint64_t work_ops() const { return work_ops_; }
  void add_scan_work(std::uint64_t n) { work_ops_ += n; }

 private:
  struct Meta {
    bool initial = false;
    std::uint64_t last_violated = 0;
  };
  /// Slice of the literal arena holding one nogood's non-own literals.
  struct Lits {
    std::uint32_t offset = 0;
    std::uint32_t len = 0;
  };
  /// One occurrence of a variable in a stored nogood.
  struct Occ {
    std::uint32_t ng = 0;  ///< nogood index
    Value bound = kNoValue;  ///< the value the literal binds the variable to
  };
  static constexpr std::uint32_t kNoPos = 0xffffffffu;

  void insert_unchecked(Nogood ng, Meta meta);
  /// Index of the stored nogood equal to `ng`, or DedupTable::kAbsent.
  std::uint32_t find(const Nogood& ng) const;
  /// Content hash of stored nogood `idx` (the DedupTable's hash_of).
  std::size_t hash_at(std::uint32_t idx) const { return nogoods_[idx].hash(); }
  /// Remove index `idx` via swap-with-last, fixing buckets, dedup, the
  /// occurrence index, the violated lists, and the literal arena.
  void remove_at(std::size_t idx);
  /// Index of the eviction victim, or nullopt when nothing is evictable.
  std::optional<std::size_t> pick_victim() const;
  /// Grow the view/occurrence tables to cover `var`.
  void ensure_var(VarId var);
  void enter_violated(std::uint32_t idx);
  void leave_violated(std::uint32_t idx);
  /// Rebuild the arena without the holes left by removals.
  void compact_arena();

  VarId own_;
  Value own_value_ = kNoValue;
  std::vector<Nogood> nogoods_;
  std::vector<Meta> meta_;
  std::vector<std::vector<std::uint32_t>> buckets_;
  DedupTable dedup_;
  std::size_t initial_count_ = 0;
  std::size_t max_size_ = 0;

  // Incremental engine state (see the header comment).
  std::vector<Value> view_;                 // var -> mirrored value
  std::vector<std::vector<Occ>> occ_;       // var -> occurrences
  std::vector<VarId> arena_vars_;           // SoA literal arena...
  std::vector<Value> arena_vals_;           // ...(non-own literals only)
  std::size_t arena_live_ = 0;              // arena entries still referenced
  std::vector<Lits> lits_;                  // nogood -> arena slice
  std::vector<std::uint32_t> unmatched_;    // nogood -> non-own literals not matching
  std::vector<Value> own_binding_;          // nogood -> own-variable value
  std::vector<std::vector<std::uint32_t>> violated_;  // own value -> violated nogoods
  std::vector<std::uint32_t> vpos_;         // nogood -> position in its violated list

  std::size_t capacity_ = 0;  // learned-nogood bound; 0 = unbounded
  std::uint64_t clock_ = 0;   // violation-recency clock
  std::optional<Nogood> last_eviction_;
  std::uint64_t evictions_ = 0;
  std::size_t peak_learned_ = 0;
  // Mutable: read-only queries (violated_with_own) still meter the work
  // they do, so scan/incremental comparisons stay honest.
  mutable std::uint64_t work_ops_ = 0;
};

}  // namespace discsp
