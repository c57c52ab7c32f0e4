// Nogood: a forbidden partial assignment, the constraint representation used
// throughout the paper. Constraints, learned resolvents, and SAT clauses all
// become nogoods; AWC/ABT/DB only ever reason about nogoods.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <initializer_list>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "csp/assignment.h"

namespace discsp {

/// Value `var` is bound to in canonical (var-sorted) `items`, or kNoValue.
Value value_in(std::span<const Assignment> items, VarId var);

/// A read-only view of one canonical nogood held elsewhere: a Problem's
/// literal arena or a Nogood. It answers the same queries as Nogood without
/// owning anything; build a Nogood from it where an owner is needed.
class NogoodView {
 public:
  NogoodView() = default;
  /// Precondition: `items` is canonical (sorted by variable, one per variable).
  explicit NogoodView(std::span<const Assignment> items) : items_(items) {}

  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  std::span<const Assignment> items() const { return items_; }
  auto begin() const { return items_.begin(); }
  auto end() const { return items_.end(); }

  bool contains(VarId var) const { return value_of(var) != kNoValue; }
  Value value_of(VarId var) const { return value_in(items_, var); }

  /// Same contract as Nogood::violated_by.
  template <typename Lookup>
  bool violated_by(Lookup&& lookup) const {
    for (const Assignment& a : items_) {
      if (lookup(a.var) != a.value) return false;
    }
    return true;
  }

  friend bool operator==(NogoodView a, NogoodView b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend std::ostream& operator<<(std::ostream& os, NogoodView ng);

 private:
  std::span<const Assignment> items_;
};

/// An immutable, canonicalized set of (var, value) pairs.
///
/// Invariants (established at construction):
///  - assignments sorted by variable id,
///  - no duplicate variables (constructing with two different values for the
///    same variable is a precondition violation — such a "nogood" would be
///    trivially satisfied and must be filtered by the caller),
///  - hash precomputed for O(1) store lookups.
///
/// The empty nogood is the contradiction: it is violated by every view, so
/// deriving it proves the problem insoluble.
class Nogood {
 public:
  Nogood() { rehash(); }
  explicit Nogood(std::vector<Assignment> assignments);
  Nogood(std::initializer_list<Assignment> assignments);
  /// An owning copy of a viewed nogood.
  explicit Nogood(NogoodView view);

  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  std::span<const Assignment> items() const { return items_; }
  auto begin() const { return items_.begin(); }
  auto end() const { return items_.end(); }
  NogoodView view() const { return NogoodView(items_); }
  /// Implicit: a Nogood reads wherever a view does, e.g. in comparisons.
  operator NogoodView() const { return view(); }  // NOLINT(google-explicit-constructor)

  /// True iff `var` occurs in this nogood.
  bool contains(VarId var) const { return value_of(var) != kNoValue; }
  /// The value this nogood binds `var` to, or kNoValue if absent.
  Value value_of(VarId var) const { return value_in(items_, var); }

  /// Violation test against a view. `lookup(var)` must return the view's
  /// current value for `var`, or kNoValue when unknown. A nogood is violated
  /// iff every member assignment matches the view exactly; any unknown or
  /// differing variable means "not violated".
  template <typename Lookup>
  bool violated_by(Lookup&& lookup) const {
    for (const Assignment& a : items_) {
      if (lookup(a.var) != a.value) return false;
    }
    return true;
  }

  /// A copy with every assignment of `var` removed (resolvent construction).
  Nogood without(VarId var) const;

  /// True iff every assignment of this nogood is also in `other`.
  bool subset_of(const Nogood& other) const;

  std::size_t hash() const { return hash_; }
  friend bool operator==(const Nogood& a, const Nogood& b) {
    return a.hash_ == b.hash_ && a.items_ == b.items_;
  }
  friend bool operator!=(const Nogood& a, const Nogood& b) { return !(a == b); }

  /// Debug rendering: ((x1,0)(x4,2)).
  std::string str() const;
  friend std::ostream& operator<<(std::ostream& os, const Nogood& ng);

 private:
  void rehash();

  std::vector<Assignment> items_;
  std::size_t hash_ = 0;
};

/// Union of two nogoods. Precondition: they agree on shared variables
/// (resolvent construction guarantees this because all sources are violated
/// under one common view).
Nogood merge(const Nogood& a, const Nogood& b);

/// Union of many nogoods minus one variable — the resolvent-learning kernel.
Nogood merge_without(std::span<const Nogood* const> sources, VarId drop);

}  // namespace discsp

template <>
struct std::hash<discsp::Nogood> {
  std::size_t operator()(const discsp::Nogood& ng) const noexcept { return ng.hash(); }
};
