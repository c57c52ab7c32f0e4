// Problem: a (centralized) CSP over finite contiguous domains with
// extensional nogood constraints. DistributedProblem layers agent ownership
// on top of this.
//
// Storage is flat: every constraint's canonical literals sit back to back in
// one arena, nogood i spanning [offsets_[i], offsets_[i+1]). Readers get
// NogoodViews into it; nothing here owns a per-nogood allocation. The
// dedup index is a DedupTable of nogood indices keyed by content hash, and
// the per-variable occurrence lists hold 32-bit indices.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "csp/arena_list.h"
#include "csp/dedup_table.h"
#include "csp/nogood.h"

namespace discsp {

/// A complete assignment of the problem's variables, indexed by VarId.
using FullAssignment = std::vector<Value>;

/// The constraints of a Problem, in insertion order, as views into its
/// literal arena. Cheap to copy; invalidated by the next add_nogood.
using NogoodList = ArenaList<NogoodView, Assignment>;

class Problem {
 public:
  Problem() = default;

  /// Add a variable with domain {0, ..., domain_size-1}; returns its id.
  VarId add_variable(int domain_size, std::string name = {});
  /// Convenience: add `count` variables with a shared domain size.
  void add_variables(int count, int domain_size);

  /// Add a constraint nogood given as literals in any order (they are
  /// canonicalized here). All referenced variables must exist and the bound
  /// values must lie in their domains (std::out_of_range otherwise), and no
  /// variable may be bound to two values (std::invalid_argument: such a
  /// nogood could never be violated). Duplicate nogoods are kept out:
  /// adding one whose content is already present is a no-op returning false.
  bool add_nogood(std::span<const Assignment> literals);
  bool add_nogood(std::initializer_list<Assignment> literals) {
    return add_nogood(std::span<const Assignment>(literals.begin(), literals.size()));
  }
  bool add_nogood(const Nogood& ng) { return add_nogood(ng.items()); }

  /// Make room for `nogoods` more constraints of `literals` literals in
  /// all. Called before the first add_nogood, adding them then grows no
  /// table; later it reserves the arena only.
  void reserve(std::size_t nogoods, std::size_t literals);

  /// Release the spare capacity incremental construction leaves behind.
  void shrink_to_fit();

  int num_variables() const { return static_cast<int>(domain_sizes_.size()); }
  int domain_size(VarId v) const { return domain_sizes_.at(static_cast<std::size_t>(v)); }
  const std::string& name(VarId v) const { return names_.at(static_cast<std::size_t>(v)); }

  NogoodList nogoods() const { return NogoodList(literals_, offsets_); }
  NogoodView nogood(std::size_t i) const { return nogoods()[i]; }
  std::size_t num_nogoods() const { return nogoods().size(); }

  /// True when the problem contains the empty nogood — an explicit
  /// contradiction making it trivially insoluble.
  bool has_empty_nogood() const { return has_empty_nogood_; }

  /// Indices (into nogoods()) of the constraints mentioning `v`, ascending.
  std::span<const std::uint32_t> nogoods_of(VarId v) const {
    return per_var_nogoods_.at(static_cast<std::size_t>(v));
  }

  /// Variables sharing at least one nogood with `v` (sorted, no duplicates,
  /// excludes v itself).
  std::vector<VarId> neighbors_of(VarId v) const;

  /// True iff `a` assigns every variable a domain value and violates nothing.
  bool is_solution(const FullAssignment& a) const;
  /// Number of violated nogoods under a complete assignment.
  std::size_t violated_count(const FullAssignment& a) const;

 private:
  std::vector<int> domain_sizes_;
  std::vector<std::string> names_;
  std::vector<Assignment> literals_;        // every nogood's literals, in order
  std::vector<std::uint32_t> offsets_{0};   // nogood i = [offsets_[i], offsets_[i+1])
  std::vector<std::vector<std::uint32_t>> per_var_nogoods_;
  DedupTable dedup_;
  bool has_empty_nogood_ = false;
};

}  // namespace discsp
