// CNF model: Boolean formulas in conjunctive normal form.
//
// The paper's distributed 3SAT problems are CNF instances where each Boolean
// variable (plus its relevant clauses) becomes one agent. A clause maps to
// exactly one nogood — the assignment falsifying all its literals — so the
// distributed algorithms never special-case SAT.
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"
#include "csp/arena_list.h"
#include "csp/dedup_table.h"

namespace discsp::sat {

/// A literal: variable index with polarity. Encoded as 2*var (positive) or
/// 2*var+1 (negated), the usual solver encoding.
class Lit {
 public:
  Lit() = default;
  Lit(VarId var, bool positive) : code_(static_cast<std::uint32_t>(var) * 2 + (positive ? 0 : 1)) {}

  VarId var() const { return static_cast<VarId>(code_ / 2); }
  bool positive() const { return (code_ & 1) == 0; }
  Lit negated() const {
    Lit l;
    l.code_ = code_ ^ 1;
    return l;
  }
  std::uint32_t code() const { return code_; }

  /// True iff this literal is satisfied when its variable takes `v` (0/1).
  bool satisfied_by(Value v) const { return (v == 1) == positive(); }
  /// The variable value that falsifies this literal (1 for a negative
  /// literal, 0 for a positive one) — the value a clause-nogood records.
  Value falsifying_value() const { return positive() ? 0 : 1; }

  friend auto operator<=>(const Lit&, const Lit&) = default;
  friend std::ostream& operator<<(std::ostream& os, Lit l);

 private:
  std::uint32_t code_ = 0;
};

/// True iff some literal of `lits` is satisfied by the complete 0/1
/// `assignment` (false for no literals: the empty clause).
bool satisfied_by(std::span<const Lit> lits, const std::vector<Value>& assignment);

/// A read-only view of one canonical clause (sorted, deduplicated literals)
/// held elsewhere: a Cnf's literal arena or a Clause.
class ClauseView {
 public:
  ClauseView() = default;
  /// Precondition: `lits` is canonical.
  explicit ClauseView(std::span<const Lit> lits) : lits_(lits) {}

  std::span<const Lit> lits() const { return lits_; }
  std::size_t size() const { return lits_.size(); }
  bool empty() const { return lits_.empty(); }
  auto begin() const { return lits_.begin(); }
  auto end() const { return lits_.end(); }

  /// True for x ∨ ¬x ∨ ...; callers normally filter such clauses.
  bool is_tautology() const;
  bool contains(Lit l) const;
  /// Satisfied under a complete assignment (values 0/1 per variable)?
  bool satisfied_by(const std::vector<Value>& assignment) const {
    return sat::satisfied_by(lits_, assignment);
  }

  friend bool operator==(ClauseView a, ClauseView b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend std::ostream& operator<<(std::ostream& os, ClauseView c);

 private:
  std::span<const Lit> lits_;
};

/// An owned clause, canonicalized (sorted, deduplicated) at construction.
/// Tautological clauses are representable; is_tautology() reports them.
class Clause {
 public:
  Clause() = default;
  explicit Clause(std::vector<Lit> lits);
  Clause(std::initializer_list<Lit> lits) : Clause(std::vector<Lit>(lits)) {}

  ClauseView view() const { return ClauseView(lits_); }
  /// Implicit: a Clause reads wherever a view does.
  operator ClauseView() const { return view(); }  // NOLINT(google-explicit-constructor)

  std::span<const Lit> lits() const { return lits_; }
  std::size_t size() const { return lits_.size(); }
  bool empty() const { return lits_.empty(); }
  auto begin() const { return lits_.begin(); }
  auto end() const { return lits_.end(); }

  bool is_tautology() const { return view().is_tautology(); }
  bool contains(Lit l) const { return view().contains(l); }
  bool satisfied_by(const std::vector<Value>& assignment) const {
    return sat::satisfied_by(lits_, assignment);
  }

  friend auto operator<=>(const Clause&, const Clause&) = default;
  friend std::ostream& operator<<(std::ostream& os, const Clause& c) { return os << c.view(); }

 private:
  std::vector<Lit> lits_;
};

/// The clauses of a Cnf, in insertion order, as views into its literal
/// arena. Cheap to copy; invalidated by the next add_clause.
using ClauseList = ArenaList<ClauseView, Lit>;

/// A CNF formula over variables 0..num_vars-1.
///
/// Storage is flat, as in Problem: every clause's canonical literals sit
/// back to back in one arena, clause i spanning [offsets_[i], offsets_[i+1]),
/// and a DedupTable keyed by content hash keeps duplicates out.
class Cnf {
 public:
  Cnf() = default;
  explicit Cnf(int num_vars) : num_vars_(num_vars) {}

  int num_vars() const { return num_vars_; }
  void set_num_vars(int n);

  /// Append a clause given as literals in any order (canonicalized here).
  /// Returns false for a duplicate, which is kept out; throws
  /// std::out_of_range for a literal over an unknown variable.
  bool add_clause(std::span<const Lit> lits);
  bool add_clause(std::initializer_list<Lit> lits) {
    return add_clause(std::span<const Lit>(lits.begin(), lits.size()));
  }
  bool add_clause(const Clause& c) { return add_clause(c.lits()); }

  /// Make room for `clauses` more clauses of `literals` literals in all.
  /// Called before the first add_clause, adding them then grows no table;
  /// later it reserves the arena only.
  void reserve(std::size_t clauses, std::size_t literals);

  ClauseList clauses() const { return ClauseList(lits_, offsets_); }
  ClauseView clause(std::size_t i) const { return clauses()[i]; }
  std::size_t num_clauses() const { return clauses().size(); }
  /// Literals over all clauses.
  std::size_t num_literals() const { return lits_.size(); }

  /// True iff a clause equal to the canonical `c` is present.
  bool contains(ClauseView c) const;

  /// Evaluate a complete 0/1 assignment.
  bool satisfied_by(const std::vector<Value>& assignment) const;
  /// Number of clauses falsified by a complete assignment.
  std::size_t unsatisfied_count(const std::vector<Value>& assignment) const;

 private:
  static std::size_t hash_of(std::span<const Lit> lits);

  int num_vars_ = 0;
  std::vector<Lit> lits_;                  // every clause's literals, in order
  std::vector<std::uint32_t> offsets_{0};  // clause i = [offsets_[i], offsets_[i+1])
  DedupTable dedup_;
};

}  // namespace discsp::sat
