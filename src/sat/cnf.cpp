#include "sat/cnf.h"

#include <algorithm>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "common/hash.h"

namespace discsp::sat {

std::ostream& operator<<(std::ostream& os, Lit l) {
  if (!l.positive()) os << '-';
  return os << (l.var() + 1);  // DIMACS-style 1-based rendering
}

bool satisfied_by(std::span<const Lit> lits, const std::vector<Value>& assignment) {
  for (Lit l : lits) {
    if (l.satisfied_by(assignment[static_cast<std::size_t>(l.var())])) return true;
  }
  return false;
}

bool ClauseView::is_tautology() const {
  for (std::size_t i = 1; i < lits_.size(); ++i) {
    if (lits_[i - 1].var() == lits_[i].var()) return true;  // adjacent after sort
  }
  return false;
}

bool ClauseView::contains(Lit l) const {
  return std::binary_search(lits_.begin(), lits_.end(), l);
}

std::ostream& operator<<(std::ostream& os, ClauseView c) {
  os << '(';
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (i > 0) os << ' ';
    os << c.lits()[i];
  }
  return os << ')';
}

Clause::Clause(std::vector<Lit> lits) : lits_(std::move(lits)) {
  std::sort(lits_.begin(), lits_.end());
  lits_.erase(std::unique(lits_.begin(), lits_.end()), lits_.end());
}

void Cnf::set_num_vars(int n) {
  if (n < num_vars_) throw std::invalid_argument("cannot shrink variable count");
  num_vars_ = n;
}

std::size_t Cnf::hash_of(std::span<const Lit> lits) {
  std::size_t h = 0x51ed270b;
  for (Lit l : lits) hash_combine(h, l.code());
  return h;
}

void Cnf::reserve(std::size_t clauses, std::size_t literals) {
  lits_.reserve(lits_.size() + literals);
  offsets_.reserve(offsets_.size() + clauses);
  dedup_.reserve(num_clauses() + clauses);
}

bool Cnf::add_clause(std::span<const Lit> lits) {
  for (Lit l : lits) {
    if (l.var() < 0 || l.var() >= num_vars_) {
      throw std::out_of_range("clause references unknown variable");
    }
  }
  const std::size_t start = lits_.size();
  if (start + lits.size() > std::numeric_limits<std::uint32_t>::max() ||
      num_clauses() >= std::numeric_limits<std::uint32_t>::max() - 1) {
    throw std::length_error("formula exceeds 32-bit clause indexes");
  }
  // Canonicalize the candidate in place at the arena tail; a duplicate
  // truncates it again.
  append_to_arena(lits_, lits);
  const auto tail = lits_.begin() + static_cast<std::ptrdiff_t>(start);
  std::sort(tail, lits_.end());
  lits_.erase(std::unique(tail, lits_.end()), lits_.end());
  const ClauseView candidate(std::span<const Lit>(lits_.data() + start, lits_.size() - start));
  const std::size_t hash = hash_of(candidate.lits());
  if (dedup_.find(hash, [&](std::uint32_t i) { return clause(i) == candidate; }) !=
      DedupTable::kAbsent) {
    lits_.erase(tail, lits_.end());
    return false;
  }
  dedup_.insert(hash, static_cast<std::uint32_t>(num_clauses()),
                [this](std::uint32_t i) { return hash_of(clause(i).lits()); });
  offsets_.push_back(static_cast<std::uint32_t>(lits_.size()));
  return true;
}

bool Cnf::contains(ClauseView c) const {
  return dedup_.find(hash_of(c.lits()), [&](std::uint32_t i) { return clause(i) == c; }) !=
         DedupTable::kAbsent;
}

bool Cnf::satisfied_by(const std::vector<Value>& assignment) const {
  for (ClauseView c : clauses()) {
    if (!c.satisfied_by(assignment)) return false;
  }
  return true;
}

std::size_t Cnf::unsatisfied_count(const std::vector<Value>& assignment) const {
  std::size_t count = 0;
  for (ClauseView c : clauses()) {
    if (!c.satisfied_by(assignment)) ++count;
  }
  return count;
}

}  // namespace discsp::sat
