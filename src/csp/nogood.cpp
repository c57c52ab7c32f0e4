#include "csp/nogood.h"

#include <algorithm>
#include <cassert>
#include <ostream>
#include <sstream>

#include "common/hash.h"

namespace discsp {

namespace {
void canonicalize(std::vector<Assignment>& items) {
  std::sort(items.begin(), items.end());
  items.erase(std::unique(items.begin(), items.end()), items.end());
#ifndef NDEBUG
  for (std::size_t i = 1; i < items.size(); ++i) {
    // Two different values for one variable would make the "nogood" never
    // violable; callers must not construct such a thing.
    assert(items[i - 1].var != items[i].var && "conflicting values for one variable in a nogood");
  }
#endif
}
}  // namespace

Nogood::Nogood(std::vector<Assignment> assignments) : items_(std::move(assignments)) {
  canonicalize(items_);
  rehash();
}

Nogood::Nogood(std::initializer_list<Assignment> assignments)
    : Nogood(std::vector<Assignment>(assignments)) {}

void Nogood::rehash() {
  hash_ = hash_range(items_.begin(), items_.end());
}

Nogood::Nogood(NogoodView view) : items_(view.begin(), view.end()) { rehash(); }

Value value_in(std::span<const Assignment> items, VarId var) {
  auto it = std::lower_bound(items.begin(), items.end(), var,
                             [](const Assignment& a, VarId v) { return a.var < v; });
  if (it != items.end() && it->var == var) return it->value;
  return kNoValue;
}

Nogood Nogood::without(VarId var) const {
  std::vector<Assignment> kept;
  kept.reserve(items_.size());
  for (const Assignment& a : items_) {
    if (a.var != var) kept.push_back(a);
  }
  return Nogood(std::move(kept));
}

bool Nogood::subset_of(const Nogood& other) const {
  if (size() > other.size()) return false;
  return std::includes(other.begin(), other.end(), begin(), end());
}

std::string Nogood::str() const {
  std::ostringstream out;
  out << *this;
  return out.str();
}

std::ostream& operator<<(std::ostream& os, const Nogood& ng) { return os << ng.view(); }

std::ostream& operator<<(std::ostream& os, NogoodView ng) {
  os << '(';
  for (const Assignment& a : ng) {
    os << "(x" << a.var << ',' << a.value << ')';
  }
  os << ')';
  return os;
}

Nogood merge(const Nogood& a, const Nogood& b) {
  std::vector<Assignment> all;
  all.reserve(a.size() + b.size());
  all.insert(all.end(), a.begin(), a.end());
  all.insert(all.end(), b.begin(), b.end());
  return Nogood(std::move(all));
}

Nogood merge_without(std::span<const Nogood* const> sources, VarId drop) {
  std::vector<Assignment> all;
  for (const Nogood* ng : sources) {
    assert(ng != nullptr);
    for (const Assignment& a : *ng) {
      if (a.var != drop) all.push_back(a);
    }
  }
  return Nogood(std::move(all));
}

}  // namespace discsp
