#include "csp/problem.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

#include "common/hash.h"

namespace discsp {

VarId Problem::add_variable(int domain_size, std::string name) {
  if (domain_size <= 0) throw std::invalid_argument("domain_size must be positive");
  const VarId id = static_cast<VarId>(domain_sizes_.size());
  domain_sizes_.push_back(domain_size);
  if (name.empty()) name = "x" + std::to_string(id);
  names_.push_back(std::move(name));
  per_var_nogoods_.emplace_back();
  return id;
}

void Problem::add_variables(int count, int domain_size) {
  for (int i = 0; i < count; ++i) add_variable(domain_size);
}

bool Problem::add_nogood(std::span<const Assignment> literals) {
  const std::size_t start = literals_.size();
  const std::size_t count = literals.size();
  if (start + count > std::numeric_limits<std::uint32_t>::max() ||
      num_nogoods() >= std::numeric_limits<std::uint32_t>::max() - 1) {
    throw std::length_error("problem exceeds 32-bit constraint indexes");
  }
  // Append to the arena tail, where the candidate is canonicalized and
  // checked in place; every rejection truncates it again. Reserving first
  // keeps `literals` valid when it views this very arena.
  const Assignment* src = literals.data();
  if (literals_.capacity() < start + count) {
    const std::ptrdiff_t aliased = src - literals_.data();
    const bool in_arena = count > 0 && aliased >= 0 && static_cast<std::size_t>(aliased) < start;
    literals_.reserve(std::max(start + count, 2 * literals_.capacity()));
    if (in_arena) src = literals_.data() + aliased;
  }
  for (std::size_t i = 0; i < count; ++i) literals_.push_back(src[i]);
  const auto tail = literals_.begin() + static_cast<std::ptrdiff_t>(start);
  std::sort(tail, literals_.end());
  literals_.erase(std::unique(tail, literals_.end()), literals_.end());
  const std::span<const Assignment> items(literals_.data() + start, literals_.size() - start);
#ifndef NDEBUG
  for (std::size_t i = 1; i < items.size(); ++i) {
    // Two different values for one variable would make the "nogood" never
    // violable; callers must not construct such a thing.
    assert(items[i - 1].var != items[i].var && "conflicting values for one variable in a nogood");
  }
#endif
  for (const Assignment& a : items) {
    if (a.var < 0 || a.var >= num_variables()) {
      literals_.resize(start);
      throw std::out_of_range("nogood references unknown variable x" + std::to_string(a.var));
    }
    if (a.value < 0 || a.value >= domain_size(a.var)) {
      literals_.resize(start);
      throw std::out_of_range("nogood binds x" + std::to_string(a.var) +
                              " to out-of-domain value " + std::to_string(a.value));
    }
  }

  const NogoodView candidate(items);
  const std::size_t hash = hash_range(items.begin(), items.end());
  if (dedup_.empty()) grow_dedup();
  std::size_t slot = find_slot(candidate, hash);
  if (dedup_[slot] != 0) {
    literals_.resize(start);
    return false;
  }
  const std::size_t idx = num_nogoods();
  if ((idx + 1) * 4 > dedup_.size() * 3) {  // keep the load at or below 3/4
    grow_dedup();
    slot = find_slot(candidate, hash);
  }
  dedup_[slot] = static_cast<std::uint32_t>(idx + 1);
  offsets_.push_back(static_cast<std::uint32_t>(literals_.size()));
  for (const Assignment& a : items) {
    per_var_nogoods_[static_cast<std::size_t>(a.var)].push_back(static_cast<std::uint32_t>(idx));
  }
  if (items.empty()) has_empty_nogood_ = true;
  return true;
}

std::size_t Problem::find_slot(NogoodView ng, std::size_t hash) const {
  const std::size_t mask = dedup_.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const std::uint32_t held = dedup_[i];
    if (held == 0 || nogood(held - 1) == ng) return i;
  }
}

void Problem::grow_dedup() {
  dedup_.assign(std::max<std::size_t>(16, 2 * dedup_.size()), 0);
  const NogoodList all = nogoods();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const NogoodView ng = all[i];
    dedup_[find_slot(ng, hash_range(ng.begin(), ng.end()))] = static_cast<std::uint32_t>(i + 1);
  }
}

void Problem::shrink_to_fit() {
  domain_sizes_.shrink_to_fit();
  names_.shrink_to_fit();
  literals_.shrink_to_fit();
  offsets_.shrink_to_fit();
  per_var_nogoods_.shrink_to_fit();
  for (auto& list : per_var_nogoods_) list.shrink_to_fit();
}

std::vector<VarId> Problem::neighbors_of(VarId v) const {
  std::vector<VarId> out;
  for (std::uint32_t idx : nogoods_of(v)) {
    for (const Assignment& a : nogood(idx)) {
      if (a.var != v) out.push_back(a.var);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool Problem::is_solution(const FullAssignment& a) const {
  if (static_cast<int>(a.size()) != num_variables()) return false;
  for (VarId v = 0; v < num_variables(); ++v) {
    if (a[static_cast<std::size_t>(v)] < 0 ||
        a[static_cast<std::size_t>(v)] >= domain_size(v)) {
      return false;
    }
  }
  auto lookup = [&](VarId v) { return a[static_cast<std::size_t>(v)]; };
  for (NogoodView ng : nogoods()) {
    if (ng.violated_by(lookup)) return false;
  }
  return true;
}

std::size_t Problem::violated_count(const FullAssignment& a) const {
  auto lookup = [&](VarId v) {
    return v >= 0 && static_cast<std::size_t>(v) < a.size()
               ? a[static_cast<std::size_t>(v)]
               : kNoValue;
  };
  std::size_t count = 0;
  for (NogoodView ng : nogoods()) {
    if (ng.violated_by(lookup)) ++count;
  }
  return count;
}

}  // namespace discsp
