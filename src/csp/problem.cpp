#include "csp/problem.h"

#include <algorithm>
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
  if (start + literals.size() > std::numeric_limits<std::uint32_t>::max() ||
      num_nogoods() >= std::numeric_limits<std::uint32_t>::max() - 1) {
    throw std::length_error("problem exceeds 32-bit constraint indexes");
  }
  // Canonicalize and check the candidate in place at the arena tail; every
  // rejection truncates it again.
  append_to_arena(literals_, literals);
  const auto tail = literals_.begin() + static_cast<std::ptrdiff_t>(start);
  std::sort(tail, literals_.end());
  literals_.erase(std::unique(tail, literals_.end()), literals_.end());
  const std::span<const Assignment> items(literals_.data() + start, literals_.size() - start);
  for (std::size_t i = 0; i < items.size(); ++i) {
    const Assignment a = items[i];  // a copy: the messages outlive the truncation
    if (a.var < 0 || a.var >= num_variables()) {
      literals_.erase(tail, literals_.end());
      throw std::out_of_range("nogood references unknown variable x" + std::to_string(a.var));
    }
    if (a.value < 0 || a.value >= domain_size(a.var)) {
      literals_.erase(tail, literals_.end());
      throw std::out_of_range("nogood binds x" + std::to_string(a.var) +
                              " to out-of-domain value " + std::to_string(a.value));
    }
    if (i > 0 && items[i - 1].var == a.var) {
      const Value first = items[i - 1].value;
      literals_.erase(tail, literals_.end());
      throw std::invalid_argument("nogood binds x" + std::to_string(a.var) + " twice (to " +
                                  std::to_string(first) + " and " + std::to_string(a.value) +
                                  ")");
    }
  }

  const NogoodView candidate(items);
  const std::size_t hash = hash_range(items.begin(), items.end());
  if (dedup_.find(hash, [&](std::uint32_t i) { return nogood(i) == candidate; }) !=
      DedupTable::kAbsent) {
    literals_.erase(tail, literals_.end());
    return false;
  }
  const auto idx = static_cast<std::uint32_t>(num_nogoods());
  dedup_.insert(hash, idx, [this](std::uint32_t i) {
    const NogoodView ng = nogood(i);
    return hash_range(ng.begin(), ng.end());
  });
  offsets_.push_back(static_cast<std::uint32_t>(literals_.size()));
  for (const Assignment& a : items) {
    per_var_nogoods_[static_cast<std::size_t>(a.var)].push_back(idx);
  }
  if (items.empty()) has_empty_nogood_ = true;
  return true;
}

void Problem::reserve(std::size_t nogoods, std::size_t literals) {
  literals_.reserve(literals_.size() + literals);
  offsets_.reserve(offsets_.size() + nogoods);
  dedup_.reserve(num_nogoods() + nogoods);
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
