// DedupTable: the one content-hash index behind every container of nogoods
// or clauses (Problem, NogoodStore, sat::Cnf).
//
// An open-addressing set of uint32_t indexes into a table the owner keeps.
// A slot holds index + 1 (0 = empty); probing is linear, the slot count is
// a power of two and the load stays at or below 3/4. No hash is stored: the
// owner passes the hash of the content it asks about, an `equal(idx)` test
// against its own entry `idx` for lookups, and a `hash_of(idx)` function for
// the operations that must re-home other entries (growth and erase). Erase
// shifts the probe run back instead of leaving tombstones, so a table that
// churns never fills up with dead slots.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace discsp {

class DedupTable {
 public:
  static constexpr std::uint32_t kAbsent = 0xffffffffu;

  std::size_t size() const { return size_; }

  /// The index whose content `equal` accepts, or kAbsent.
  template <typename Equal>
  std::uint32_t find(std::size_t hash, Equal&& equal) const {
    if (slots_.empty()) return kAbsent;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
      const std::uint32_t held = slots_[i];
      if (held == 0) return kAbsent;
      if (equal(held - 1)) return held - 1;
    }
  }

  /// Add `idx`, whose content hashes to `hash`. Precondition: no entry with
  /// equal content is present (find() first).
  template <typename HashOf>
  void insert(std::size_t hash, std::uint32_t idx, HashOf&& hash_of) {
    assert(idx != kAbsent);
    if ((size_ + 1) * 4 > slots_.size() * 3) grow(hash_of);
    slots_[empty_slot(hash)] = idx + 1;
    ++size_;
  }

  /// Remove `idx`, whose content hashes to `hash`. Precondition: present.
  template <typename HashOf>
  void erase(std::size_t hash, std::uint32_t idx, HashOf&& hash_of) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t hole = slot_of(hash, idx);
    // Backward shift: pull each later entry of the probe run into the hole
    // unless its home slot lies cyclically in (hole, j].
    for (std::size_t j = (hole + 1) & mask; slots_[j] != 0; j = (j + 1) & mask) {
      const std::size_t home = hash_of(slots_[j] - 1) & mask;
      const bool stays = hole < j ? (hole < home && home <= j) : (hole < home || home <= j);
      if (stays) continue;
      slots_[hole] = slots_[j];
      hole = j;
    }
    slots_[hole] = 0;
    --size_;
  }

  /// Size an empty table for `count` entries, so that inserting them never
  /// grows it. A hint: a table that holds entries is left as it is.
  void reserve(std::size_t count) {
    if (size_ != 0) return;
    std::size_t slots = 16;
    while (count * 4 > slots * 3) slots *= 2;
    if (slots > slots_.size()) slots_.assign(slots, 0);
  }

  /// Entry `from` (content hash `hash`) is now entry `to`: the owner moved
  /// it, as swap-with-last removal does. Precondition: `from` present.
  void repoint(std::size_t hash, std::uint32_t from, std::uint32_t to) {
    slots_[slot_of(hash, from)] = to + 1;
  }

 private:
  std::size_t slot_of(std::size_t hash, std::uint32_t idx) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash & mask;
    while (slots_[i] != idx + 1) {
      assert(slots_[i] != 0 && "entry not in the table");
      i = (i + 1) & mask;
    }
    return i;
  }

  std::size_t empty_slot(std::size_t hash) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    return i;
  }

  template <typename HashOf>
  void grow(HashOf&& hash_of) {
    std::vector<std::uint32_t> old(std::max<std::size_t>(16, 2 * slots_.size()), 0);
    old.swap(slots_);
    for (const std::uint32_t held : old) {
      if (held != 0) slots_[empty_slot(hash_of(held - 1))] = held;
    }
  }

  std::vector<std::uint32_t> slots_;
  std::size_t size_ = 0;
};

}  // namespace discsp
