// Flat variable-length lists: items back to back in one arena, entry i
// spanning [offsets[i], offsets[i+1]). Problem keeps its nogoods this way and
// sat::Cnf its clauses; ArenaList reads either as a range of views.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

namespace discsp {

/// The entries of an arena, in order, each as a View built from a
/// std::span<const T>. Cheap to copy; invalidated when the arena grows.
template <typename View, typename T>
class ArenaList {
 public:
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = View;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = View;

    iterator() = default;
    iterator(const T* items, const std::uint32_t* offset) : items_(items), offset_(offset) {}
    View operator*() const { return View({items_ + offset_[0], items_ + offset_[1]}); }
    iterator& operator++() {
      ++offset_;
      return *this;
    }
    iterator operator++(int) {
      iterator old = *this;
      ++offset_;
      return old;
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.offset_ == b.offset_;
    }

   private:
    const T* items_ = nullptr;
    const std::uint32_t* offset_ = nullptr;
  };

  ArenaList(std::span<const T> items, std::span<const std::uint32_t> offsets)
      : items_(items), offsets_(offsets) {}

  std::size_t size() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }
  bool empty() const { return size() == 0; }
  View operator[](std::size_t i) const {
    return View(items_.subspan(offsets_[i], offsets_[i + 1] - offsets_[i]));
  }
  iterator begin() const { return {items_.data(), offsets_.data()}; }
  iterator end() const { return {items_.data(), offsets_.data() + size()}; }

 private:
  std::span<const T> items_;
  std::span<const std::uint32_t> offsets_;  // size() + 1 entries
};

/// Append `items` to the tail of `arena`, where an owner canonicalizes and
/// checks a candidate entry in place. `items` may view `arena` itself: the
/// arena is reserved first and the view rebased onto the new buffer.
template <typename T>
void append_to_arena(std::vector<T>& arena, std::span<const T> items) {
  const std::size_t start = arena.size();
  const T* src = items.data();
  if (arena.capacity() < start + items.size()) {
    const std::ptrdiff_t aliased = src - arena.data();
    const bool in_arena =
        !items.empty() && aliased >= 0 && static_cast<std::size_t>(aliased) < start;
    arena.reserve(std::max(start + items.size(), 2 * arena.capacity()));
    if (in_arena) src = arena.data() + aliased;
  }
  arena.resize(start + items.size());  // no reallocation: reserved above
  std::copy_n(src, items.size(), arena.data() + start);
}

}  // namespace discsp
