// Lock-free queue of the hot-path delivery layer.
//
// SpscRing — a fixed-capacity single-producer/single-consumer ring with
// acquire/release indices. One side writes, the other reads; neither ever
// takes a lock. The in-proc transport uses one ring per pipe direction
// (each Connection is driven by exactly one thread, per the transport
// contract), falling back to a mutexed overflow queue only when a burst
// outruns the ring.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace discsp {

template <typename T>
class SpscRing {
 public:
  /// `capacity` is rounded up to a power of two (index masking).
  explicit SpscRing(std::size_t capacity) {
    std::size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  /// Producer side. False when the ring is full (caller overflows elsewhere).
  bool try_push(T&& value) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    if (head - tail > mask_) return false;
    slots_[head & mask_] = std::move(value);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Producer side, copying. For vector-like T the copy-assignment reuses
  /// the slot's previous heap buffer, so a warmed ring moves frames with
  /// zero allocation — the whole point of the ring over a mutexed deque of
  /// freshly-constructed elements (pair with try_pop_copy).
  bool try_push(const T& value) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    if (head - tail > mask_) return false;
    slots_[head & mask_] = value;
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side. False when the ring is empty.
  bool try_pop(T& out) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    if (tail == head) return false;
    out = std::move(slots_[tail & mask_]);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side, copy-assigning into `out` so the slot keeps its buffer
  /// for the producer's next try_push(const T&) and the caller's `out`
  /// keeps its own capacity across calls (zero-alloc steady state).
  bool try_pop_copy(T& out) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    if (tail == head) return false;
    out = slots_[tail & mask_];
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Racy by nature; callers use it as a hint (empty-before-sleep checks
  /// re-validate under their wait protocol).
  bool empty() const {
    return head_.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  }

 private:
  std::vector<T> slots_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::uint64_t> head_{0};  // producer index
  alignas(64) std::atomic<std::uint64_t> tail_{0};  // consumer index
};

}  // namespace discsp
