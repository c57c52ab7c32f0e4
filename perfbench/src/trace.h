// Span and counter recording for the benchmark's traced run.
//
// The benchmark measures from outside the library: every span is opened by a
// forwarding decorator (timed.h) or by the benchmark's own code around a
// public call, never inside src/. Spans are kept in memory, per thread, and
// written out as Chrome trace-event JSON when the run ends. At most kMaxSpans
// spans are kept (the earliest ones); later spans still feed their Accum, so
// layer totals are exact even when the span log is full.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
std::int64_t now_ns();

/// Bytes the allocator has handed out and not yet had back, over all arenas
/// (glibc mallinfo2: heap chunks in use plus mmapped chunks).
std::uint64_t heap_in_use_bytes();

/// Busy time plus call count of one span name, shared across threads.
struct Accum {
  std::atomic<std::int64_t> ns{0};
  std::atomic<std::uint64_t> calls{0};

  void add(std::int64_t elapsed_ns, std::uint64_t n = 1) {
    ns.fetch_add(elapsed_ns, std::memory_order_relaxed);
    calls.fetch_add(n, std::memory_order_relaxed);
  }
  std::int64_t total_ns() const { return ns.load(std::memory_order_relaxed); }
  std::uint64_t count() const { return calls.load(std::memory_order_relaxed); }
};

struct Span {
  const char* name = "";
  std::int64_t id = -1;
  std::int64_t parent = -1;  ///< enclosing span on the same thread, -1 = root
  std::int64_t trial = -1;   ///< solve / serve-window id, -1 = none
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t thread = 0;
};

namespace spans {

inline constexpr std::uint64_t kMaxSpans = 1u << 17;

/// Span recording is off by default; the Accum side of Scoped always runs.
void set_enabled(bool on);
bool enabled();
/// Tag spans opened later on the calling thread with this trial id.
void set_trial(std::int64_t trial);
/// Every recorded span of every thread, threads in registration order.
std::vector<Span> collect();
/// Record a finished leaf span, nested under the calling thread's innermost
/// open Scoped (no-op while recording is off).
void record(const char* name, std::int64_t start_ns, std::int64_t end_ns);
/// Spans not kept because kMaxSpans were already recorded.
std::uint64_t dropped();
/// Write the spans plus `counters` (as otherData) as Chrome trace-event
/// JSON. Returns false when the file cannot be written.
bool write_chrome_json(const std::string& path,
                       const std::map<std::string, double>& counters);

}  // namespace spans

/// Times one call into `acc`; while span recording is on it also records a
/// span nested under the calling thread's innermost open Scoped.
class Scoped {
 public:
  Scoped(const char* name, Accum& acc) : Scoped(name, acc, now_ns()) {}
  /// A span that started at `start_ns`, a clock reading the caller already has.
  Scoped(const char* name, Accum& acc, std::int64_t start_ns);
  ~Scoped();
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Accum& acc_;
  std::int64_t start_;
  std::int64_t slot_ = -1;  ///< index in the thread's log, -1 = not recorded
};

}  // namespace perfbench
