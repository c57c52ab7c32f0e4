#include "trace.h"

#include <malloc.h>

#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t heap_in_use_bytes() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

namespace {

/// One thread's span log. Owned by the registry, so the spans of a thread
/// that has exited stay readable until the run ends.
struct ThreadLog {
  std::uint32_t index = 0;
  std::int64_t trial = -1;
  std::vector<Span> spans;
  std::vector<std::int64_t> open;  ///< ids of the open Scoped spans, innermost last
};

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_reserved{0};
std::atomic<std::uint64_t> g_dropped{0};
std::mutex g_registry_mutex;
std::vector<std::unique_ptr<ThreadLog>> g_registry;  // guarded by g_registry_mutex
thread_local ThreadLog* t_log = nullptr;

ThreadLog& thread_log() {
  if (t_log == nullptr) {
    std::lock_guard lock(g_registry_mutex);
    auto log = std::make_unique<ThreadLog>();
    log->index = static_cast<std::uint32_t>(g_registry.size());
    t_log = log.get();
    g_registry.push_back(std::move(log));
  }
  return *t_log;
}

/// Claim one span of the kMaxSpans budget; false (and counted) when spent.
bool reserve_span() {
  if (g_reserved.fetch_add(1, std::memory_order_relaxed) < spans::kMaxSpans) return true;
  g_dropped.fetch_add(1, std::memory_order_relaxed);
  return false;
}

/// Append a reserved span to the calling thread's log; returns its slot.
std::int64_t append_span(ThreadLog& log, const char* name, std::int64_t start_ns) {
  const auto slot = static_cast<std::int64_t>(log.spans.size());
  Span span;
  span.name = name;
  span.id = (static_cast<std::int64_t>(log.index) << 32) | slot;
  span.parent = log.open.empty() ? -1 : log.open.back();
  span.trial = log.trial;
  span.start_ns = start_ns;
  span.end_ns = start_ns;
  span.thread = log.index;
  log.spans.push_back(span);
  return slot;
}

void write_json_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
  out << '"';
}

}  // namespace

namespace spans {

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_trial(std::int64_t trial) { thread_log().trial = trial; }

std::vector<Span> collect() {
  std::lock_guard lock(g_registry_mutex);
  std::vector<Span> all;
  for (const auto& log : g_registry) {
    all.insert(all.end(), log->spans.begin(), log->spans.end());
  }
  return all;
}

void record(const char* name, std::int64_t start_ns, std::int64_t end_ns) {
  if (!enabled() || !reserve_span()) return;
  ThreadLog& log = thread_log();
  const std::int64_t slot = append_span(log, name, start_ns);
  log.spans[static_cast<std::size_t>(slot)].end_ns = end_ns;
}

std::uint64_t dropped() { return g_dropped.load(std::memory_order_relaxed); }

bool write_chrome_json(const std::string& path,
                       const std::map<std::string, double>& counters) {
  const std::vector<Span> all = collect();
  std::int64_t origin = 0;
  for (const Span& s : all) {
    if (origin == 0 || s.start_ns < origin) origin = s.start_ns;
  }
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  for (const Span& s : all) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread << ",\"name\":";
    write_json_string(out, s.name);
    out << ",\"ts\":" << static_cast<double>(s.start_ns - origin) / 1000.0
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1000.0
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"trial\":" << s.trial << "}}";
  }
  out << "\n],\"otherData\":{\"spans_dropped\":" << dropped();
  for (const auto& [name, value] : counters) {
    out << ',';
    write_json_string(out, name);
    out << ':' << value;
  }
  out << "}}\n";
  return static_cast<bool>(out);
}

}  // namespace spans

Scoped::Scoped(const char* name, Accum& acc, std::int64_t start_ns)
    : acc_(acc), start_(start_ns) {
  if (!spans::enabled() || !reserve_span()) return;
  ThreadLog& log = thread_log();
  slot_ = append_span(log, name, start_);
  log.open.push_back(log.spans[static_cast<std::size_t>(slot_)].id);
}

Scoped::~Scoped() {
  const std::int64_t end = now_ns();
  acc_.add(end - start_);
  if (slot_ < 0) return;
  ThreadLog& log = thread_log();
  log.open.pop_back();
  log.spans[static_cast<std::size_t>(slot_)].end_ns = end;
}

}  // namespace perfbench
