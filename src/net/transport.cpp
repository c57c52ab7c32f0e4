// In-proc transport (net/transport.h): a registry of named listeners, and
// one carrier, the ring pipe — per direction an SPSC ring that spills to a
// mutexed overflow queue, with an eventcount wait for pump().
#include "net/transport.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "common/lockfree.h"

namespace discsp::net {

namespace {

// ---------------------------------------------------------------------------
// Lock-free ring pipe: the in-proc carrier.

/// Frames buffered per direction before the overflow queue engages. Sized
/// so healthy solves never leave the lock-free path; a chaos burst that
/// does overflow degrades to the mutexed queue and recovers once drained.
constexpr std::size_t kRingCapacity = 4096;

/// One pipe direction: an SPSC ring (each Connection is driven by exactly
/// one thread, so each direction has one producer and one consumer), a
/// mutexed overflow queue for bursts that outrun the ring, and an
/// eventcount-style sleep/wake for the consumer's pump() wait.
///
/// FIFO across the two structures holds because the producer routes every
/// frame to the overflow while `overflow_active` is set, and only the
/// consumer clears the flag — under the overflow lock, once the overflow is
/// empty. So "overflow non-empty" implies "ring holds only older frames",
/// and draining ring-first preserves order.
struct RingDir {
  SpscRing<WireFrame> ring{kRingCapacity};
  std::atomic<bool> overflow_active{false};
  std::mutex overflow_mutex;
  std::deque<WireFrame> overflow;

  std::atomic<bool> waiting{false};
  std::mutex wait_mutex;
  std::condition_variable cv;

  void push(const WireFrame& frame) {
    // Copy-push: the ring slot's previous heap buffer is reused, so a
    // warmed ring moves frames with zero allocation (try_pop_copy below
    // keeps the slot's buffer alive across laps).
    bool pushed = false;
    if (!overflow_active.load(std::memory_order_acquire)) {
      pushed = ring.try_push(frame);
    }
    if (!pushed) {
      std::lock_guard<std::mutex> lock(overflow_mutex);
      overflow.push_back(frame);
      overflow_active.store(true, std::memory_order_release);
    }
    // Eventcount handoff: the fence orders this producer's ring/overflow
    // writes before the waiting-flag read, pairing with the consumer's
    // store-then-recheck in pump(). Notify only when someone is parked.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (waiting.load(std::memory_order_relaxed)) {
      std::lock_guard<std::mutex> lock(wait_mutex);
      cv.notify_all();
    }
  }

  bool pop(WireFrame& out) {
    if (ring.try_pop_copy(out)) return true;
    if (!overflow_active.load(std::memory_order_acquire)) return false;
    std::lock_guard<std::mutex> lock(overflow_mutex);
    if (overflow.empty()) {
      overflow_active.store(false, std::memory_order_release);
      return false;
    }
    out = std::move(overflow.front());
    overflow.pop_front();
    // Refill the ring so the fast path resumes. Safe: the producer never
    // touches the ring while overflow_active is set, and clearing the flag
    // (release) publishes these pushes before the producer (acquire) can
    // observe it cleared.
    while (!overflow.empty()) {
      if (!ring.try_push(std::move(overflow.front()))) break;
      overflow.pop_front();
    }
    if (overflow.empty()) {
      overflow_active.store(false, std::memory_order_release);
    }
    return true;
  }

  bool has_frames() const {
    return !ring.empty() || overflow_active.load(std::memory_order_acquire);
  }
};

struct RingPipe {
  RingDir to_a;  // frames travelling b -> a
  RingDir to_b;  // frames travelling a -> b
  std::atomic<bool> open{true};
};

class RingConnection final : public Connection {
 public:
  RingConnection(std::shared_ptr<RingPipe> pipe, bool side_a)
      : pipe_(std::move(pipe)), side_a_(side_a) {}

  ~RingConnection() override { close(); }

  bool send(const WireFrame& frame) override {
    if (!pipe_->open.load(std::memory_order_acquire)) return false;
    outbox().push(frame);
    return true;
  }

  bool recv(WireFrame& frame) override { return inbox().pop(frame); }

  void pump(int timeout_ms) override {
    if (timeout_ms <= 0) return;  // queues need no driving; only the wait
    RingDir& in = inbox();
    // Spin briefly before parking: at steady-state rates the next frame is
    // nanoseconds away, while a park costs both sides a mutex (producer
    // notify, consumer wait). A couple of microseconds of polling converts
    // most parks into free pickups; an idle connection pays the spin once
    // per pump call and then sleeps as before.
    for (int i = 0; i < 2000; ++i) {
      if (in.has_frames() || !pipe_->open.load(std::memory_order_acquire)) {
        return;
      }
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#elif defined(__aarch64__)
      asm volatile("yield");
#endif
    }
    std::unique_lock<std::mutex> lock(in.wait_mutex);
    in.waiting.store(true, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    in.cv.wait_for(lock, std::chrono::milliseconds(timeout_ms), [&] {
      return in.has_frames() || !pipe_->open.load(std::memory_order_acquire);
    });
    in.waiting.store(false, std::memory_order_relaxed);
  }

  bool open() const override {
    // A closed pipe still drains: the survivor reads what was in flight.
    return pipe_->open.load(std::memory_order_acquire) || inbox().has_frames();
  }

  void close() override {
    pipe_->open.store(false, std::memory_order_release);
    for (RingDir* dir : {&pipe_->to_a, &pipe_->to_b}) {
      std::lock_guard<std::mutex> lock(dir->wait_mutex);
      dir->cv.notify_all();
    }
  }

 private:
  RingDir& inbox() const { return side_a_ ? pipe_->to_a : pipe_->to_b; }
  RingDir& outbox() const { return side_a_ ? pipe_->to_b : pipe_->to_a; }

  std::shared_ptr<RingPipe> pipe_;
  bool side_a_;
};

struct ListenerState {
  std::mutex mutex;
  std::deque<std::unique_ptr<Connection>> pending;
  bool open = true;
};

}  // namespace

struct InProcTransport::State {
  std::mutex mutex;
  std::condition_variable cv;  // wakes connect() waiting for a listener
  std::map<std::string, std::shared_ptr<ListenerState>> listeners;
};

namespace {

class InProcListener final : public Listener {
 public:
  InProcListener(std::shared_ptr<InProcTransport::State> transport,
                 std::shared_ptr<ListenerState> state, std::string endpoint)
      : transport_(std::move(transport)),
        state_(std::move(state)),
        endpoint_(std::move(endpoint)) {}

  ~InProcListener() override {
    {
      std::lock_guard<std::mutex> lock(state_->mutex);
      state_->open = false;
    }
    std::lock_guard<std::mutex> lock(transport_->mutex);
    auto it = transport_->listeners.find(endpoint_);
    if (it != transport_->listeners.end() && it->second == state_) {
      transport_->listeners.erase(it);
    }
  }

  std::unique_ptr<Connection> accept() override {
    std::lock_guard<std::mutex> lock(state_->mutex);
    if (state_->pending.empty()) return nullptr;
    auto conn = std::move(state_->pending.front());
    state_->pending.pop_front();
    return conn;
  }

 private:
  std::shared_ptr<InProcTransport::State> transport_;
  std::shared_ptr<ListenerState> state_;
  std::string endpoint_;
};

}  // namespace

InProcTransport::InProcTransport() : state_(std::make_shared<State>()) {}

std::unique_ptr<Listener> InProcTransport::listen(const std::string& endpoint) {
  auto listener_state = std::make_shared<ListenerState>();
  {
    std::lock_guard<std::mutex> lock(state_->mutex);
    auto [it, inserted] = state_->listeners.emplace(endpoint, listener_state);
    if (!inserted) {
      throw std::runtime_error("in-proc endpoint already bound: " + endpoint);
    }
    state_->cv.notify_all();
  }
  return std::make_unique<InProcListener>(state_, std::move(listener_state),
                                          endpoint);
}

std::unique_ptr<Connection> InProcTransport::connect(
    const std::string& endpoint, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms > 0 ? timeout_ms : 0);
  std::shared_ptr<ListenerState> listener;
  {
    std::unique_lock<std::mutex> lock(state_->mutex);
    state_->cv.wait_until(lock, deadline, [&] {
      return state_->listeners.count(endpoint) != 0;
    });
    auto it = state_->listeners.find(endpoint);
    if (it == state_->listeners.end()) return nullptr;
    listener = it->second;
  }
  auto pipe = std::make_shared<RingPipe>();
  auto server_end = std::make_unique<RingConnection>(pipe, /*side_a=*/false);
  auto client_end = std::make_unique<RingConnection>(std::move(pipe),
                                                     /*side_a=*/true);
  {
    std::lock_guard<std::mutex> lock(listener->mutex);
    if (!listener->open) return nullptr;
    listener->pending.push_back(std::move(server_end));
  }
  return client_end;
}

}  // namespace discsp::net
