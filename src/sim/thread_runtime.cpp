#include "sim/thread_runtime.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "common/lockfree.h"
#include "sim/termination.h"

namespace discsp::sim {

namespace {

/// A message plus the credit it carries (credit-recovery termination).
/// Heartbeat letters carry no payload semantics and no credit: they only
/// prompt the receiving agent to run its anti-entropy refresh.
struct Letter {
  MessagePayload payload;
  std::vector<int> credit;
  bool heartbeat = false;
  AgentId from = kNoAgent;
  /// Reliability frame number (failure detector active); 0 = untracked.
  std::uint64_t track_seq = 0;
  /// Non-zero = transport ack: `from` acknowledges frame `ack_of` on the
  /// channel (receiver, from). Never shown to the agent.
  std::uint64_t ack_of = 0;
  /// False for transport letters (retransmissions, acks): they were never
  /// counted in `sent`, so processing them must not bump `processed`.
  bool counted = true;
  /// Serialized payload when the wire format is active (corruption enabled);
  /// the receiver must checksum-verify and validate it before the payload is
  /// trusted (a malformed frame is dropped unprocessed).
  WireFrame frame = {};
};

/// Unbounded MPSC mailbox with blocking pop. The common path is lock-free:
/// push lands on a Vyukov MPSC queue (one exchange), pop consumes it without
/// a lock. Two slow paths keep their locks, off the hot path by design:
///
///   * push_front — the fault layer's reordering primitive (a letter
///     overtaking the channel's FIFO order). Overtakers go to a small
///     mutexed stack consulted before the queue, so they still beat
///     everything already enqueued; among themselves the newest wins,
///     matching the old deque's push_front.
///   * blocking — a consumer that finds nothing parks on a condvar behind
///     an eventcount-style waiting flag; producers only touch the lock when
///     someone is actually parked.
///
/// `size_` counts letters from *before* they are published until after they
/// are consumed, so empty() can never report an in-flight letter as absent —
/// the quiescence detector (sent == processed && all idle && all empty)
/// stays sound.
class Mailbox {
 public:
  void push(Letter letter) {
    size_.fetch_add(1, std::memory_order_acq_rel);
    queue_.push(std::move(letter));
    notify_if_waiting();
  }

  /// Deliver ahead of everything already queued.
  void push_front(Letter letter) {
    size_.fetch_add(1, std::memory_order_acq_rel);
    {
      std::lock_guard lock(front_mutex_);
      front_.push_back(std::move(letter));
      front_count_.fetch_add(1, std::memory_order_release);
    }
    notify_if_waiting();
  }

  /// Pop one letter; returns false when woken by shutdown with an empty
  /// queue (letters already accepted are still drained first).
  bool pop(Letter& out, const std::atomic<bool>& stop) {
    while (true) {
      if (try_take(out)) return true;
      if (size_.load(std::memory_order_acquire) > 0) {
        // A producer is between its size bump and the node link; the
        // letter lands momentarily.
        std::this_thread::yield();
        continue;
      }
      if (stop.load(std::memory_order_acquire)) return false;
      std::unique_lock lock(wait_mutex_);
      waiting_.store(true, std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (size_.load(std::memory_order_acquire) == 0 &&
          !stop.load(std::memory_order_acquire)) {
        // Bounded wait: a lost race with notify_if_waiting costs one
        // period, never a hang.
        cv_.wait_for(lock, std::chrono::milliseconds(1));
      }
      waiting_.store(false, std::memory_order_relaxed);
    }
  }

  bool empty() const { return size_.load(std::memory_order_acquire) == 0; }

  /// Letters still queued that carry credit (for the monitor's run-end
  /// credit-conservation check; only meaningful once the threads stopped).
  std::size_t credited_pending() const {
    std::size_t n = 0;
    queue_.for_each_unconsumed([&](const Letter& letter) {
      if (!letter.credit.empty()) ++n;
    });
    std::lock_guard lock(front_mutex_);
    for (const Letter& letter : front_) {
      if (!letter.credit.empty()) ++n;
    }
    return n;
  }

  void wake() {
    std::lock_guard lock(wait_mutex_);
    cv_.notify_all();
  }

 private:
  bool try_take(Letter& out) {
    if (front_count_.load(std::memory_order_acquire) > 0) {
      std::lock_guard lock(front_mutex_);
      if (!front_.empty()) {
        out = std::move(front_.back());
        front_.pop_back();
        front_count_.fetch_sub(1, std::memory_order_acq_rel);
        size_.fetch_sub(1, std::memory_order_acq_rel);
        return true;
      }
    }
    if (queue_.try_pop(out)) {
      size_.fetch_sub(1, std::memory_order_acq_rel);
      return true;
    }
    return false;
  }

  void notify_if_waiting() {
    // Fence pairs with the store-then-check in pop(): either the consumer
    // sees the new size and skips the wait, or we see its waiting flag and
    // take the lock to notify.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (waiting_.load(std::memory_order_relaxed)) {
      std::lock_guard lock(wait_mutex_);
      cv_.notify_all();
    }
  }

  MpscQueue<Letter> queue_;
  std::atomic<std::size_t> size_{0};

  mutable std::mutex front_mutex_;
  std::vector<Letter> front_;  // overtakers; newest delivered first
  std::atomic<std::size_t> front_count_{0};

  std::atomic<bool> waiting_{false};
  std::mutex wait_mutex_;
  std::condition_variable cv_;
};

}  // namespace

struct ThreadRuntime::Impl {
  const Problem& problem;
  std::vector<std::unique_ptr<Agent>> agents;
  ThreadRuntimeConfig config;

  std::vector<Mailbox> mailboxes;
  std::vector<std::atomic<Value>> values;      // published after each compute
  std::vector<std::atomic<bool>> idle;
  std::atomic<std::uint64_t> send_attempts{0};  // all sends, dropped or not
  std::atomic<std::uint64_t> sent{0};           // letters actually enqueued
  std::atomic<std::uint64_t> processed{0};
  std::atomic<std::uint64_t> refresh_messages{0};
  std::atomic<std::uint64_t> heartbeat_rounds{0};
  std::atomic<bool> stop{false};
  std::atomic<bool> insoluble{false};
  CreditLedger ledger;
  std::unique_ptr<FaultPlan> plan;  // present only when faults are enabled
  /// Present only when the plan is and config.retransmit.enabled().
  std::unique_ptr<recovery::RetransmitBuffer> retransmit;
  /// Present only when config.monitor.enabled.
  std::unique_ptr<InvariantMonitor> monitor;
  /// Wire-format state, present only when the plan is and corruption can
  /// fire (config.faults.corrupt_rate > 0).
  std::unique_ptr<WireLimits> wire;
  std::unique_ptr<ChannelGuard> guard;
  std::chrono::steady_clock::time_point epoch = std::chrono::steady_clock::now();

  Impl(const Problem& p, std::vector<std::unique_ptr<Agent>> a, ThreadRuntimeConfig c)
      : problem(p), agents(std::move(a)), config(c),
        mailboxes(agents.size()), values(agents.size()), idle(agents.size()),
        ledger(static_cast<int>(agents.size())) {
    config.faults.validate();
    config.retransmit.validate();
    if (config.faults.enabled()) {
      plan = std::make_unique<FaultPlan>(config.faults,
                                         static_cast<int>(agents.size()));
      if (config.retransmit.enabled()) {
        retransmit = std::make_unique<recovery::RetransmitBuffer>(
            config.retransmit, static_cast<int>(agents.size()));
      }
      if (config.faults.corrupt_rate > 0) {
        wire = std::make_unique<WireLimits>(
            wire_limits_for(problem, static_cast<int>(agents.size())));
        guard = std::make_unique<ChannelGuard>(static_cast<int>(agents.size()),
                                               config.faults.quarantine_budget,
                                               config.faults.quarantine_duration);
      }
    }
    if (config.monitor.enabled) {
      monitor = std::make_unique<InvariantMonitor>(
          config.monitor, static_cast<int>(agents.size()));
    }
  }

  /// Microseconds since runtime construction — the retransmission clock.
  std::int64_t now_us() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - epoch)
        .count();
  }

  /// Enqueue a transport letter (ack or retransmission) through the fault
  /// plan. Transport letters are uncredited and uncounted: they exist below
  /// the protocol layer that `sent`/`processed` quiescence reasons about.
  void push_transport(AgentId from, AgentId to, Letter letter) {
    const ChannelVerdict verdict = plan->on_send(from, to, now_us());
    if (verdict.extra_delay > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(verdict.extra_delay));
    }
    if (letter.ack_of == 0 && wire != nullptr && verdict.copies > 0) {
      // Retransmissions re-encode from the tracked (clean) payload; a
      // corrupted original cannot poison its own repair.
      encode_frame_into(letter.payload, letter.frame);
      if (verdict.corrupt) corrupt_frame(letter.frame, verdict.corrupt_seed);
    } else if (verdict.corrupt) {
      // A corrupted ack is unparseable garbage to its receiver: model it as
      // lost (the sender keeps retransmitting until a clean ack lands).
      return;
    }
    auto& box = mailboxes[static_cast<std::size_t>(to)];
    for (int copy = 0; copy < verdict.copies; ++copy) {
      if (verdict.reorder) {
        box.push_front(letter);
      } else {
        box.push(letter);
      }
    }
  }

  /// Sink bound to one activation's credit pool: every send halves a piece.
  class RuntimeSink final : public MessageSink {
   public:
    RuntimeSink(Impl& impl, AgentId self, CreditPool& pool)
        : impl_(impl), self_(self), pool_(pool) {}

    /// Set while the owning thread runs Agent::on_heartbeat so refresh
    /// traffic is counted separately.
    bool counting_refresh = false;

    void send(AgentId to, MessagePayload payload) override {
      if (to < 0 || static_cast<std::size_t>(to) >= impl_.mailboxes.size()) {
        throw std::out_of_range("message addressed to unknown agent");
      }
      impl_.send_attempts.fetch_add(1, std::memory_order_acq_rel);
      if (counting_refresh) {
        impl_.refresh_messages.fetch_add(1, std::memory_order_relaxed);
      }
      if (impl_.monitor != nullptr) {
        impl_.monitor->on_send(self_, payload, impl_.now_us());
      }
      if (impl_.plan == nullptr) {
        deliver(to, std::move(payload), /*reorder=*/false, /*extra_delay=*/0,
                /*track_seq=*/0);
        return;
      }
      std::uint64_t track_seq = 0;
      if (impl_.retransmit != nullptr && !counting_refresh) {
        // Heartbeat re-announcements are idempotent repair traffic and stay
        // untracked; only regular protocol sends enter the detector.
        track_seq = impl_.retransmit->track(self_, to, payload, impl_.now_us());
      }
      const ChannelVerdict verdict =
          impl_.plan->on_send(self_, to, impl_.now_us());
      // Encoded into the reusable scratch: the sink lives for the agent
      // thread's whole run, so steady-state sends reuse its capacity.
      const bool framed = impl_.wire != nullptr && verdict.copies > 0;
      if (framed) {
        encode_frame_into(payload, frame_scratch_);
        if (verdict.corrupt) corrupt_frame(frame_scratch_, verdict.corrupt_seed);
      }
      // copies == 0: the message vanishes. Its credit was never detached,
      // so conservation holds — the pool returns it at activation end.
      for (int copy = 0; copy < verdict.copies; ++copy) {
        deliver(to, payload, verdict.reorder, verdict.extra_delay, track_seq,
                framed ? frame_scratch_ : WireFrame{});
      }
    }

   private:
    void deliver(AgentId to, MessagePayload payload, bool reorder,
                 std::int64_t extra_delay, std::uint64_t track_seq,
                 WireFrame frame = {}) {
      // Count the send *before* making it visible so that quiescence
      // (sent == processed && all idle) can never be observed spuriously.
      impl_.sent.fetch_add(1, std::memory_order_acq_rel);
      if (impl_.config.delivery_jitter.count() > 0) {
        std::this_thread::sleep_for(impl_.config.delivery_jitter);
      }
      if (extra_delay > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(extra_delay));
      }
      // Heartbeat-context sends run from an empty pool (a heartbeat letter
      // carries no credit); they travel uncredited, which is safe because
      // fault-mode success detection validates the snapshot directly.
      Letter letter{std::move(payload),
                    pool_.empty() ? std::vector<int>{}
                                  : std::vector<int>{pool_.split()},
                    /*heartbeat=*/false, self_, track_seq, /*ack_of=*/0,
                    /*counted=*/true, std::move(frame)};
      auto& box = impl_.mailboxes[static_cast<std::size_t>(to)];
      if (reorder) {
        box.push_front(std::move(letter));
      } else {
        box.push(std::move(letter));
      }
    }

    Impl& impl_;
    AgentId self_;
    CreditPool& pool_;
    WireFrame frame_scratch_;
  };

  void agent_loop(std::size_t i) {
    Agent& agent = *agents[i];
    CreditPool pool;
    RuntimeSink sink(*this, agent.id(), pool);
    Letter letter;
    while (!stop.load(std::memory_order_acquire)) {
      idle[i].store(true, std::memory_order_release);
      if (!mailboxes[i].pop(letter, stop)) break;
      idle[i].store(false, std::memory_order_release);
      if (letter.heartbeat) {
        // Anti-entropy refresh: uncredited, not counted as processed (it
        // was never counted as sent).
        sink.counting_refresh = true;
        agent.on_heartbeat(sink);
        sink.counting_refresh = false;
        continue;
      }
      if (letter.ack_of != 0) {
        // Transport ack for a frame this agent sent to letter.from.
        retransmit->ack(static_cast<AgentId>(i), letter.from, letter.ack_of);
        continue;
      }
      pool.add_all(letter.credit);
      if (monitor != nullptr) monitor->on_activation(now_us());
      const CrashKind crash = plan != nullptr
                                  ? plan->on_deliver(static_cast<AgentId>(i))
                                  : CrashKind::kNone;
      if (crash == CrashKind::kRestart) {
        // Crash-restart: volatile state is lost and the in-flight letter
        // dies with the process; recovery re-announces through the sink.
        // A tracked frame stays unacked, so the detector redelivers it.
        agent.crash_restart(sink);
      } else if (crash == CrashKind::kAmnesia) {
        if (retransmit != nullptr) retransmit->forget_agent(static_cast<AgentId>(i));
        agent.amnesia_restart(sink);
      } else {
        // Wire format active: the frame is what arrived, and it must pass
        // checksum + semantic validation before anything — even the dedup/
        // ack machinery — reacts to it. Malformed frames are dropped (their
        // credit was already absorbed above, so conservation holds) and the
        // missing ack makes the detector redeliver a clean copy.
        const bool malformed =
            !letter.frame.empty() &&
            !guard->admit(letter.from, static_cast<AgentId>(i), now_us(),
                          letter.frame, *wire, letter.payload);
        bool suppressed = false;
        if (!malformed && letter.track_seq != 0 && retransmit != nullptr) {
          suppressed = retransmit->mark_delivered(letter.from,
                                                  static_cast<AgentId>(i),
                                                  letter.track_seq);
          // Ack every tracked frame, duplicates included: the previous ack
          // may itself have been lost.
          push_transport(static_cast<AgentId>(i), letter.from,
                         Letter{MessagePayload{}, {}, /*heartbeat=*/false,
                                static_cast<AgentId>(i), 0, letter.track_seq,
                                /*counted=*/false});
        }
        if (!malformed && !suppressed) {
          if (monitor != nullptr) {
            monitor->on_deliver(letter.from, static_cast<AgentId>(i),
                                letter.payload, now_us());
          }
          const Value value_before = agent.current_value();
          agent.receive(letter.payload);
          agent.compute(sink);
          if (monitor != nullptr && agent.current_value() != value_before) {
            monitor->on_progress(now_us());
          }
        }
      }
      values[i].store(agent.current_value(), std::memory_order_release);
      if (agent.detected_insoluble()) {
        if (monitor != nullptr) {
          monitor->on_insoluble(static_cast<AgentId>(i), now_us());
        }
        insoluble.store(true, std::memory_order_release);
      }
      // Activation over: return the remaining credit, then count the
      // message as processed (transport letters were never counted as sent).
      ledger.deposit(pool.drain());
      if (letter.counted) processed.fetch_add(1, std::memory_order_acq_rel);
    }
  }

  FullAssignment snapshot() const {
    FullAssignment a(static_cast<std::size_t>(problem.num_variables()), kNoValue);
    for (std::size_t i = 0; i < agents.size(); ++i) {
      a[static_cast<std::size_t>(agents[i]->variable())] =
          values[i].load(std::memory_order_acquire);
    }
    return a;
  }

  bool snapshot_is_solution() const { return problem.is_solution(snapshot()); }

  /// Omniscient quiescence scan — the fallback when credit-recovery
  /// detection is disabled, and the cross-check used by tests.
  bool quiescent() const {
    if (sent.load(std::memory_order_acquire) != processed.load(std::memory_order_acquire)) {
      return false;
    }
    for (const auto& flag : idle) {
      if (!flag.load(std::memory_order_acquire)) return false;
    }
    for (const auto& box : mailboxes) {
      if (!box.empty()) return false;
    }
    // Re-check the counters: a send between the two scans would show here.
    return sent.load(std::memory_order_acquire) == processed.load(std::memory_order_acquire);
  }

  bool detected_terminated() const {
    return config.use_credit_termination ? ledger.terminated() : quiescent();
  }
};

ThreadRuntime::ThreadRuntime(const Problem& problem,
                             std::vector<std::unique_ptr<Agent>> agents,
                             ThreadRuntimeConfig config)
    : impl_(std::make_unique<Impl>(problem, std::move(agents), config)) {}

ThreadRuntime::~ThreadRuntime() = default;

RunResult ThreadRuntime::run() {
  auto& impl = *impl_;
  RunResult result;

  // Initialization happens on the caller thread, before the agent threads
  // exist, so no locking is needed for start(). Every agent is seeded with
  // one unit of credit (it is "initially active"); whatever its initial
  // sends don't carry away is returned immediately.
  for (std::size_t i = 0; i < impl.agents.size(); ++i) {
    CreditPool pool;
    pool.add(0);
    Impl::RuntimeSink sink(impl, impl.agents[i]->id(), pool);
    impl.agents[i]->start(sink);
    impl.agents[i]->take_checks();
    impl.values[i].store(impl.agents[i]->current_value(), std::memory_order_release);
    impl.idle[i].store(true, std::memory_order_release);
    impl.ledger.deposit(pool.drain());
  }

  std::vector<std::thread> threads;
  threads.reserve(impl.agents.size());
  for (std::size_t i = 0; i < impl.agents.size(); ++i) {
    threads.emplace_back([&impl, i] { impl.agent_loop(i); });
  }

  // With losses and heartbeats the system never quiesces, so termination
  // detection cannot signal success; validate the published snapshot
  // directly instead (a satisfying snapshot is a correct witness whatever
  // the protocol state).
  const bool refresh_active =
      impl.plan != nullptr && impl.config.faults.refresh_interval > 0;
  const auto refresh_period =
      std::chrono::milliseconds(impl.config.faults.refresh_interval);
  auto next_beat = std::chrono::steady_clock::now() + refresh_period;

  const auto deadline = std::chrono::steady_clock::now() + impl.config.timeout;
  bool timed_out = false;
  // Under faults the agents keep moving until the threads are joined, so a
  // satisfying snapshot must be captured the moment it is observed.
  FullAssignment witness;
  for (;;) {
    if (impl.insoluble.load(std::memory_order_acquire)) {
      result.metrics.insoluble = true;
      break;
    }
    if (refresh_active) {
      FullAssignment snap = impl.snapshot();
      if (impl.problem.is_solution(snap)) {
        result.metrics.solved = true;
        witness = std::move(snap);
        break;
      }
    }
    if (impl.detected_terminated()) {
      if (impl.snapshot_is_solution()) {
        result.metrics.solved = true;
        break;
      }
      // Terminated but unsolved: for complete algorithms this cannot
      // persist; re-check shortly in case we raced a final message.
    }
    const auto now = std::chrono::steady_clock::now();
    if (now > deadline) {
      timed_out = true;
      break;
    }
    if (refresh_active && now >= next_beat) {
      for (auto& box : impl.mailboxes) {
        box.push(Letter{MessagePayload{}, {}, /*heartbeat=*/true});
      }
      impl.heartbeat_rounds.fetch_add(1, std::memory_order_relaxed);
      next_beat += refresh_period;
    }
    if (impl.retransmit != nullptr) {
      // The monitor owns the retransmission timer: resend every frame whose
      // ack deadline has passed, as uncounted transport letters.
      for (const recovery::RetransmitBuffer::Due& d :
           impl.retransmit->collect_due(impl.now_us())) {
        impl.push_transport(d.from, d.to,
                            Letter{*d.payload, {}, /*heartbeat=*/false, d.from,
                                   d.seq, /*ack_of=*/0, /*counted=*/false});
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  impl.stop.store(true, std::memory_order_release);
  for (auto& box : impl.mailboxes) box.wake();
  for (auto& t : threads) t.join();

  result.metrics.timed_out = timed_out;
  result.metrics.cycles =
      static_cast<int>(impl.processed.load(std::memory_order_acquire));
  FullAssignment a(static_cast<std::size_t>(impl.problem.num_variables()), kNoValue);
  for (std::size_t i = 0; i < impl.agents.size(); ++i) {
    a[static_cast<std::size_t>(impl.agents[i]->variable())] = impl.agents[i]->current_value();
    result.metrics.total_checks += impl.agents[i]->take_checks();
    add_agent_counters(*impl.agents[i], result.metrics);
  }
  if (!witness.empty()) a = std::move(witness);
  result.metrics.maxcck = result.metrics.total_checks;
  result.metrics.messages = impl.send_attempts.load(std::memory_order_acquire);
  result.metrics.refresh_messages =
      impl.refresh_messages.load(std::memory_order_acquire);
  result.metrics.heartbeats = impl.heartbeat_rounds.load(std::memory_order_acquire);
  set_channel_counters(impl.plan.get(), impl.retransmit.get(), impl.guard.get(),
                       result.metrics);
  if (impl.monitor != nullptr) {
    // Credit conservation (invariant b), checked after every thread has
    // joined so the counts are race-free: the ledger must never hold more
    // than one unit per agent, and "terminated" must not coexist with
    // unprocessed credited letters.
    std::uint64_t credited_backlog = 0;
    for (const auto& box : impl.mailboxes) {
      credited_backlog += box.credited_pending();
    }
    impl.monitor->check_credit(impl.ledger.recovered(),
                               static_cast<int>(impl.agents.size()),
                               impl.ledger.terminated(), credited_backlog,
                               impl.now_us());
    result.metrics.monitor = impl.monitor->summary();
  }
  result.assignment = std::move(a);
  return result;
}

bool ThreadRuntime::credit_fully_recovered() const {
  return impl_->ledger.terminated();
}

}  // namespace discsp::sim
