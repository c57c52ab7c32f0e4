// Asynchronous (random message delay) simulator.
//
// The paper's algorithms are designed for fully asynchronous systems and are
// only *measured* on a synchronous simulator for simplicity (§4). This
// engine models the asynchronous case deterministically: each message gets a
// random latency in [min_delay, max_delay] while per-channel FIFO order is
// preserved, and agents are activated one delivery at a time. Used by tests
// to show the algorithms still solve (the paper's §5 future-work analysis).
//
// The engine is an AgentHost (sim/agent_host.h) plus a virtual-time event
// queue: the host runs the send, delivery and repair pipeline shared with
// the serve worker, and the engine adds latency, per-channel FIFO floors,
// the snapshot solution test and termination. With a fault plan
// (config.faults, see sim/fault.h) messages are dropped, duplicated,
// reordered, delayed and corrupted, receivers crash-restart (or amnesia-
// crash), and periodic anti-entropy heartbeats repair the losses. With
// config.retransmit enabled on top of a fault plan, tracked sends are acked
// and retransmitted under backoff (see recovery/retransmit.h), and the
// heartbeat stays as the low-rate fallback for sends the detector gave up
// on. A disabled fault config leaves every code path and random draw
// identical to the fault-free engine.
#pragma once

#include <memory>
#include <vector>

#include "common/rng.h"
#include "sim/agent_host.h"

namespace discsp::sim {

struct AsyncConfig {
  int min_delay = 1;
  int max_delay = 10;
  /// Activation cap (an activation = one message delivery + compute; with
  /// faults enabled, heartbeat rounds and crash-restarts also count).
  std::uint64_t max_activations = 2'000'000;
  /// Fault injection; FaultConfig{}.enabled() == false means "reliable".
  FaultConfig faults;
  /// Failure detector (ack/retransmit) in virtual-time units; only active
  /// when the fault plan is (without faults nothing can be lost).
  recovery::RetransmitConfig retransmit;
  /// Online protocol-invariant monitor (see sim/monitor.h). Independent of
  /// the fault plan: it can watch fault-free runs too, draws no randomness,
  /// and never changes a run's outcome.
  MonitorConfig monitor;
};

class AsyncEngine {
 public:
  AsyncEngine(const Problem& problem, std::vector<std::unique_ptr<Agent>> agents,
              AsyncConfig config, Rng rng);

  /// Run to solution / insolubility / quiescence / activation cap. In the
  /// returned metrics, `cycles` is the number of activations and `maxcck`
  /// equals `total_checks` (there is no global cycle to maximize over).
  RunResult run();

  /// Virtual time of the last delivered message.
  std::int64_t virtual_time() const { return host_.now(); }

 private:
  const Problem& problem_;
  AsyncConfig config_;
  Rng rng_;
  /// Present only when config_.monitor.enabled.
  std::unique_ptr<InvariantMonitor> monitor_;
  AgentHost host_;
};

}  // namespace discsp::sim
