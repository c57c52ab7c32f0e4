// The worker side of the multi-process runtime (docs/NETWORK.md).
//
// run_worker connects to the coordinator, handshakes (HELLO/WELCOME/JOB),
// hosts the agents of its assigned shard in a sim::AgentHost, and runs the
// event loop until the coordinator says STOP. The host is the same send,
// delivery and repair pipeline AsyncEngine runs (seeded FaultPlan, sealed
// frames and admission, ack/retransmit, heartbeats); the worker adds its
// carrier (an egress heap, ROUTE frames, batched ACK frames), NetStats
// reports and the control plane (adopt, release, reconcile).
//
// A lost connection parks the worker "orphaned": its agents stay warm and
// its timers keep running, outbound remote frames collect in a bounded
// buffer (overflow counts as backpressure_drops and is repaired by
// retransmission), and the worker re-rendezvouses on the ReconnectPolicy
// backoff, re-reading the coordinator's port file before every attempt so
// it finds a restarted coordinator on a fresh port. A WELCOME from a
// coordinator incarnation older than one already seen is refused as a
// stale zombie. A worker process death is the coordinator's problem: the
// replacement attaches, receives restart=true plus seq floors, rebuilds its
// shard and recovers via crash_restart.
#pragma once

#include <cstdint>
#include <string>

#include "net/netframe.h"
#include "net/transport.h"
#include "recovery/retransmit.h"
#include "sim/metrics.h"

namespace discsp::net {

struct WorkerConfig {
  /// Coordinator endpoint (transport-specific).
  std::string endpoint;
  /// Requested shard; kAnyShard lets the coordinator assign one.
  std::uint64_t shard = kAnyShard;

  int connect_timeout_ms = 1000;
  /// Connection attempts (initial + reconnects) before giving up.
  int max_connect_attempts = 30;
  /// Reconnect backoff schedule; ack_timeout is the base delay in ms
  /// (0 = the ReconnectPolicy's 100 ms default).
  recovery::RetransmitConfig reconnect;
  std::uint64_t reconnect_seed = 0x5eed;
  /// Give up when WELCOME/JOB do not arrive within this window.
  std::int64_t handshake_timeout_ms = 5000;

  /// Chaos knob for deterministic in-proc kill tests: vanish abruptly — no
  /// STOP handshake, no final stats, exactly like a SIGKILL — this many ms
  /// after the first successful attach. 0 = off.
  std::int64_t exit_after_ms = 0;

  /// When nonempty: re-read this file before every (re)connect attempt and
  /// dial `host`:<its contents> instead of `endpoint` — the re-rendezvous
  /// point with a restarted coordinator. A missing or truncated file (the
  /// coordinator is down, or mid-write) is one failed attempt, retried on
  /// the backoff schedule.
  std::string port_file;
  std::string host = "127.0.0.1";
  /// Outbound remote frames parked while orphaned; overflow beyond this is
  /// dropped (counted in backpressure_drops, repaired by retransmission).
  int orphan_capacity = 1024;
};

struct WorkerResult {
  /// True when the coordinator ended the run with STOP.
  bool completed = false;
  StopReason stop = StopReason::kShutdown;
  /// True when exit_after_ms fired (simulated kill).
  bool killed = false;
  /// Nonempty on connect/handshake/protocol failure.
  std::string error;
  int reconnects = 0;
  /// The worker exhausted its reconnect budget (orphaned, coordinator never
  /// came back). CLI callers exit with a distinct code on this.
  bool gave_up = false;
  /// Human-readable final re-rendezvous verdict when gave_up is set
  /// (attempts, orphaned duration, last endpoint tried).
  std::string verdict;
  /// This worker's local lifetime counters (the same numbers its final
  /// NetStats reported).
  sim::RunMetrics metrics;
};

WorkerResult run_worker(Transport& transport, const WorkerConfig& config);

}  // namespace discsp::net
