// Frame transport abstraction of the multi-process runtime.
//
// The coordinator and its workers exchange sealed WireFrames over
// Connections. Two implementations share the interface:
//
//   InProcTransport — ring pipes inside one process: each direction of a
//     connection is a lock-free SPSC ring with a mutexed overflow spill.
//     Workers run as threads; tests drive kill/restart scenarios
//     deterministically (WorkerConfig::exit_after_ms) without sockets, and
//     `discsp_cli serve` without --listen uses it to run a whole
//     distributed solve in-process. It has one carrier and no knobs.
//
//   TcpTransport (net/tcp_transport.h) — nonblocking TCP sockets with
//     length-prefixed framing, for genuinely separate worker processes.
//     Its coalescing is tuned by BatchConfig.
//
// All calls are nonblocking except pump(), which drives I/O and may wait up
// to its timeout for inbound frames. One Connection may be used by one
// thread at a time; distinct Connections of one transport are independent.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "sim/message.h"

namespace discsp::net {

using sim::WireFrame;

/// TcpTransport's send coalescing. Batching is invisible to the logical
/// frame stream: frame boundaries, ordering, checksums, fault injection and
/// quarantine all operate per frame exactly as before — only the cost of
/// moving frames changes (one sendmsg for many frames). `unbatched()`
/// flushes on every send, the comparison baseline of bench_net_throughput.
struct BatchConfig {
  /// Frames coalesced per flush (>= 1; 1 = unbatched). 64 amortizes one
  /// sendmsg + one receiver wakeup over a full scheduling quantum of
  /// steady-state traffic while staying well inside max_bytes.
  int max_frames = 64;
  /// Byte budget per coalesced flush; reaching it forces a flush early.
  std::size_t max_bytes = 64 * 1024;
  /// Deadline in microseconds after the first deferred frame by which a
  /// flush must happen even if neither budget fills (bounded latency).
  std::int64_t flush_us = 200;
  /// Budget in milliseconds close() may spend flushing buffered writes so
  /// terminal ERROR/STOP frames reach the peer before the FIN (TCP only;
  /// 0 = close immediately). Applies to batched and unbatched connections
  /// alike — slow CI machines raise it instead of racing the flush.
  std::int64_t close_flush_ms = 50;

  static BatchConfig unbatched() {
    BatchConfig config;
    config.max_frames = 1;
    config.max_bytes = 0;
    config.flush_us = 0;
    return config;  // close_flush_ms keeps its default: closing is not batching
  }
};

class Connection {
 public:
  virtual ~Connection() = default;

  /// Queue one frame for delivery; returns false (frame discarded) once the
  /// connection is closed. A true return means "accepted", not "delivered" —
  /// the peer may still die with the frame in flight.
  virtual bool send(const WireFrame& frame) = 0;

  /// Pop the next inbound frame without blocking; false when none is ready.
  virtual bool recv(WireFrame& frame) = 0;

  /// Drive I/O, waiting up to `timeout_ms` for inbound frames (0 = poll).
  /// TCP connections also flush pending writes here.
  virtual void pump(int timeout_ms) = 0;

  virtual bool open() const = 0;
  virtual void close() = 0;

  /// Frames this connection refused to buffer (send-side high-water bound;
  /// see TcpConnection). 0 for transports without backpressure limits.
  virtual std::uint64_t dropped_frames() const { return 0; }
};

class Listener {
 public:
  virtual ~Listener() = default;

  /// Accept one pending connection; nullptr when none is waiting.
  virtual std::unique_ptr<Connection> accept() = 0;

  /// The concrete local port (TCP; 0 for in-proc). Lets `--listen host:0`
  /// bind an ephemeral port and report it (--port-file).
  virtual int port() const { return 0; }
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Bind `endpoint` and start accepting. Throws std::runtime_error when the
  /// endpoint cannot be bound.
  virtual std::unique_ptr<Listener> listen(const std::string& endpoint) = 0;

  /// Connect to `endpoint`, waiting up to `timeout_ms` for the peer to
  /// accept; nullptr on failure (the reconnect policy retries with backoff).
  virtual std::unique_ptr<Connection> connect(const std::string& endpoint,
                                              int timeout_ms) = 0;
};

/// In-process transport: endpoints are arbitrary names, connections are
/// ring pipes. Thread-safe; one instance is shared by the coordinator thread
/// and every worker thread. connect() waits for a listener of that name to
/// appear (workers may start before the coordinator binds).
class InProcTransport final : public Transport {
 public:
  InProcTransport();

  std::unique_ptr<Listener> listen(const std::string& endpoint) override;
  std::unique_ptr<Connection> connect(const std::string& endpoint,
                                      int timeout_ms) override;

  /// Shared registry of named listeners (opaque; defined in transport.cpp,
  /// public so the listener implementation can deregister itself).
  struct State;

 private:
  std::shared_ptr<State> state_;
};

}  // namespace discsp::net
