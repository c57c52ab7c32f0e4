// Forwarding decorators that time the library's public interfaces from
// outside: sim::Agent (receive/compute), learning::LearningStrategy (learn)
// and net::Transport / Listener / Connection (send/recv/pump). Each forwards
// every virtual to the wrapped object unchanged, so a decorated run computes
// exactly what an undecorated one does; only the clock reads are added.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "learning/strategy.h"
#include "net/transport.h"
#include "sim/agent.h"
#include "trace.h"

namespace perfbench {

namespace learning = discsp::learning;
namespace net = discsp::net;
namespace recovery = discsp::recovery;
namespace sim = discsp::sim;
using discsp::AgentId;
using discsp::Nogood;
using discsp::Value;
using discsp::VarId;

// ----- sim::Agent -----------------------------------------------------------

/// Span names and accumulators of one algorithm's agents.
struct AgentLayer {
  const char* receive_name;
  const char* compute_name;
  Accum receive;
  Accum compute;
};

/// Times receive() and compute(). The receive() calls between two compute()
/// calls (one sync-engine cycle's inbox, or one async delivery) are timed as
/// one span, from the first receive to the compute: per-message clock reads
/// would cost more than a message does.
class TimedAgent final : public sim::Agent {
 public:
  TimedAgent(std::unique_ptr<sim::Agent> inner, AgentLayer& layer);

  const sim::Agent& inner() const { return *inner_; }

  AgentId id() const override;
  VarId variable() const override;
  Value current_value() const override;
  void start(sim::MessageSink& out) override;
  void receive(const sim::MessagePayload& msg) override;
  void compute(sim::MessageSink& out) override;
  std::uint64_t take_checks() override;
  bool detected_insoluble() const override;
  void crash_restart(sim::MessageSink& out) override;
  void amnesia_restart(sim::MessageSink& out) override;
  void on_heartbeat(sim::MessageSink& out) override;
  void set_seq_floor(std::uint64_t floor) override;
  std::uint64_t nogoods_generated() const override;
  std::uint64_t redundant_generations() const override;
  bool export_capsule(recovery::Checkpoint& out) const override;
  void import_capsule(const recovery::Checkpoint& state,
                      sim::MessageSink& out) override;
  std::uint64_t learned_count() const override;
  std::uint64_t announce_seq() const override;
  std::uint64_t work_ops() const override;
  RecoveryStats recovery_stats() const override;

 private:
  std::unique_ptr<sim::Agent> inner_;
  AgentLayer& layer_;
  std::int64_t receive_start_ = -1;  ///< first receive() since the last compute()
  std::uint64_t receives_ = 0;       ///< receive() calls since the last compute()
};

/// Wrap every agent of a population in a TimedAgent.
std::vector<std::unique_ptr<sim::Agent>> wrap_agents(
    std::vector<std::unique_ptr<sim::Agent>> agents, AgentLayer& layer);

// ----- learning::LearningStrategy ------------------------------------------

struct LearnLayer {
  Accum learn;
  std::atomic<std::uint64_t> extra_checks{0};     ///< the `checks` out-parameter
  std::atomic<std::uint64_t> nogoods{0};          ///< learn() calls that returned one
  std::atomic<std::uint64_t> nogood_literals{0};  ///< Σ size of those nogoods
};

class TimedStrategy final : public learning::LearningStrategy {
 public:
  TimedStrategy(std::unique_ptr<learning::LearningStrategy> inner, LearnLayer& layer);

  std::string name() const override;
  std::optional<Nogood> learn(const learning::DeadendContext& ctx,
                              std::uint64_t& checks) override;
  std::size_t record_bound() const override;
  /// Clones the wrapped strategy and keeps timing it into the same layer.
  std::unique_ptr<learning::LearningStrategy> clone() const override;

 private:
  std::unique_ptr<learning::LearningStrategy> inner_;
  LearnLayer& layer_;
};

// ----- net::Transport ------------------------------------------------------

/// Which end of a coordinator-worker link a connection is.
enum class Role { kCoordinator, kWorker };

/// Net frame kinds counted at the sender, from decode_net_frame.
enum FrameKind : std::size_t { kRoute, kAck, kStats, kPing, kOther, kUndecodable, kNumKinds };

/// Per-connection counters. A connection is used by one thread at a time, so
/// these are plain integers, read only after every thread has been joined.
struct ConnStats {
  Role role = Role::kWorker;
  std::int64_t send_ns = 0;
  std::int64_t recv_ns = 0;
  std::int64_t pump_ns = 0;   ///< time inside pump(), which waits for input
  std::int64_t close_ns = 0;
  std::uint64_t sends = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t pumps = 0;
  std::uint64_t productive_pumps = 0;  ///< pumps followed by >= 1 received frame
  std::array<std::uint64_t, kNumKinds> sent_kinds{};
  std::uint64_t routes_received = 0;  ///< route frames recv() returned

  std::int64_t call_ns() const { return send_ns + recv_ns + pump_ns + close_ns; }
  void merge(const ConnStats& other);
};

/// Sender-worker -> coordinator -> receiver-worker latency of routed frames,
/// matched on (from, to, track seq, payload checksum) of the decoded route.
class HopClock {
 public:
  void on_route_sent(std::uint64_t key, std::int64_t at_ns);
  void on_route_received(std::uint64_t key, std::int64_t at_ns);
  /// Hop latencies in ns, unsorted.
  std::vector<std::int64_t> samples() const;

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, std::int64_t> in_flight_;  // guarded by mutex_
  std::vector<std::int64_t> samples_;                          // guarded by mutex_
};

/// Everything the net decorators of one run record.
class NetTrace {
 public:
  std::shared_ptr<ConnStats> register_connection(Role role);
  /// Sum over the connections of one role.
  ConnStats totals(Role role) const;
  HopClock& hops() { return hops_; }

  Accum serve;    ///< net::serve calls (the coordinator thread's wall)
  Accum worker;   ///< net::run_worker calls (each worker thread's wall)
  Accum accept;   ///< Listener::accept calls (coordinator side)
  Accum connect;  ///< Transport::connect calls (worker side)

 private:
  mutable std::mutex mutex_;
  std::vector<std::shared_ptr<ConnStats>> connections_;  // guarded by mutex_
  HopClock hops_;
};

class TimedConnection final : public net::Connection {
 public:
  TimedConnection(std::unique_ptr<net::Connection> inner, NetTrace& trace, Role role);

  bool send(const net::WireFrame& frame) override;
  bool recv(net::WireFrame& frame) override;
  void pump(int timeout_ms) override;
  bool open() const override;
  void close() override;
  std::uint64_t dropped_frames() const override;

 private:
  std::unique_ptr<net::Connection> inner_;
  NetTrace& trace_;
  std::shared_ptr<ConnStats> stats_;
  bool pumped_ = false;
};

class TimedListener final : public net::Listener {
 public:
  TimedListener(std::unique_ptr<net::Listener> inner, NetTrace& trace);

  std::unique_ptr<net::Connection> accept() override;
  int port() const override;

 private:
  std::unique_ptr<net::Listener> inner_;
  NetTrace& trace_;
};

/// Connections it makes are worker-side; listeners it binds hand out
/// coordinator-side connections.
class TimedTransport final : public net::Transport {
 public:
  TimedTransport(net::Transport& inner, NetTrace& trace);

  std::unique_ptr<net::Listener> listen(const std::string& endpoint) override;
  std::unique_ptr<net::Connection> connect(const std::string& endpoint,
                                           int timeout_ms) override;

 private:
  net::Transport& inner_;
  NetTrace& trace_;
};

}  // namespace perfbench
