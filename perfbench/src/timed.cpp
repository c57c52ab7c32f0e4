#include "timed.h"

#include <variant>

#include "common/hash.h"
#include "net/netframe.h"

namespace perfbench {

// ----- TimedAgent -----------------------------------------------------------

TimedAgent::TimedAgent(std::unique_ptr<sim::Agent> inner, AgentLayer& layer)
    : inner_(std::move(inner)), layer_(layer) {}

AgentId TimedAgent::id() const { return inner_->id(); }
VarId TimedAgent::variable() const { return inner_->variable(); }
Value TimedAgent::current_value() const { return inner_->current_value(); }
void TimedAgent::start(sim::MessageSink& out) { inner_->start(out); }

void TimedAgent::receive(const sim::MessagePayload& msg) {
  if (receives_++ == 0) receive_start_ = now_ns();
  inner_->receive(msg);
}

void TimedAgent::compute(sim::MessageSink& out) {
  const std::int64_t start = now_ns();
  if (receives_ > 0) {
    layer_.receive.add(start - receive_start_, receives_);
    spans::record(layer_.receive_name, receive_start_, start);
    receives_ = 0;
  }
  Scoped span(layer_.compute_name, layer_.compute, start);
  inner_->compute(out);
}

std::uint64_t TimedAgent::take_checks() { return inner_->take_checks(); }
bool TimedAgent::detected_insoluble() const { return inner_->detected_insoluble(); }
void TimedAgent::crash_restart(sim::MessageSink& out) { inner_->crash_restart(out); }
void TimedAgent::amnesia_restart(sim::MessageSink& out) { inner_->amnesia_restart(out); }
void TimedAgent::on_heartbeat(sim::MessageSink& out) { inner_->on_heartbeat(out); }
void TimedAgent::set_seq_floor(std::uint64_t floor) { inner_->set_seq_floor(floor); }
std::uint64_t TimedAgent::nogoods_generated() const { return inner_->nogoods_generated(); }
std::uint64_t TimedAgent::redundant_generations() const {
  return inner_->redundant_generations();
}
bool TimedAgent::export_capsule(recovery::Checkpoint& out) const {
  return inner_->export_capsule(out);
}
void TimedAgent::import_capsule(const recovery::Checkpoint& state,
                                sim::MessageSink& out) {
  inner_->import_capsule(state, out);
}
std::uint64_t TimedAgent::learned_count() const { return inner_->learned_count(); }
std::uint64_t TimedAgent::announce_seq() const { return inner_->announce_seq(); }
std::uint64_t TimedAgent::work_ops() const { return inner_->work_ops(); }
sim::Agent::RecoveryStats TimedAgent::recovery_stats() const {
  return inner_->recovery_stats();
}

std::vector<std::unique_ptr<sim::Agent>> wrap_agents(
    std::vector<std::unique_ptr<sim::Agent>> agents, AgentLayer& layer) {
  for (auto& agent : agents) {
    agent = std::make_unique<TimedAgent>(std::move(agent), layer);
  }
  return agents;
}

// ----- TimedStrategy --------------------------------------------------------

TimedStrategy::TimedStrategy(std::unique_ptr<learning::LearningStrategy> inner,
                             LearnLayer& layer)
    : inner_(std::move(inner)), layer_(layer) {}

std::string TimedStrategy::name() const { return inner_->name(); }

std::optional<Nogood> TimedStrategy::learn(const learning::DeadendContext& ctx,
                                           std::uint64_t& checks) {
  const std::uint64_t before = checks;
  std::optional<Nogood> learned;
  {
    Scoped span("learning.learn", layer_.learn);
    learned = inner_->learn(ctx, checks);
  }
  layer_.extra_checks.fetch_add(checks - before, std::memory_order_relaxed);
  if (learned.has_value()) {
    layer_.nogoods.fetch_add(1, std::memory_order_relaxed);
    layer_.nogood_literals.fetch_add(learned->size(), std::memory_order_relaxed);
  }
  return learned;
}

std::size_t TimedStrategy::record_bound() const { return inner_->record_bound(); }

std::unique_ptr<learning::LearningStrategy> TimedStrategy::clone() const {
  return std::make_unique<TimedStrategy>(inner_->clone(), layer_);
}

// ----- net decorators -------------------------------------------------------

void ConnStats::merge(const ConnStats& other) {
  send_ns += other.send_ns;
  recv_ns += other.recv_ns;
  pump_ns += other.pump_ns;
  close_ns += other.close_ns;
  sends += other.sends;
  bytes_sent += other.bytes_sent;
  pumps += other.pumps;
  productive_pumps += other.productive_pumps;
  for (std::size_t k = 0; k < kNumKinds; ++k) sent_kinds[k] += other.sent_kinds[k];
  routes_received += other.routes_received;
}

void HopClock::on_route_sent(std::uint64_t key, std::int64_t at_ns) {
  std::lock_guard lock(mutex_);
  in_flight_.emplace(key, at_ns);  // a retransmitted copy keeps the first send
}

void HopClock::on_route_received(std::uint64_t key, std::int64_t at_ns) {
  std::lock_guard lock(mutex_);
  const auto it = in_flight_.find(key);
  if (it == in_flight_.end()) return;  // a duplicate whose first copy landed
  samples_.push_back(at_ns - it->second);
  in_flight_.erase(it);
}

std::vector<std::int64_t> HopClock::samples() const {
  std::lock_guard lock(mutex_);
  return samples_;
}

std::shared_ptr<ConnStats> NetTrace::register_connection(Role role) {
  auto stats = std::make_shared<ConnStats>();
  stats->role = role;
  std::lock_guard lock(mutex_);
  connections_.push_back(stats);
  return stats;
}

ConnStats NetTrace::totals(Role role) const {
  ConnStats total;
  total.role = role;
  std::lock_guard lock(mutex_);
  for (const auto& conn : connections_) {
    if (conn->role == role) total.merge(*conn);
  }
  return total;
}

namespace {

FrameKind kind_of(const net::NetFrame& frame) {
  if (std::holds_alternative<net::NetRoute>(frame)) return kRoute;
  if (std::holds_alternative<net::NetAck>(frame)) return kAck;
  if (std::holds_alternative<net::NetStats>(frame)) return kStats;
  if (std::holds_alternative<net::NetPing>(frame) ||
      std::holds_alternative<net::NetPong>(frame)) {
    return kPing;
  }
  return kOther;
}

/// Identity of one routed agent frame, equal at both ends of a hop.
std::uint64_t route_key(const net::NetRoute& route) {
  std::uint64_t h = discsp::kFnvOffsetBasis;
  h = discsp::fnv1a64_word(h, static_cast<std::uint64_t>(route.from));
  h = discsp::fnv1a64_word(h, static_cast<std::uint64_t>(route.to));
  h = discsp::fnv1a64_word(h, route.track_seq);
  h = discsp::fnv1a64_word(h, route.frame.size());
  if (!route.frame.empty()) h = discsp::fnv1a64_word(h, route.frame.back());
  return h;
}

}  // namespace

TimedConnection::TimedConnection(std::unique_ptr<net::Connection> inner,
                                 NetTrace& trace, Role role)
    : inner_(std::move(inner)), trace_(trace), stats_(trace.register_connection(role)) {}

bool TimedConnection::send(const net::WireFrame& frame) {
  const std::int64_t start = now_ns();
  const bool accepted = inner_->send(frame);
  const std::int64_t end = now_ns();
  stats_->send_ns += end - start;
  spans::record("net.send", start, end);
  ++stats_->sends;
  stats_->bytes_sent += frame.size() * sizeof(std::uint64_t);
  const net::NetDecodeResult decoded = net::decode_net_frame(frame);
  if (!decoded.ok()) {
    ++stats_->sent_kinds[kUndecodable];
    return accepted;
  }
  const FrameKind kind = kind_of(*decoded.frame);
  ++stats_->sent_kinds[kind];
  if (kind == kRoute && stats_->role == Role::kWorker) {
    trace_.hops().on_route_sent(route_key(std::get<net::NetRoute>(*decoded.frame)),
                                start);
  }
  return accepted;
}

bool TimedConnection::recv(net::WireFrame& frame) {
  const std::int64_t start = now_ns();
  const bool got = inner_->recv(frame);
  const std::int64_t end = now_ns();
  stats_->recv_ns += end - start;
  if (!got) return false;
  if (pumped_) {
    ++stats_->productive_pumps;
    pumped_ = false;
  }
  if (stats_->role == Role::kWorker) {
    const net::NetDecodeResult decoded = net::decode_net_frame(frame);
    if (decoded.ok()) {
      if (const auto* route = std::get_if<net::NetRoute>(&*decoded.frame)) {
        ++stats_->routes_received;
        trace_.hops().on_route_received(route_key(*route), end);
      }
    }
  }
  return true;
}

void TimedConnection::pump(int timeout_ms) {
  const std::int64_t start = now_ns();
  inner_->pump(timeout_ms);
  const std::int64_t end = now_ns();
  stats_->pump_ns += end - start;
  spans::record("net.pump", start, end);
  ++stats_->pumps;
  pumped_ = true;
}

bool TimedConnection::open() const { return inner_->open(); }

void TimedConnection::close() {
  const std::int64_t start = now_ns();
  inner_->close();
  const std::int64_t end = now_ns();
  stats_->close_ns += end - start;
  spans::record("net.close", start, end);
}

std::uint64_t TimedConnection::dropped_frames() const { return inner_->dropped_frames(); }

TimedListener::TimedListener(std::unique_ptr<net::Listener> inner, NetTrace& trace)
    : inner_(std::move(inner)), trace_(trace) {}

std::unique_ptr<net::Connection> TimedListener::accept() {
  std::unique_ptr<net::Connection> conn;
  {
    Scoped span("net.accept", trace_.accept);
    conn = inner_->accept();
  }
  if (conn == nullptr) return nullptr;
  return std::make_unique<TimedConnection>(std::move(conn), trace_, Role::kCoordinator);
}

int TimedListener::port() const { return inner_->port(); }

TimedTransport::TimedTransport(net::Transport& inner, NetTrace& trace)
    : inner_(inner), trace_(trace) {}

std::unique_ptr<net::Listener> TimedTransport::listen(const std::string& endpoint) {
  return std::make_unique<TimedListener>(inner_.listen(endpoint), trace_);
}

std::unique_ptr<net::Connection> TimedTransport::connect(const std::string& endpoint,
                                                         int timeout_ms) {
  std::unique_ptr<net::Connection> conn;
  {
    Scoped span("net.connect", trace_.connect);
    conn = inner_.connect(endpoint, timeout_ms);
  }
  if (conn == nullptr) return nullptr;
  return std::make_unique<TimedConnection>(std::move(conn), trace_, Role::kWorker);
}

}  // namespace perfbench
