#include "net/worker.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <memory>
#include <queue>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "net/clock.h"
#include "net/jobspec.h"
#include "net/supervisor.h"
#include "recovery/capsule.h"
#include "sim/agent.h"
#include "sim/fault.h"

namespace discsp::net {

namespace {

/// One frame copy awaiting dispatch: a local delivery or a route to the
/// coordinator, possibly held back by a delay spike.
struct Unit {
  std::int64_t due_ms = 0;
  std::uint64_t order = 0;  // FIFO tie-break
  AgentId from = kNoAgent;
  AgentId to = kNoAgent;
  sim::MessagePayload payload;  // the clean payload
  WireFrame frame;              // sealed frame (maybe corrupted); may be empty
                                // for local deliveries on the corruption-free path
  std::uint64_t track_seq = 0;
};

struct UnitLater {
  bool operator()(const Unit& a, const Unit& b) const {
    return std::tie(a.due_ms, a.order) > std::tie(b.due_ms, b.order);
  }
};

class Worker {
 public:
  Worker(Transport& transport, const WorkerConfig& config)
      : transport_(transport),
        config_(config),
        reconnect_(config.reconnect, config.reconnect_seed) {}

  WorkerResult run() {
    if (!connect_and_handshake()) return finish();
    while (true) {
      const std::int64_t now = now_ms();
      if (config_.exit_after_ms > 0 && attach_ms_ >= 0 &&
          now - attach_ms_ >= config_.exit_after_ms) {
        // Simulated SIGKILL: vanish without a final report. The state dies
        // here; the coordinator's supervisor notices the silence.
        result_.killed = true;
        return finish();
      }
      if (conn_ != nullptr && conn_->open()) {
        conn_->pump(static_cast<int>(wait_ms(now)));
        drain_frames();
        if (stopping_) return finish();
      }
      if (conn_ == nullptr || !conn_->open()) {
        // Orphaned: the coordinator is gone. Local search state stays warm
        // (tick() below keeps every timer running) while re-rendezvous
        // proceeds on the backoff schedule.
        if (!orphan_step()) return finish();
      }
      tick(now_ms());
    }
  }

 private:
  // ----- connection management ------------------------------------------

  /// Where to dial right now: the fixed endpoint, or host:<port file> —
  /// re-read every attempt so a restarted coordinator on a fresh ephemeral
  /// port is found. "" = no endpoint available this attempt (file missing
  /// or torn mid-write; the backoff retries).
  std::string resolve_endpoint() const {
    if (config_.port_file.empty()) return config_.endpoint;
    std::ifstream in(config_.port_file);
    if (!in) return "";
    std::string token;
    in >> token;
    if (token.empty() ||
        !std::all_of(token.begin(), token.end(),
                     [](unsigned char c) { return std::isdigit(c); })) {
      return "";  // truncated/garbled write in progress
    }
    return config_.host + ":" + token;
  }

  std::string endpoint_label() const {
    return config_.port_file.empty() ? config_.endpoint
                                     : "port file " + config_.port_file;
  }

  /// Blocking initial rendezvous (nothing to keep warm before the job).
  bool connect_and_handshake() {
    while (attempts_ < config_.max_connect_attempts) {
      if (attempts_ > 0) {
        const std::int64_t delay = reconnect_.next_delay_ms();
        std::this_thread::sleep_for(std::chrono::milliseconds(delay));
      }
      ++attempts_;
      if (try_attach()) return true;
      if (!result_.error.empty()) return false;  // fatal protocol answer
    }
    give_up();
    return false;
  }

  /// One connect + handshake attempt; resets the backoff on success.
  bool try_attach() {
    const std::string endpoint = resolve_endpoint();
    if (endpoint.empty()) return false;
    conn_ = transport_.connect(endpoint, config_.connect_timeout_ms);
    if (conn_ == nullptr) return false;
    if (handshake()) {
      reconnect_.reset();
      attempts_ = 0;
      if (orphaned_) {
        ++result_.reconnects;
        orphaned_ = false;
        drain_parked();
      }
      return true;
    }
    drop_connection();
    return false;
  }

  /// One non-blocking slice of orphaned life: schedule/execute reconnect
  /// attempts between ticks. False = the worker is done (budget exhausted
  /// or a fatal refusal).
  bool orphan_step() {
    const std::int64_t now = now_ms();
    if (!orphaned_) {
      orphaned_ = true;
      orphan_since_ = now;
      drop_connection();
      next_attempt_ms_ = now + reconnect_.next_delay_ms();
    }
    if (now < next_attempt_ms_) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      return true;
    }
    if (attempts_ >= config_.max_connect_attempts) {
      give_up();
      return false;
    }
    ++attempts_;
    if (try_attach()) return true;
    if (!result_.error.empty()) return false;  // fatal protocol answer
    next_attempt_ms_ = now_ms() + reconnect_.next_delay_ms();
    return true;
  }

  void give_up() {
    result_.gave_up = true;
    const std::int64_t orphaned_for =
        orphaned_ ? now_ms() - orphan_since_ : 0;
    result_.verdict = "coordinator presumed dead: " +
                      std::to_string(attempts_) + " attempts" +
                      (orphaned_ ? " over " + std::to_string(orphaned_for) +
                                       " ms orphaned"
                                 : "") +
                      " via " + endpoint_label();
    result_.error = "could not reach coordinator (" + result_.verdict + ")";
  }

  /// Retire the connection, folding its backpressure drops into the
  /// lifetime counters first.
  void drop_connection() {
    if (conn_ != nullptr) {
      metrics_.backpressure_drops += conn_->dropped_frames();
      conn_.reset();
    }
  }

  /// Send on the live connection, or park while orphaned. The parked buffer
  /// is bounded: overflow is dropped and counted — tracked frames are
  /// repaired by retransmission once reattached.
  void send_net(const WireFrame& frame) {
    if (conn_ != nullptr && conn_->open()) {
      conn_->send(frame);
      return;
    }
    if (parked_.size() < static_cast<std::size_t>(
                             std::max(config_.orphan_capacity, 0))) {
      parked_.push_back(frame);  // copy: only the rare orphaned path pays
    } else {
      ++metrics_.backpressure_drops;
    }
  }

  void drain_parked() {
    for (WireFrame& frame : parked_) conn_->send(frame);
    parked_.clear();
  }

  /// HELLO -> WELCOME -> JOB. Returns false on timeout (retry) and sets
  /// result_.error on a fatal answer (version/digest mismatch, no shard).
  bool handshake() {
    NetHello hello;
    hello.shard = shard_ == kAnyShard ? config_.shard : shard_;
    hello.digest = digest_;
    hello.coord_incarnation = coord_incarnation_;
    conn_->send(encode_net_frame(NetFrame{hello}));

    const std::int64_t deadline = now_ms() + config_.handshake_timeout_ms;
    bool welcomed = false;
    NetWelcome welcome;
    while (now_ms() < deadline && conn_->open()) {
      conn_->pump(10);
      WireFrame frame;
      while (conn_->recv(frame)) {
        const NetDecodeResult decoded = decode_net_frame(frame);
        if (!decoded.ok()) continue;
        if (const auto* err = std::get_if<NetError>(&*decoded.frame)) {
          if (err->code == NetErrorCode::kNoShard) {
            // Every slot is taken *right now* — typically a replacement
            // racing the coordinator's detection of the incarnation it is
            // replacing. Retry with backoff instead of giving up.
            return false;
          }
          if (err->code == NetErrorCode::kStaleCoordinator) {
            // We answered a *newer* coordinator than this one — it is the
            // zombie, not us. Keep retrying; the port file will lead back
            // to the live incarnation.
            return false;
          }
          result_.error = std::string("coordinator refused: code ") +
                          std::to_string(static_cast<int>(err->code));
          return false;
        }
        if (const auto* w = std::get_if<NetWelcome>(&*decoded.frame)) {
          if (w->proto != kNetProtoVersion) {
            result_.error = "protocol version mismatch";
            return false;
          }
          if (w->coord_incarnation < coord_incarnation_) {
            // A WELCOME from a coordinator incarnation older than one this
            // worker already served: a zombie predecessor still answering
            // its old socket. Refuse and retry toward the live one.
            return false;
          }
          welcome = *w;
          welcomed = true;
          continue;
        }
        if (const auto* job = std::get_if<NetJob>(&*decoded.frame)) {
          if (!welcomed) continue;  // JOB before WELCOME: ignore
          return load_job(welcome, job->text);
        }
        // Any other frame before the handshake completes is early traffic
        // from an optimistic coordinator; it is safe to drop (repairable).
      }
    }
    return false;
  }

  bool load_job(const NetWelcome& welcome, const std::string& text) {
    JobSpec spec;
    try {
      spec = parse_jobspec(text);
    } catch (const std::exception& e) {
      result_.error = std::string("bad job spec: ") + e.what();
      return false;
    }
    const std::uint64_t digest = jobspec_digest(spec);
    if (welcome.digest != 0 && digest != welcome.digest) {
      result_.error = "job spec digest does not match WELCOME";
      return false;
    }

    shard_ = welcome.shard;
    incarnation_ = welcome.incarnation;
    coord_incarnation_ = welcome.coord_incarnation;
    const bool rebuild = !job_loaded_ || digest != digest_;
    digest_ = digest;
    spec_ = std::move(spec);
    // The epoch anchors the fault-plan timeline and every retransmit
    // deadline; a socket-only reconnect must not shift it.
    if (rebuild) epoch_ms_ = now_ms();
    if (attach_ms_ < 0) attach_ms_ = now_ms();

    if (rebuild) {
      build_shard(welcome.restart);
    } else {
      // Socket-only reconnect of a surviving process: the job carries the
      // *current* ownership map, which may have shifted while we were
      // orphaned (false suspicion -> agents adopted away) or before an ADOPT
      // reached us (lost with the connection). Reconcile to it.
      reconcile_ownership();
    }
    // Seq floors are monotone: applying them to intact agents is a no-op,
    // applying them to rebuilt ones lifts their announcements above every
    // seq the coordinator ever routed for them.
    for (const auto& [agent, floor] : spec_.seq_floors) {
      if (auto* a = local_agent(agent)) a->set_seq_floor(floor);
    }
    if (!rebuild) {
      // Socket-only reconnect: agents survived, but traffic queued on the
      // old connection died. One re-announcement round resyncs the peers.
      for (auto& [id, agent] : local_) announce(*agent);
    }
    job_loaded_ = true;
    return true;
  }

  void build_shard(bool restart) {
    local_.clear();
    parked_.clear();  // frames parked for a job that no longer exists
    pending_acks().entries.clear();
    auto population = make_job_agents(spec_.bundle);
    for (auto& agent : population) {
      // Ownership, not home shard: a continuation job spec carries the
      // migration-adjusted owner map, so a replacement builds exactly the
      // agents the coordinator currently routes to this slot.
      if (spec_.owner_of(agent->id()) == static_cast<int>(shard_)) {
        local_.emplace(agent->id(), std::move(agent));
      }
    }
    num_agents_ = static_cast<int>(population.size());
    capsule_hash_.clear();

    const sim::FaultConfig& faults = spec_.bundle.faults;
    plan_ = faults.enabled()
                ? std::make_unique<sim::FaultPlan>(faults, num_agents_)
                : nullptr;
    retransmit_ = spec_.bundle.retransmit.enabled()
                      ? std::make_unique<recovery::RetransmitBuffer>(
                            spec_.bundle.retransmit, num_agents_)
                      : nullptr;
    limits_ = std::make_unique<sim::WireLimits>(sim::wire_limits_for(
        spec_.bundle.instance.problem(), num_agents_));
    guard_ = std::make_unique<sim::ChannelGuard>(num_agents_,
                                                 faults.quarantine_budget,
                                                 faults.quarantine_duration);
    metrics_ = {};
    egress_ = {};
    next_heartbeat_ms_ = heartbeat_period() > 0 ? elapsed() + heartbeat_period() : -1;
    next_report_ms_ = elapsed() + spec_.report_interval_ms;

    for (auto& [id, agent] : local_) {
      Sink sink(*this, id, /*tracking=*/true);
      // A replacement for a dead incarnation recovers instead of starting:
      // crash_restart re-announces (above the seq floors) and re-requests
      // every link's current value; start would re-send the initial ok?s of
      // a run the peers have long moved past.
      if (restart) {
        agent->crash_restart(sink);
      } else {
        agent->start(sink);
      }
      metrics_.total_checks += agent->take_checks();
    }
  }

  sim::Agent* local_agent(AgentId id) {
    const auto it = local_.find(id);
    return it == local_.end() ? nullptr : it->second.get();
  }

  bool is_local(AgentId id) const { return local_.count(id) != 0; }

  /// Align the hosted agent set with the job spec's current owner map
  /// (socket-only reconnect). Agents adopted away while we were orphaned are
  /// erased (their frames would be fenced anyway); agents the coordinator
  /// assigned to us whose ADOPT died with the old connection are rebuilt and
  /// crash-restarted — worst case the migrated learning is lost, which the
  /// handoff monitor reports, but the run stays live.
  void reconcile_ownership() {
    if (!spec_.migrate) return;
    for (auto it = local_.begin(); it != local_.end();) {
      if (spec_.owner_of(it->first) != static_cast<int>(shard_)) {
        if (retransmit_ != nullptr) retransmit_->forget_agent(it->first);
        capsule_hash_.erase(it->first);
        it = local_.erase(it);
      } else {
        ++it;
      }
    }
    std::vector<AgentId> missing;
    for (AgentId a = 0; a < num_agents_; ++a) {
      if (spec_.owner_of(a) == static_cast<int>(shard_) && !is_local(a)) {
        missing.push_back(a);
      }
    }
    if (missing.empty()) return;
    auto population = make_job_agents(spec_.bundle);
    for (auto& agent : population) {
      if (agent == nullptr) continue;
      const AgentId id = agent->id();
      if (std::find(missing.begin(), missing.end(), id) == missing.end()) {
        continue;
      }
      sim::Agent* placed =
          local_.emplace(id, std::move(agent)).first->second.get();
      Sink sink(*this, id, /*tracking=*/true);
      placed->crash_restart(sink);
      metrics_.total_checks += placed->take_checks();
    }
  }

  // ----- outbound path ---------------------------------------------------

  class Sink final : public sim::MessageSink {
   public:
    Sink(Worker& worker, AgentId sender, bool tracking)
        : worker_(worker), sender_(sender), tracking_(tracking) {}
    void send(AgentId to, sim::MessagePayload payload) override {
      worker_.agent_send(sender_, to, std::move(payload), tracking_);
    }

   private:
    Worker& worker_;
    AgentId sender_;
    bool tracking_;
  };

  /// A protocol send by local agent `from`: count it, track it, pass it
  /// through the fault bridge, and enqueue the surviving copies.
  void agent_send(AgentId from, AgentId to, sim::MessagePayload payload,
                  bool tracking) {
    ++metrics_.messages;
    if (!tracking) ++metrics_.refresh_messages;
    std::uint64_t track_seq = 0;
    if (retransmit_ != nullptr && tracking) {
      track_seq = retransmit_->track(from, to, payload, elapsed());
    }
    dispatch(from, to, std::move(payload), track_seq);
  }

  /// Fault-bridge + enqueue (shared by fresh sends and retransmissions).
  void dispatch(AgentId from, AgentId to, sim::MessagePayload payload,
                std::uint64_t track_seq) {
    // Membership, not home shard: an adopted agent is local, a released one
    // is remote — and membership can change again before the egress queue
    // drains, so flush_egress re-checks at send time.
    const bool remote = !is_local(to);
    sim::ChannelVerdict verdict;  // default: one clean copy
    if (plan_ != nullptr) verdict = plan_->on_send(from, to, elapsed());
    if (verdict.copies == 0) return;
    // Remote payloads always travel as sealed frames; local ones only when
    // corruption is in play (mirroring AsyncEngine's wire_ activation).
    // Encoded into the reusable scratch: steady state allocates nothing.
    const bool framed =
        remote || (plan_ != nullptr && plan_->config().corrupt_rate > 0);
    if (framed) {
      sim::encode_frame_into(payload, payload_scratch_);
      if (verdict.corrupt) {
        sim::corrupt_frame(payload_scratch_, verdict.corrupt_seed);
      }
    }
    for (int copy = 0; copy < verdict.copies; ++copy) {
      Unit unit;
      // Reordered copies skip the delay entirely, overtaking anything a
      // spike is holding back; real queueing provides the rest.
      unit.due_ms = elapsed() + (verdict.reorder ? 0 : verdict.extra_delay);
      unit.order = next_order_++;
      unit.from = from;
      unit.to = to;
      unit.payload = payload;
      if (framed) unit.frame = payload_scratch_;
      unit.track_seq = track_seq;
      egress_.push(std::move(unit));
    }
  }

  void flush_egress(std::int64_t now) {
    while (!egress_.empty() && egress_.top().due_ms <= now) {
      Unit unit = egress_.top();
      egress_.pop();
      if (is_local(unit.to)) {
        deliver_local(std::move(unit));
      } else {
        // Enqueued while the target was still local (unframed fast path) but
        // released before the flush: seal it for the wire now.
        if (unit.frame.empty()) {
          sim::encode_frame_into(unit.payload, unit.frame);
        }
        NetRoute route;
        route.from = unit.from;
        route.to = unit.to;
        route.track_seq = unit.track_seq;
        route.frame = std::move(unit.frame);
        encode_net_frame_into(NetFrame{std::move(route)}, net_scratch_);
        send_net(net_scratch_);
      }
    }
  }

  // ----- inbound path ----------------------------------------------------

  void drain_frames() {
    if (conn_ == nullptr) return;
    WireFrame raw;
    while (conn_->recv(raw)) {
      const NetDecodeResult decoded = decode_net_frame(raw);
      if (!decoded.ok()) {
        ++net_malformed_;
        continue;
      }
      handle(*decoded.frame);
      if (stopping_) {
        pending_adopts_.clear();
        inbound_parked_.clear();
        pending_acks().entries.clear();
        return;
      }
    }
    if (!pending_adopts_.empty()) apply_adoptions();
    flush_acks();
  }

  void handle(const NetFrame& frame) {
    if (const auto* route = std::get_if<NetRoute>(&frame)) {
      Unit unit;
      unit.from = route->from;
      unit.to = route->to;
      unit.track_seq = route->track_seq;
      unit.frame = route->frame;
      deliver_local(std::move(unit));
    } else if (const auto* ack = std::get_if<NetAck>(&frame)) {
      if (retransmit_ != nullptr) {
        for (const NetAck::Entry& e : ack->entries) {
          if (e.from >= 0 && e.from < num_agents_ && e.to >= 0 &&
              e.to < num_agents_) {
            retransmit_->ack(e.from, e.to, e.seq);
          }
        }
      }
    } else if (const auto* ping = std::get_if<NetPing>(&frame)) {
      NetPong pong{ping->nonce, ping->sent_ms};
      encode_net_frame_into(NetFrame{pong}, net_scratch_);
      conn_->send(net_scratch_);
    } else if (const auto* adopt = std::get_if<NetAdopt>(&frame)) {
      // Adoptions are applied in batch at the end of the drain: building an
      // agent walks the whole job population, so one build serves them all.
      if (spec_.migrate) pending_adopts_.push_back(*adopt);
    } else if (const auto* release = std::get_if<NetRelease>(&frame)) {
      if (spec_.migrate) release_agent(release->agent);
    } else if (const auto* stop = std::get_if<NetStop>(&frame)) {
      send_stats(/*final_report=*/true);
      result_.completed = true;
      result_.stop = stop->reason;
      stopping_ = true;
    }
    // WELCOME/JOB outside a handshake and all coordinator-only frames are
    // ignored: harmless duplicates or misroutes.
  }

  // ----- shard migration (docs/NETWORK.md §shard migration) --------------

  bool adopt_pending_for(AgentId id) const {
    for (const NetAdopt& adopt : pending_adopts_) {
      if (adopt.agent == id) return true;
    }
    return false;
  }

  /// Instantiate every batched adoption: one population build covers the
  /// whole batch, each agent gets its seq floor raised BEFORE the capsule
  /// import (import announces, and announcements must clear the floor), and
  /// each answers an ADOPT_ACK carrying its resident learned count so the
  /// coordinator can check conservation. A capsule that fails to decode
  /// degrades to crash_restart: the run stays correct, the learning is lost,
  /// and the monitor's handoff check reports it.
  void apply_adoptions() {
    std::vector<std::unique_ptr<sim::Agent>> population;
    bool need_build = false;
    for (const NetAdopt& adopt : pending_adopts_) {
      if (adopt.agent >= 0 && adopt.agent < num_agents_ &&
          !is_local(adopt.agent)) {
        need_build = true;
        break;
      }
    }
    if (need_build) population = make_job_agents(spec_.bundle);
    for (const NetAdopt& adopt : pending_adopts_) {
      if (adopt.agent < 0 || adopt.agent >= num_agents_) continue;
      sim::Agent* agent = local_agent(adopt.agent);
      if (agent == nullptr) {
        for (auto& candidate : population) {
          if (candidate != nullptr && candidate->id() == adopt.agent) {
            agent = candidate.get();
            local_.emplace(adopt.agent, std::move(candidate));
            break;
          }
        }
      }
      if (agent == nullptr) continue;
      agent->set_seq_floor(adopt.seq_floor);
      Sink sink(*this, adopt.agent, /*tracking=*/true);
      recovery::StateCapsule capsule;
      if (adopt.have_capsule && recovery::decode_capsule(adopt.capsule, capsule) &&
          capsule.agent == adopt.agent) {
        agent->import_capsule(capsule.state, sink);
      } else {
        agent->crash_restart(sink);
      }
      metrics_.total_checks += agent->take_checks();
      capsule_hash_.erase(adopt.agent);  // force a fresh upload next round
      NetAdoptAck ack;
      ack.agent = adopt.agent;
      ack.learned = agent->learned_count();
      ack.seq_floor = adopt.seq_floor;
      encode_net_frame_into(NetFrame{ack}, net_scratch_);
      send_net(net_scratch_);
    }
    pending_adopts_.clear();
    flush_egress(elapsed());
    // Frames that raced their target's adoption inside this drain batch.
    std::vector<Unit> parked;
    parked.swap(inbound_parked_);
    for (Unit& unit : parked) deliver_local(std::move(unit));
  }

  /// RELEASE: hand `id` back to the coordinator — final capsule out (so the
  /// re-homed copy resumes from our latest state, not a stale upload), then
  /// erase. Duplicate releases are no-ops.
  void release_agent(AgentId id) {
    // A RELEASE can land in the same drain batch as the ADOPT that gave us
    // the agent; honor the connection order before acting on it.
    if (adopt_pending_for(id)) apply_adoptions();
    sim::Agent* agent = local_agent(id);
    if (agent == nullptr) return;
    upload_capsule(*agent, /*release=*/true);
    if (retransmit_ != nullptr) retransmit_->forget_agent(id);
    capsule_hash_.erase(id);
    local_.erase(id);
  }

  /// Ship one agent's capsule to the coordinator. Routine (non-release)
  /// uploads dedup on a digest of the encoded words, so a quiescent agent
  /// costs one hash per report round, not one frame.
  void upload_capsule(sim::Agent& agent, bool release) {
    recovery::StateCapsule capsule;
    capsule.agent = agent.id();
    capsule.seq = agent.announce_seq();
    const bool have = agent.export_capsule(capsule.state);
    if (!have && !release) return;  // agent type without capsule support
    const std::vector<std::uint64_t> words = recovery::encode_capsule(capsule);
    std::uint64_t digest = kFnvOffsetBasis;
    for (const std::uint64_t word : words) {
      digest = fnv1a64_word(digest, word);
    }
    if (!release) {
      const auto [it, inserted] = capsule_hash_.emplace(agent.id(), 0);
      if (!inserted && it->second == digest) return;  // unchanged since last
      it->second = digest;
    }
    NetMigrate out;
    out.agent = agent.id();
    out.seq = capsule.seq;
    out.release = release;
    out.capsule = words;
    encode_net_frame_into(NetFrame{std::move(out)}, net_scratch_);
    send_net(net_scratch_);
  }

  /// Deliver one frame copy to a local agent — the exact AsyncEngine
  /// receive path: quarantine check, checksum + semantic validation, crash
  /// draw, dedup + ack, then receive/compute.
  void deliver_local(Unit unit) {
    // The guard and retransmit matrices are indexed by agent id; a forged
    // out-of-range sender must be refused before touching either.
    if (unit.from < 0 || unit.from >= num_agents_) return;
    sim::Agent* agent = local_agent(unit.to);
    if (agent == nullptr) {
      // Within one drain batch a route can be handled before the deferred
      // ADOPT that makes its target local (connection FIFO puts the ADOPT
      // first, batching reorders the application). Park and retry after the
      // adoptions apply; anything else is a mis-sharded route.
      if (adopt_pending_for(unit.to) &&
          inbound_parked_.size() < kInboundParkCap) {
        inbound_parked_.push_back(std::move(unit));
      }
      return;
    }
    const std::int64_t now = elapsed();

    if (!unit.frame.empty() && !guard_->admit(unit.from, unit.to, now,
                                              unit.frame, *limits_,
                                              unit.payload)) {
      return;  // no ack; a tracked frame is repaired by retransmission
    }

    const sim::CrashKind crash =
        plan_ != nullptr ? plan_->on_deliver(unit.to) : sim::CrashKind::kNone;
    if (crash != sim::CrashKind::kNone) {
      Sink sink(*this, unit.to, /*tracking=*/true);
      if (crash == sim::CrashKind::kAmnesia) {
        if (retransmit_ != nullptr) retransmit_->forget_agent(unit.to);
        agent->amnesia_restart(sink);
      } else {
        agent->crash_restart(sink);
      }
      metrics_.total_checks += agent->take_checks();
      return;  // the in-flight message died with the crash
    }

    if (unit.track_seq != 0 && retransmit_ != nullptr) {
      const bool duplicate =
          retransmit_->mark_delivered(unit.from, unit.to, unit.track_seq);
      send_ack(unit.from, unit.to, unit.track_seq);
      if (duplicate) return;
    }

    Sink sink(*this, unit.to, /*tracking=*/true);
    agent->receive(unit.payload);
    agent->compute(sink);
    metrics_.total_checks += agent->take_checks();
    ++processed_;
    if (agent->detected_insoluble() && !insoluble_) {
      insoluble_ = true;
      insoluble_agent_ = agent->id();
      send_stats(/*final_report=*/false);  // tell the coordinator promptly
    }
  }

  /// Ack `seq` on channel (from, to) back to the original sender. The ack
  /// is itself subject to the fault bridge on channel (to, from) — this
  /// worker owns that stream because `to` is local. A corrupted ack is
  /// unparseable to its receiver: modeled as lost (AsyncEngine::send_ack).
  /// The verdict is drawn here, per ack; only the encoding of a surviving
  /// remote ack is deferred to the batch flush.
  void send_ack(AgentId from, AgentId to, std::uint64_t seq) {
    sim::ChannelVerdict verdict;
    if (plan_ != nullptr) verdict = plan_->on_send(to, from, elapsed());
    if (verdict.copies == 0 || verdict.corrupt) return;
    if (is_local(from)) {
      if (retransmit_ != nullptr) retransmit_->ack(from, to, seq);
      return;
    }
    std::vector<NetAck::Entry>& entries = pending_acks().entries;
    entries.push_back({from, to, seq});
    if (entries.size() >= kAckBatchCap) flush_acks();
  }

  /// Send the collected remote acks as one ACK frame (end of every drain
  /// and tick, or early at kAckBatchCap).
  void flush_acks() {
    if (pending_acks().entries.empty()) return;
    encode_net_frame_into(ack_batch_, net_scratch_);
    pending_acks().entries.clear();
    send_net(net_scratch_);
  }

  NetAck& pending_acks() { return std::get<NetAck>(ack_batch_); }

  // ----- timers ----------------------------------------------------------

  void tick(std::int64_t wall_now) {
    (void)wall_now;
    const std::int64_t now = elapsed();
    flush_egress(now);

    if (retransmit_ != nullptr) {
      const auto due = retransmit_->next_deadline();
      if (due.has_value() && *due <= now) {
        for (const recovery::RetransmitBuffer::Due& d :
             retransmit_->collect_due(now)) {
          // Re-dispatch from the clean tracked payload: a corrupted original
          // cannot poison its own repair.
          dispatch(d.from, d.to, *d.payload, d.seq);
        }
        flush_egress(now);
      }
    }

    if (next_heartbeat_ms_ >= 0 && now >= next_heartbeat_ms_) {
      for (auto& [id, agent] : local_) announce(*agent);
      ++metrics_.heartbeats;
      next_heartbeat_ms_ = now + heartbeat_period();
      flush_egress(now);
    }

    if (now >= next_report_ms_) {
      if (spec_.migrate) {
        // Report cadence doubles as the capsule upload cadence: the
        // coordinator's adoption source is at most one report round stale.
        for (auto& [id, agent] : local_) {
          upload_capsule(*agent, /*release=*/false);
        }
      }
      send_stats(/*final_report=*/false);
      next_report_ms_ = now + spec_.report_interval_ms;
    }
    // Acks of deliveries made outside a drain (a released sender's frame
    // flushed locally) leave with this tick.
    flush_acks();
  }

  /// One untracked re-announcement round for `agent` (heartbeat repair).
  void announce(sim::Agent& agent) {
    Sink sink(*this, agent.id(), /*tracking=*/false);
    agent.on_heartbeat(sink);
    metrics_.total_checks += agent.take_checks();
  }

  std::int64_t wait_ms(std::int64_t wall_now) const {
    (void)wall_now;
    const std::int64_t now = steady_now_ms() - epoch_ms_;
    std::int64_t next = next_report_ms_;
    if (next_heartbeat_ms_ >= 0) next = std::min(next, next_heartbeat_ms_);
    if (!egress_.empty()) next = std::min(next, egress_.top().due_ms);
    if (retransmit_ != nullptr) {
      const auto due = retransmit_->next_deadline();
      if (due.has_value()) next = std::min(next, *due);
    }
    return std::clamp<std::int64_t>(next - now, 0, 10);
  }

  // ----- reporting -------------------------------------------------------

  sim::RunMetrics snapshot_metrics() {
    sim::RunMetrics m = metrics_;
    // Lifetime counter folds drops of *retired* connections; add the live one.
    if (conn_ != nullptr) m.backpressure_drops += conn_->dropped_frames();
    sim::set_channel_counters(plan_.get(), retransmit_.get(), guard_.get(), m);
    for (const auto& [id, agent] : local_) sim::add_agent_counters(*agent, m);
    return m;
  }

  void send_stats(bool final_report) {
    // job_loaded_, not local_.empty(): a worker whose agents were all
    // released must keep reporting (idle) or the coordinator would wait on
    // its silence forever.
    if (conn_ == nullptr || !job_loaded_) return;
    NetStats stats;
    stats.shard = shard_;
    stats.incarnation = incarnation_;
    stats.idle = processed_ == last_reported_processed_ && egress_.empty() &&
                 (retransmit_ == nullptr ||
                  !retransmit_->next_deadline().has_value());
    stats.insoluble = insoluble_;
    stats.insoluble_agent = insoluble_agent_;
    stats.final_report = final_report;
    stats.sent = metrics_.messages;
    stats.processed = processed_;
    stats.metrics_words = encode_metrics_words(snapshot_metrics());
    stats.values.reserve(local_.size());
    for (const auto& [id, agent] : local_) {
      stats.values.emplace_back(agent->variable(), agent->current_value());
    }
    encode_net_frame_into(NetFrame{std::move(stats)}, net_scratch_);
    conn_->send(net_scratch_);
    last_reported_processed_ = processed_;
  }

  WorkerResult finish() {
    result_.metrics = job_loaded_ ? snapshot_metrics() : metrics_;
    return result_;
  }

  /// Milliseconds since the job epoch — the time base of the fault plan,
  /// retransmit deadlines and all timers (roughly aligned across workers by
  /// the handshake).
  std::int64_t elapsed() const { return steady_now_ms() - epoch_ms_; }
  static std::int64_t now_ms() { return steady_now_ms(); }

  // ----- state -----------------------------------------------------------

  Transport& transport_;
  WorkerConfig config_;
  ReconnectPolicy reconnect_;
  std::unique_ptr<Connection> conn_;
  WorkerResult result_;

  std::uint64_t shard_ = kAnyShard;
  std::uint64_t incarnation_ = 1;
  std::uint64_t digest_ = 0;
  JobSpec spec_;
  int num_agents_ = 0;
  bool job_loaded_ = false;
  std::map<AgentId, std::unique_ptr<sim::Agent>> local_;

  // Shard-migration state (active only when spec_.migrate).
  static constexpr std::size_t kInboundParkCap = 4096;
  std::vector<NetAdopt> pending_adopts_;
  std::vector<Unit> inbound_parked_;
  /// Digest of the last uploaded capsule per hosted agent (dedup).
  std::map<AgentId, std::uint64_t> capsule_hash_;

  std::unique_ptr<sim::FaultPlan> plan_;
  std::unique_ptr<recovery::RetransmitBuffer> retransmit_;
  std::unique_ptr<sim::WireLimits> limits_;
  std::unique_ptr<sim::ChannelGuard> guard_;

  std::priority_queue<Unit, std::vector<Unit>, UnitLater> egress_;
  std::uint64_t next_order_ = 0;

  sim::RunMetrics metrics_;
  std::uint64_t processed_ = 0;
  std::uint64_t last_reported_processed_ = 0;
  std::uint64_t net_malformed_ = 0;
  bool insoluble_ = false;
  AgentId insoluble_agent_ = kNoAgent;
  bool stopping_ = false;

  int attempts_ = 0;
  std::int64_t epoch_ms_ = 0;
  std::int64_t attach_ms_ = -1;
  // Orphan state: set while the coordinator connection is down.
  bool orphaned_ = false;
  std::int64_t orphan_since_ = 0;
  std::int64_t next_attempt_ms_ = 0;
  std::vector<WireFrame> parked_;
  /// Reusable encode scratch for outbound frames (capacity persists, so the
  /// steady-state hot path allocates nothing).
  WireFrame net_scratch_;
  WireFrame payload_scratch_;
  /// Remote acks of the current drain, held as a NetFrame so the flush
  /// encodes it in place (capacity persists across flushes).
  NetFrame ack_batch_{NetAck{}};
  /// Highest coordinator incarnation that ever WELCOMEd this worker
  /// (0 = none yet); older incarnations are refused as zombies.
  std::uint64_t coord_incarnation_ = 0;
  std::int64_t next_heartbeat_ms_ = -1;
  std::int64_t next_report_ms_ = 0;

  std::int64_t heartbeat_period() const {
    // Heartbeats are repair traffic; like AsyncEngine they only run when
    // faults can make messages disappear. Process death is repaired by the
    // retransmit layer and the crash_restart re-announcement protocol.
    return plan_ != nullptr ? spec_.bundle.faults.refresh_interval : 0;
  }
};

}  // namespace

WorkerResult run_worker(Transport& transport, const WorkerConfig& config) {
  Worker worker(transport, config);
  return worker.run();
}

}  // namespace discsp::net
