#include "net/worker.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "net/clock.h"
#include "net/jobspec.h"
#include "net/supervisor.h"
#include "recovery/capsule.h"
#include "sim/agent_host.h"

namespace discsp::net {

namespace {

using Copy = sim::AgentHost::Copy;

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
        conn_->pump(static_cast<int>(wait_ms()));
        drain_frames();
        if (stopping_) return finish();
      }
      if (conn_ == nullptr || !conn_->open()) {
        // Orphaned: the coordinator is gone. Local search state stays warm
        // (tick() below keeps every timer running) while re-rendezvous
        // proceeds on the backoff schedule.
        if (!orphan_step()) return finish();
      }
      tick();
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
      backpressure_drops_ += conn_->dropped_frames();
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
      ++backpressure_drops_;
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
      if (auto* a = host_->agent(agent)) a->set_seq_floor(floor);
    }
    if (!rebuild) {
      // Socket-only reconnect: agents survived, but traffic queued on the
      // old connection died. One heartbeat round resyncs the peers.
      host_->set_now(elapsed());
      host_->heartbeat_round();
      drain_host();
    }
    job_loaded_ = true;
    return true;
  }

  void build_shard(bool restart) {
    parked_.clear();  // frames parked for a job that no longer exists
    pending_acks().entries.clear();
    host_ = std::make_unique<sim::AgentHost>(
        spec_.bundle.instance.problem(), spec_.bundle.instance.num_agents(),
        spec_.bundle.faults, spec_.bundle.retransmit,
        sim::AgentHost::Tracking::kAlways);
    capsule_hash_.clear();
    backpressure_drops_ = 0;
    egress_ = {};
    const std::int64_t period = host_->refresh_interval();
    next_heartbeat_ms_ = period > 0 ? elapsed() + period : -1;
    next_report_ms_ = elapsed() + spec_.report_interval_ms;
    // A replacement for a dead incarnation recovers instead of starting:
    // crash_restart re-announces (above the seq floors) and re-requests
    // every link's current value; start would re-send the initial ok?s of a
    // run the peers have long moved past.
    host_owned([restart](sim::Agent& agent, sim::MessageSink& sink) {
      restart ? agent.crash_restart(sink) : agent.start(sink);
    });
  }

  /// Host every agent the job's owner map gives this slot and the host
  /// lacks, running `action` on each. Ownership, not home shard: a
  /// continuation job spec carries the migration-adjusted owner map, so a
  /// replacement builds exactly the agents the coordinator routes here.
  template <class F>
  void host_owned(F&& action) {
    host_->set_now(elapsed());
    for (auto& agent : make_job_agents(spec_.bundle)) {
      if (spec_.owner_of(agent->id()) != static_cast<int>(shard_) ||
          host_->agent(agent->id()) != nullptr) {
        continue;
      }
      host_->act(host_->add_agent(std::move(agent)), action);
    }
    drain_host();
  }

  /// Align the hosted agent set with the job spec's current owner map
  /// (socket-only reconnect). Agents adopted away while we were orphaned are
  /// removed (their frames would be fenced anyway); agents the coordinator
  /// assigned to us whose ADOPT died with the old connection are rebuilt and
  /// crash-restarted — worst case the migrated learning is lost, which the
  /// handoff monitor reports, but the run stays live.
  void reconcile_ownership() {
    if (!spec_.migrate) return;
    for (AgentId a = 0; a < host_->num_agents(); ++a) {
      if (spec_.owner_of(a) != static_cast<int>(shard_) &&
          host_->agent(a) != nullptr) {
        host_->remove_agent(a);
        capsule_hash_.erase(a);
      }
    }
    host_owned([](sim::Agent& agent, sim::MessageSink& sink) {
      agent.crash_restart(sink);
    });
  }

  // ----- outbound path ---------------------------------------------------

  /// The carrier: move every copy the host emitted onto the egress heap, or
  /// into the ack batch when it is an ack.
  void drain_host() {
    host_->drain([this](Copy& copy) {
      if (copy.ack_of != 0) {
        queue_ack(copy);
        return;
      }
      // Reordered copies skip the delay entirely, overtaking anything a
      // spike is holding back; real queueing provides the rest.
      egress_.push({host_->now() + (copy.reorder ? 0 : copy.extra_delay),
                    next_order_++, std::move(copy)});
    });
  }

  void flush_egress(std::int64_t now) {
    while (!egress_.empty() && egress_.top().at <= now) {
      sim::AgentHost::Timed unit = egress_.pop();
      Copy& copy = unit.copy;
      if (host_->agent(copy.to) != nullptr) {
        deliver_local(copy.from, copy.to, copy.track_seq, copy.frame,
                      copy.payload);
      } else {
        // Membership, not home shard, decides: an adopted agent is local, a
        // released one remote. A copy the host left unsealed (corruption
        // off) is sealed for the wire here.
        if (copy.frame.empty()) {
          sim::encode_frame_into(copy.payload, copy.frame);
        }
        encode_net_frame_into(NetFrame{NetRoute{copy.from, copy.to,
                                                copy.track_seq,
                                                std::move(copy.frame)}},
                              net_scratch_);
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
      if (!decoded.ok()) continue;
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
      sim::MessagePayload payload;
      deliver_local(route->from, route->to, route->track_seq, route->frame,
                    payload);
    } else if (const auto* ack = std::get_if<NetAck>(&frame)) {
      for (const NetAck::Entry& e : ack->entries) {
        host_->ack(e.from, e.to, e.seq);
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
    return std::any_of(pending_adopts_.begin(), pending_adopts_.end(),
                       [id](const NetAdopt& adopt) { return adopt.agent == id; });
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
    if (std::any_of(pending_adopts_.begin(), pending_adopts_.end(),
                    [this](const NetAdopt& adopt) {
                      return adopt.agent >= 0 && adopt.agent < host_->num_agents() &&
                             host_->agent(adopt.agent) == nullptr;
                    })) {
      population = make_job_agents(spec_.bundle);
    }
    host_->set_now(elapsed());
    for (const NetAdopt& adopt : pending_adopts_) {
      if (adopt.agent < 0 || adopt.agent >= host_->num_agents()) continue;
      sim::Agent* agent = host_->agent(adopt.agent);
      if (agent == nullptr) {
        for (auto& candidate : population) {
          if (candidate != nullptr && candidate->id() == adopt.agent) {
            agent = &host_->add_agent(std::move(candidate));
            break;
          }
        }
      }
      if (agent == nullptr) continue;
      agent->set_seq_floor(adopt.seq_floor);
      host_->act(*agent, [&adopt](sim::Agent& a, sim::MessageSink& sink) {
        recovery::StateCapsule capsule;
        if (adopt.have_capsule &&
            recovery::decode_capsule(adopt.capsule, capsule) &&
            capsule.agent == adopt.agent) {
          a.import_capsule(capsule.state, sink);
        } else {
          a.crash_restart(sink);
        }
      });
      drain_host();
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
    std::vector<Copy> parked;
    parked.swap(inbound_parked_);
    for (Copy& c : parked) {
      deliver_local(c.from, c.to, c.track_seq, c.frame, c.payload);
    }
  }

  /// RELEASE: hand `id` back to the coordinator — final capsule out (so the
  /// re-homed copy resumes from our latest state, not a stale upload), then
  /// stop hosting it. Duplicate releases are no-ops.
  void release_agent(AgentId id) {
    // A RELEASE can land in the same drain batch as the ADOPT that gave us
    // the agent; honor the connection order before acting on it.
    if (adopt_pending_for(id)) apply_adoptions();
    sim::Agent* agent = host_->agent(id);
    if (agent == nullptr) return;
    upload_capsule(*agent, /*release=*/true);
    host_->remove_agent(id);
    capsule_hash_.erase(id);
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

  /// Deliver one copy to a local agent through the host's pipeline (crash
  /// draw, admission, dedup + ack, receive/compute).
  void deliver_local(AgentId from, AgentId to, std::uint64_t track_seq,
                     std::span<const std::uint64_t> frame,
                     sim::MessagePayload& payload) {
    if (host_->agent(to) == nullptr) {
      // Within one drain batch a route can be handled before the deferred
      // ADOPT that makes its target local (connection FIFO puts the ADOPT
      // first, batching reorders the application). Park and retry after the
      // adoptions apply; anything else is a mis-sharded route.
      if (adopt_pending_for(to) && inbound_parked_.size() < kInboundParkCap) {
        inbound_parked_.push_back(
            {from, to, payload, WireFrame(frame.begin(), frame.end()), track_seq});
      }
      return;
    }
    host_->set_now(elapsed());
    const sim::AgentHost::Delivery delivery =
        host_->deliver(from, to, track_seq, frame, payload);
    drain_host();
    if (delivery != sim::AgentHost::Delivery::kDelivered) return;
    ++processed_;
    const sim::Agent& agent = *host_->agent(to);
    if (agent.detected_insoluble() && !insoluble_) {
      insoluble_ = true;
      insoluble_agent_ = agent.id();
      send_stats(/*final_report=*/false);  // tell the coordinator promptly
    }
  }

  /// One ack copy from the host: `copy.from` acknowledges frame
  /// `copy.ack_of` of channel (copy.to, copy.from). A local sender takes it
  /// at once; a remote one gets it in the next ACK frame.
  void queue_ack(const Copy& copy) {
    if (host_->agent(copy.to) != nullptr) {
      host_->ack(copy.to, copy.from, copy.ack_of);
      return;
    }
    std::vector<NetAck::Entry>& entries = pending_acks().entries;
    entries.push_back({copy.to, copy.from, copy.ack_of});
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

  void tick() {
    const std::int64_t now = elapsed();
    flush_egress(now);

    host_->set_now(now);
    host_->fire_retransmits();
    if (next_heartbeat_ms_ >= 0 && now >= next_heartbeat_ms_) {
      host_->heartbeat_round();
      next_heartbeat_ms_ = now + host_->refresh_interval();
    }
    drain_host();
    flush_egress(now);

    if (now >= next_report_ms_) {
      if (spec_.migrate) {
        // Report cadence doubles as the capsule upload cadence: the
        // coordinator's adoption source is at most one report round stale.
        host_->for_each_agent([this](sim::Agent& agent) {
          upload_capsule(agent, /*release=*/false);
        });
      }
      send_stats(/*final_report=*/false);
      next_report_ms_ = now + spec_.report_interval_ms;
    }
    // Acks of deliveries made outside a drain (a released sender's frame
    // flushed locally) leave with this tick.
    flush_acks();
  }

  std::int64_t wait_ms() const {
    std::int64_t next = next_report_ms_;
    if (next_heartbeat_ms_ >= 0) next = std::min(next, next_heartbeat_ms_);
    if (!egress_.empty()) next = std::min(next, egress_.top().at);
    if (const auto due = host_->next_retransmit()) next = std::min(next, *due);
    return std::clamp<std::int64_t>(next - elapsed(), 0, 10);
  }

  // ----- reporting -------------------------------------------------------

  /// Lifetime counters: the host's fold plus this worker's backpressure
  /// drops (retired connections and the live one).
  sim::RunMetrics snapshot_metrics() const {
    sim::RunMetrics m;
    m.backpressure_drops = backpressure_drops_;
    if (conn_ != nullptr) m.backpressure_drops += conn_->dropped_frames();
    if (host_ != nullptr) host_->fold(m);
    return m;
  }

  void send_stats(bool final_report) {
    // job_loaded_, not an empty host: a worker whose agents were all
    // released must keep reporting (idle) or the coordinator would wait on
    // its silence forever.
    if (conn_ == nullptr || !job_loaded_) return;
    NetStats stats;
    stats.shard = shard_;
    stats.incarnation = incarnation_;
    stats.idle = processed_ == last_reported_processed_ && egress_.empty() &&
                 !host_->next_retransmit().has_value();
    stats.insoluble = insoluble_;
    stats.insoluble_agent = insoluble_agent_;
    stats.final_report = final_report;
    const sim::RunMetrics metrics = snapshot_metrics();
    stats.sent = metrics.messages;
    stats.processed = processed_;
    stats.metrics_words = encode_metrics_words(metrics);
    host_->for_each_agent([&stats](const sim::Agent& agent) {
      stats.values.emplace_back(agent.variable(), agent.current_value());
    });
    encode_net_frame_into(NetFrame{std::move(stats)}, net_scratch_);
    conn_->send(net_scratch_);
    last_reported_processed_ = processed_;
  }

  WorkerResult finish() {
    result_.metrics = snapshot_metrics();
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
  bool job_loaded_ = false;
  /// The local agents and their send/delivery/repair pipeline; rebuilt with
  /// every shard build.
  std::unique_ptr<sim::AgentHost> host_;

  // Shard-migration state (active only when spec_.migrate).
  static constexpr std::size_t kInboundParkCap = 4096;
  std::vector<NetAdopt> pending_adopts_;
  std::vector<Copy> inbound_parked_;
  /// Digest of the last uploaded capsule per hosted agent (dedup).
  std::map<AgentId, std::uint64_t> capsule_hash_;

  /// Copies awaiting dispatch (a local delivery or a route to the
  /// coordinator), some held back by a delay spike.
  sim::AgentHost::TimedQueue egress_;
  std::uint64_t next_order_ = 0;

  /// Frames dropped at the orphan buffer and by retired connections.
  std::uint64_t backpressure_drops_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t last_reported_processed_ = 0;
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
  /// Remote acks of the current drain, held as a NetFrame so the flush
  /// encodes it in place (capacity persists across flushes).
  NetFrame ack_batch_{NetAck{}};
  /// Highest coordinator incarnation that ever WELCOMEd this worker
  /// (0 = none yet); older incarnations are refused as zombies.
  std::uint64_t coord_incarnation_ = 0;
  std::int64_t next_heartbeat_ms_ = -1;
  std::int64_t next_report_ms_ = 0;
};

}  // namespace

WorkerResult run_worker(Transport& transport, const WorkerConfig& config) {
  Worker worker(transport, config);
  return worker.run();
}

}  // namespace discsp::net
