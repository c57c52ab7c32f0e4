#include "net/coordinator.h"

#include <algorithm>
#include <chrono>
#include <climits>
#include <deque>
#include <memory>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "analysis/repro.h"
#include "net/clock.h"
#include "net/coord_journal.h"
#include "recovery/capsule.h"
#include "sim/monitor.h"

namespace discsp::net {

namespace {

AgentId payload_sender(const sim::MessagePayload& payload) {
  return std::visit([](const auto& m) { return m.sender; }, payload);
}

sim::MonitorConfig monitor_config_for(const analysis::ReproBundle& bundle) {
  sim::MonitorConfig config;
  config.enabled = bundle.monitor;
  config.planted = bundle.planted;
  config.stall_window = bundle.monitor_stall;
  return config;
}

class Coordinator {
 public:
  Coordinator(Listener& listener, const ServeConfig& config)
      : listener_(listener),
        config_(config),
        problem_(config.job.bundle.instance.problem()),
        num_vars_(problem_.num_variables()),
        num_workers_(config.job.num_workers),
        digest_(jobspec_digest(config.job)),
        limits_(sim::wire_limits_for(problem_, num_vars_)),
        supervisor_(config.supervisor, config.job.num_workers),
        monitor_(monitor_config_for(config.job.bundle), num_vars_),
        budget_(config.deadline_ms),
        slots_(static_cast<std::size_t>(config.job.num_workers)),
        values_(static_cast<std::size_t>(num_vars_), kNoValue),
        max_seq_(static_cast<std::size_t>(num_vars_), 0),
        owner_(static_cast<std::size_t>(num_vars_), 0),
        capsules_(static_cast<std::size_t>(num_vars_)),
        queued_(static_cast<std::size_t>(num_vars_), false) {
    // Every serialized JobSpec must carry the migration flag so workers know
    // to upload capsules and honor adopt/release traffic.
    config_.job.migrate = config_.migrate_after_dead;
    for (AgentId a = 0; a < num_vars_; ++a) {
      owner_[static_cast<std::size_t>(a)] = config_.job.shard_of(a);
    }
    detached_since_.assign(static_cast<std::size_t>(num_workers_), -1);
    ack_split_.assign(static_cast<std::size_t>(num_workers_), NetFrame{NetAck{}});
    start_ms_ = steady_now_ms();
  }

  ServeResult run() {
    if (!init_journal()) {
      result_.coordinator_incarnation = coord_incarnation_;
      return result_;  // error already set
    }
    // A journaled verdict is final: no worker input can change it, so a
    // resumed coordinator just re-announces it. (A solved run's workers all
    // got its STOP and left; none would ever re-attach to report it.)
    if (solved_) request_stop(StopReason::kSolved);
    if (insoluble_) request_stop(StopReason::kInsoluble);
    while (!stopping_) {
      const std::int64_t now = elapsed();
      if (config_.halt_after_ms > 0 && now >= config_.halt_after_ms) {
        // Simulated SIGKILL: drop everything on the floor mid-run. The
        // journal holds whatever was flushed; workers find out from the
        // closed sockets.
        halted_ = true;
        result_.halted = true;
        return finish();
      }
      accept_connections(now);
      handshake_pending(now);
      const bool activity = pump_slots(now);
      if (!stopping_) supervise(now);
      if (!stopping_) migrate_step(now);
      if (!stopping_) evaluate(now);
      if (journal_ && journal_->should_checkpoint()) checkpoint_journal();
      if (stopping_) break;
      if (budget_.limited() && budget_.expired()) {
        request_stop(StopReason::kDeadline);
        break;
      }
      if (!all_attached_once_ && now >= config_.attach_timeout_ms) {
        result_.error = "not every worker slot attached within " +
                        std::to_string(config_.attach_timeout_ms) + " ms";
        request_stop(StopReason::kShutdown);
        break;
      }
      if (!activity) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    drain_grace();
    return finish();
  }

 private:
  struct Slot {
    std::unique_ptr<Connection> conn;
    std::uint64_t incarnation = 0;  // attach count
    bool attached = false;
    bool idle = false;
    bool final_seen = false;
    std::uint64_t sent = 0;       // current incarnation, latest report
    std::uint64_t processed = 0;  // current incarnation, latest report
    std::uint64_t prior_processed = 0;  // folded dead incarnations
    std::vector<std::uint64_t> latest_words;
    sim::RunMetrics prior;  // folded dead incarnations
  };

  struct PendingConn {
    std::unique_ptr<Connection> conn;
    std::int64_t deadline_ms = 0;
  };

  /// Last state capsule a worker uploaded for one agent (NetMigrate). The
  /// learned count is extracted at upload time so an ADOPT's conservation
  /// expectation needs no second decode.
  struct CapsuleInfo {
    std::vector<std::uint64_t> words;
    std::uint64_t seq = 0;
    std::uint64_t learned = 0;
    bool valid = false;
    /// Set while an ADOPT for this agent awaits its ADOPT_ACK.
    bool adopt_pending = false;
    std::uint64_t expected_learned = 0;
  };

  // ----- control-plane journal -------------------------------------------

  /// Open (and on --resume, replay) the write-ahead journal. False puts the
  /// failure in result_.error; a coordinator that cannot journal must not
  /// pretend to be crash-survivable.
  bool init_journal() {
    if (config_.resume && config_.journal_path.empty()) {
      result_.error = "resume requires a coordinator journal path";
      return false;
    }
    if (config_.resume) {
      std::string error;
      const auto loaded = CoordJournal::load(config_.journal_path, &error);
      if (!loaded) {
        result_.error = "coordinator journal: " + error;
        return false;
      }
      if (loaded->digest != digest_) {
        result_.error = "coordinator journal records digest " +
                        std::to_string(loaded->digest) +
                        " but this job has " + std::to_string(digest_);
        return false;
      }
      restore(*loaded);
      coord_incarnation_ = loaded->incarnation + 1;
      resumed_ = true;
      result_.resumed = true;
    }
    result_.coordinator_incarnation = coord_incarnation_;
    if (config_.journal_path.empty()) return true;
    CoordJournalConfig journal_config;
    journal_config.path = config_.journal_path;
    journal_config.checkpoint_interval = config_.journal_checkpoint_interval;
    journal_ = std::make_unique<CoordJournal>(journal_config);
    std::string error;
    // The opening snapshot doubles as the resume compaction: the new
    // incarnation immediately rewrites what it inherited.
    if (!journal_->start(snapshot(), &error)) {
      result_.error = "coordinator journal: " + error;
      journal_.reset();
      return false;
    }
    return true;
  }

  /// Fold a replayed journal into the live control-plane structures. Slot
  /// incarnations survive so a worker that outlived the coordinator
  /// re-attaches as a continuation, not a replacement.
  void restore(const CoordState& state) {
    restarts_ = static_cast<int>(state.restarts);
    for (const auto& [agent, seq] : state.seq_floors) {
      if (agent >= 0 && agent < num_vars_) {
        max_seq_[static_cast<std::size_t>(agent)] = seq;
      }
    }
    for (const auto& [agent, value] : state.values) {
      if (agent >= 0 && agent < num_vars_) {
        values_[static_cast<std::size_t>(agent)] = value;
      }
    }
    if (state.have_best) {
      best_.assign(static_cast<std::size_t>(num_vars_), kNoValue);
      for (const auto& [agent, value] : state.best) {
        if (agent >= 0 && agent < num_vars_) {
          best_[static_cast<std::size_t>(agent)] = value;
        }
      }
      best_violations_ = static_cast<std::size_t>(state.best_violations);
      have_best_ = true;
    }
    if (state.solved) {
      FullAssignment witness(static_cast<std::size_t>(num_vars_), kNoValue);
      for (const auto& [agent, value] : state.solution) {
        if (agent >= 0 && agent < num_vars_) {
          witness[static_cast<std::size_t>(agent)] = value;
        }
      }
      // Only a witness that still checks out ends the run.
      if (problem_.is_solution(witness)) {
        solved_ = true;
        solution_ = std::move(witness);
      }
    }
    if (state.insoluble) {
      insoluble_ = true;
      insoluble_agent_ = state.insoluble_agent;
      monitor_.on_insoluble(
          state.insoluble_agent >= 0 ? state.insoluble_agent : AgentId{0}, 0);
    }
    for (const auto& [agent, shard] : state.owners) {
      if (agent >= 0 && agent < num_vars_ && shard >= 0 &&
          shard < num_workers_) {
        owner_[static_cast<std::size_t>(agent)] = shard;
        // Replaying a reassignment counts as a migration for quiescence (the
        // run had in-flight handoff traffic when the coordinator died).
        ++migrations_;
      }
    }
    const std::size_t count = std::min(state.slots.size(), slots_.size());
    for (std::size_t i = 0; i < count; ++i) {
      Slot& slot = slots_[i];
      slot.incarnation = state.slots[i].incarnation;
      slot.prior_processed = state.slots[i].prior_processed;
      decode_metrics_words(state.slots[i].prior_words, slot.prior);
    }
    all_attached_once_ =
        std::all_of(slots_.begin(), slots_.end(),
                    [](const Slot& s) { return s.incarnation > 0; });
    // Nothing is attached to this incarnation yet, so every slot's loss
    // clock starts at resume: a worker that died before the halt never
    // re-attaches, and so never detaches here to start it.
    if (config_.migrate_after_dead) {
      detached_since_.assign(slots_.size(), elapsed());
    }
  }

  /// (agent, value) for every agent of a complete assignment.
  std::vector<std::pair<AgentId, Value>> agent_pairs(const FullAssignment& a) const {
    std::vector<std::pair<AgentId, Value>> pairs;
    pairs.reserve(static_cast<std::size_t>(num_vars_));
    for (AgentId agent = 0; agent < num_vars_; ++agent) {
      pairs.emplace_back(agent, a[static_cast<std::size_t>(agent)]);
    }
    return pairs;
  }

  /// The complete journalable control-plane state, from the live members.
  CoordState snapshot() const {
    CoordState state;
    state.digest = digest_;
    state.incarnation = coord_incarnation_;
    state.restarts = static_cast<std::uint64_t>(restarts_);
    for (AgentId a = 0; a < num_vars_; ++a) {
      const auto i = static_cast<std::size_t>(a);
      if (max_seq_[i] > 0) state.seq_floors.emplace_back(a, max_seq_[i]);
      if (values_[i] != kNoValue) state.values.emplace_back(a, values_[i]);
    }
    if (have_best_) {
      state.have_best = true;
      state.best_violations = static_cast<int>(best_violations_);
      for (AgentId a = 0; a < num_vars_; ++a) {
        const auto i = static_cast<std::size_t>(a);
        if (best_[i] != kNoValue) state.best.emplace_back(a, best_[i]);
      }
    }
    if (solved_) {
      state.solved = true;
      state.solution = agent_pairs(solution_);
    }
    state.insoluble = insoluble_;
    state.insoluble_agent = insoluble_agent_;
    for (AgentId a = 0; a < num_vars_; ++a) {
      const int shard = owner_[static_cast<std::size_t>(a)];
      if (shard != config_.job.shard_of(a)) state.owners.emplace_back(a, shard);
    }
    state.slots.resize(slots_.size());
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      state.slots[i].incarnation = slots_[i].incarnation;
      state.slots[i].prior_processed = slots_[i].prior_processed;
      state.slots[i].prior_words = encode_metrics_words(slots_[i].prior);
    }
    return state;
  }

  void checkpoint_journal() {
    // A failed compaction leaves the previous journal file intact — worse
    // replay time, same durability — so it is not a run-fatal condition.
    std::string error;
    journal_->checkpoint(snapshot(), &error);
  }

  // ----- attach path -----------------------------------------------------

  void accept_connections(std::int64_t now) {
    while (auto conn = listener_.accept()) {
      pending_.push_back({std::move(conn), now + kHelloTimeoutMs});
    }
  }

  void handshake_pending(std::int64_t now) {
    for (std::size_t i = 0; i < pending_.size();) {
      PendingConn& p = pending_[i];
      p.conn->pump(0);
      WireFrame raw;
      bool resolved = false;
      while (!resolved && p.conn->recv(raw)) {
        const NetDecodeResult decoded = decode_net_frame(raw);
        if (!decoded.ok()) continue;
        if (const auto* hello = std::get_if<NetHello>(&*decoded.frame)) {
          attach(std::move(p.conn), *hello, now);
          resolved = true;
        }
        // Anything else before HELLO is a protocol error; keep waiting.
      }
      if (resolved || now >= p.deadline_ms || !p.conn || !p.conn->open()) {
        pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
  }

  void refuse(std::unique_ptr<Connection> conn, NetErrorCode code) {
    conn->send(encode_net_frame(NetFrame{NetError{code}}));
    conn->pump(0);  // flush before the connection drops
  }

  void attach(std::unique_ptr<Connection> conn, const NetHello& hello,
              std::int64_t now) {
    if (hello.proto != kNetProtoVersion) {
      refuse(std::move(conn), NetErrorCode::kVersionMismatch);
      return;
    }
    // The worker has been WELCOMEd by a newer coordinator than this one:
    // we are a zombie predecessor (still bound while a resumed coordinator
    // owns the run). Refusing keeps the run single-driver.
    if (hello.coord_incarnation > coord_incarnation_) {
      refuse(std::move(conn), NetErrorCode::kStaleCoordinator);
      return;
    }
    if (hello.digest != 0 && hello.digest != digest_) {
      refuse(std::move(conn), NetErrorCode::kDigestMismatch);
      return;
    }
    int idx = -1;
    if (hello.shard < static_cast<std::uint64_t>(num_workers_) &&
        !slots_[hello.shard].attached) {
      idx = static_cast<int>(hello.shard);
    } else {
      for (int i = 0; i < num_workers_; ++i) {
        if (!slots_[static_cast<std::size_t>(i)].attached) {
          idx = i;
          break;
        }
      }
    }
    if (idx < 0) {
      refuse(std::move(conn), NetErrorCode::kNoShard);
      return;
    }
    Slot& slot = slots_[static_cast<std::size_t>(idx)];
    // A worker that already holds the job (digest in its HELLO) survived with
    // its agents — only the socket died. A digest-less HELLO on a used slot
    // is a fresh process replacing a dead incarnation: fold the dead
    // incarnation's counters and have the replacement recover.
    const bool continuation = hello.digest == digest_ && slot.incarnation > 0;
    const bool replacement = !continuation && slot.incarnation > 0;
    if (replacement) {
      fold_slot(slot);
      ++restarts_;
      if (journal_) {
        journal_->record_fold(idx, slot.prior_processed,
                              encode_metrics_words(slot.prior));
      }
    }
    ++slot.incarnation;
    slot.conn = std::move(conn);
    slot.attached = true;
    slot.idle = false;
    slot.final_seen = false;
    supervisor_.note_attached(idx, now);
    if (journal_) journal_->record_attach(idx, slot.incarnation, replacement);

    NetWelcome welcome;
    welcome.shard = static_cast<std::uint64_t>(idx);
    welcome.num_workers = static_cast<std::uint64_t>(num_workers_);
    welcome.digest = digest_;
    welcome.incarnation = slot.incarnation;
    welcome.restart = replacement;
    welcome.coord_incarnation = coord_incarnation_;
    slot.conn->send(encode_net_frame(NetFrame{welcome}));

    JobSpec spec = config_.job;
    for (AgentId a = 0; a < num_vars_; ++a) {
      const auto ai = static_cast<std::size_t>(a);
      if (owner_[ai] != spec.shard_of(a)) spec.owners.emplace_back(a, owner_[ai]);
      // Floors cover the agents this worker currently OWNS (home shard plus
      // adoptions), so every rebuilt agent announces above the fence.
      if (owner_[ai] == idx && max_seq_[ai] > 0) {
        spec.seq_floors.emplace_back(a, max_seq_[ai]);
      }
    }
    slot.conn->send(encode_net_frame(NetFrame{NetJob{serialize_jobspec(spec)}}));
    slot.conn->pump(0);
    detached_since_[static_cast<std::size_t>(idx)] = -1;
    if (config_.migrate_after_dead) rebalance(idx, now);

    all_attached_once_ =
        std::all_of(slots_.begin(), slots_.end(),
                    [](const Slot& s) { return s.incarnation > 0; });
  }

  /// A worker attached to slot `idx`: reclaim agents whose home is `idx` but
  /// that currently live elsewhere. Live owners are asked to hand them back
  /// (RELEASE -> final capsule upload -> re-adopt at home); agents stranded
  /// on a dead owner are queued for immediate adoption.
  void rebalance(int idx, std::int64_t now) {
    (void)now;
    for (AgentId a = 0; a < num_vars_; ++a) {
      const auto ai = static_cast<std::size_t>(a);
      if (config_.job.shard_of(a) != idx || owner_[ai] == idx) continue;
      const Slot& holder = slots_[static_cast<std::size_t>(owner_[ai])];
      if (holder.attached) {
        forward(owner_[ai], NetFrame{NetRelease{a}});
      } else {
        queue_agent(a);
      }
    }
  }

  // ----- frame pump ------------------------------------------------------

  bool pump_slots(std::int64_t now) {
    bool activity = false;
    for (int i = 0; i < num_workers_; ++i) {
      Slot& slot = slots_[static_cast<std::size_t>(i)];
      if (!slot.attached) continue;
      slot.conn->pump(0);
      const bool quarantined =
          supervisor_.health(i, now) == PeerHealth::kQuarantined;
      WireFrame raw;
      while (slot.conn->recv(raw)) {
        activity = true;
        const NetDecodeResult decoded = decode_net_frame(raw);
        if (!decoded.ok()) {
          supervisor_.note_malformed(i, now);
          continue;
        }
        if (quarantined) continue;  // drained but refused until readmission
        supervisor_.note_alive(i, now);
        handle_frame(i, *decoded.frame, now);
      }
      if (!slot.conn->open()) detach(i, now);
    }
    return activity;
  }

  void handle_frame(int i, const NetFrame& frame, std::int64_t now) {
    if (const auto* route = std::get_if<NetRoute>(&frame)) {
      handle_route(i, *route, now);
    } else if (const auto* ack = std::get_if<NetAck>(&frame)) {
      handle_ack(i, *ack, now);
    } else if (const auto* stats = std::get_if<NetStats>(&frame)) {
      handle_stats(i, *stats, now);
    } else if (const auto* migrate = std::get_if<NetMigrate>(&frame)) {
      handle_migrate(i, *migrate, now);
    } else if (const auto* adopted = std::get_if<NetAdoptAck>(&frame)) {
      handle_adopt_ack(i, *adopted, now);
    }
    // NetPong carries no state beyond liveness (already noted); everything
    // else is a protocol misuse by an attached worker and is ignored.
  }

  void handle_route(int i, const NetRoute& route, std::int64_t now) {
    if (route.to < 0 || route.to >= num_vars_) {
      supervisor_.note_malformed(i, now);
      return;
    }
    // Ownership fence: a worker may only route frames for agents it owns.
    // After a migration this drops the dead incarnation's stragglers — a
    // falsely-suspected worker that reconnects keeps sending for agents that
    // were adopted away until its re-attach reconciles its local set.
    if (config_.migrate_after_dead && route.from >= 0 &&
        route.from < num_vars_ &&
        owner_[static_cast<std::size_t>(route.from)] != i) {
      ++fenced_;
      return;
    }
    const sim::DecodeResult decoded = sim::decode_frame(route.frame, limits_);
    if (decoded.ok()) {
      if (payload_sender(*decoded.payload) != route.from) {
        // A forged route (valid payload under a wrong label) never happens
        // under the fault model; refuse it rather than corrupt the seq map.
        supervisor_.note_malformed(i, now);
        return;
      }
      note_payload(route.from, route.to, *decoded.payload, now);
    }
    // A frame the checksum rejects is forwarded anyway: the receiving
    // worker's decode_frame charges it to the agent-level ChannelGuard,
    // exactly like in-process corruption.
    monitor_.on_activation(now);
    forward(owner_[static_cast<std::size_t>(route.to)], NetFrame{route});
  }

  /// Acks chase the original sender wherever it lives now: split the batch
  /// by the owner of each `from` and forward one frame per owner, entries in
  /// arrival order. One forged entry refuses the whole frame (it is never
  /// produced under the fault model; retransmission repairs the rest).
  void handle_ack(int i, const NetAck& ack, std::int64_t now) {
    for (const NetAck::Entry& e : ack.entries) {
      if (e.from < 0 || e.from >= num_vars_) {
        supervisor_.note_malformed(i, now);
        return;
      }
    }
    for (const NetAck::Entry& e : ack.entries) {
      const int owner = owner_[static_cast<std::size_t>(e.from)];
      std::get<NetAck>(ack_split_[static_cast<std::size_t>(owner)])
          .entries.push_back(e);
    }
    for (int w = 0; w < num_workers_; ++w) {
      NetFrame& part = ack_split_[static_cast<std::size_t>(w)];
      std::vector<NetAck::Entry>& entries = std::get<NetAck>(part).entries;
      if (entries.empty()) continue;
      forward(w, part);
      entries.clear();
    }
  }

  // ----- live shard migration --------------------------------------------

  void queue_agent(AgentId agent) {
    const auto ai = static_cast<std::size_t>(agent);
    if (queued_[ai]) return;
    queued_[ai] = true;
    migrate_queue_.push_back(agent);
  }

  /// Slot `i` is permanently lost: queue everything it owns for adoption.
  void declare_lost(int i) {
    for (AgentId a = 0; a < num_vars_; ++a) {
      if (owner_[static_cast<std::size_t>(a)] == i) queue_agent(a);
    }
  }

  /// Flip ownership of `agent` to `target` and ship the ADOPT. The journal
  /// write precedes the send, so any adoption a worker ever acts on is
  /// covered by a journal a resumed coordinator will replay; per-connection
  /// FIFO then guarantees the ADOPT precedes all later forwards to `target`.
  void adopt(AgentId agent, int target, std::int64_t now) {
    (void)now;
    const auto ai = static_cast<std::size_t>(agent);
    CapsuleInfo& cap = capsules_[ai];
    if (target != config_.job.shard_of(agent)) ++migrations_;
    owner_[ai] = target;
    if (journal_) journal_->record_assign(agent, target);
    NetAdopt frame;
    frame.agent = agent;
    frame.seq_floor = std::max(max_seq_[ai], cap.valid ? cap.seq : 0);
    frame.have_capsule = cap.valid;
    frame.capsule = cap.words;  // keep our copy for possible re-adoption
    cap.adopt_pending = true;
    cap.expected_learned = cap.valid ? cap.learned : 0;
    forward(target, NetFrame{std::move(frame)});
  }

  /// Drain the migration queue, up to migration_max_batch adoptions per
  /// loop. Also the place where a detached-and-silent slot crosses the dead
  /// window into permanent loss (a SIGKILLed worker drops its connection
  /// before the supervisor can see silence, so detachment starts the clock).
  void migrate_step(std::int64_t now) {
    if (!config_.migrate_after_dead) return;
    for (int i = 0; i < num_workers_; ++i) {
      const auto si = static_cast<std::size_t>(i);
      if (slots_[si].attached || detached_since_[si] < 0) continue;
      if (now - detached_since_[si] >= config_.supervisor.dead_after_ms) {
        detached_since_[si] = -1;
        declare_lost(i);
      }
    }
    if (migrate_queue_.empty()) return;
    std::vector<int> load(static_cast<std::size_t>(num_workers_), 0);
    for (AgentId a = 0; a < num_vars_; ++a) {
      ++load[static_cast<std::size_t>(owner_[static_cast<std::size_t>(a)])];
    }
    int moved = 0;
    while (!migrate_queue_.empty() && moved < config_.migration_max_batch) {
      const AgentId agent = migrate_queue_.front();
      const int home = config_.job.shard_of(agent);
      int target = slots_[static_cast<std::size_t>(home)].attached ? home : -1;
      if (target < 0) {
        for (int i = 0; i < num_workers_; ++i) {
          const auto si = static_cast<std::size_t>(i);
          if (!slots_[si].attached) continue;
          if (target < 0 || load[si] < load[static_cast<std::size_t>(target)]) {
            target = i;
          }
        }
      }
      if (target < 0) return;  // no survivor attached yet; retry next loop
      migrate_queue_.pop_front();
      queued_[static_cast<std::size_t>(agent)] = false;
      ++load[static_cast<std::size_t>(target)];
      adopt(agent, target, now);
      ++moved;
    }
  }

  void handle_migrate(int i, const NetMigrate& m, std::int64_t now) {
    if (!config_.migrate_after_dead) return;
    if (m.agent < 0 || m.agent >= num_vars_) {
      supervisor_.note_malformed(i, now);
      return;
    }
    const auto ai = static_cast<std::size_t>(m.agent);
    if (owner_[ai] != i) {
      ++fenced_;  // stale upload from a worker that no longer owns the agent
      return;
    }
    recovery::StateCapsule decoded;
    if (!recovery::decode_capsule(m.capsule, decoded) ||
        decoded.agent != m.agent) {
      supervisor_.note_malformed(i, now);
      return;
    }
    CapsuleInfo& cap = capsules_[ai];
    cap.words = m.capsule;
    cap.seq = std::max(m.seq, decoded.seq);
    cap.learned = recovery::capsule_learned_count(decoded.state);
    cap.valid = true;
    if (m.release) {
      // Handback: the sender erased the agent; re-home it immediately when
      // the home slot is live, else queue it like any orphan.
      const int home = config_.job.shard_of(m.agent);
      if (slots_[static_cast<std::size_t>(home)].attached) {
        adopt(m.agent, home, now);
      } else {
        queue_agent(m.agent);
      }
    }
  }

  void handle_adopt_ack(int i, const NetAdoptAck& ack, std::int64_t now) {
    if (ack.agent < 0 || ack.agent >= num_vars_) {
      supervisor_.note_malformed(i, now);
      return;
    }
    const auto ai = static_cast<std::size_t>(ack.agent);
    if (owner_[ai] != i) {
      ++fenced_;
      return;
    }
    CapsuleInfo& cap = capsules_[ai];
    if (!cap.adopt_pending) return;  // duplicate or post-resume ack
    cap.adopt_pending = false;
    // Conservation across the handoff: the adopter must hold at least what
    // the capsule shipped (it may legitimately hold more).
    monitor_.check_handoff(ack.agent, cap.expected_learned, ack.learned, now);
  }

  /// Routed ok?/improve seqs feed the per-agent floor map (what a rebuilt
  /// worker's announcements must exceed) and the invariant monitor; routed
  /// ok?s double as fresh value observations.
  void note_payload(AgentId from, AgentId to,
                    const sim::MessagePayload& payload, std::int64_t now) {
    monitor_.on_send(from, payload, now);
    monitor_.on_deliver(from, to, payload, now);
    const auto slot = static_cast<std::size_t>(from);
    if (const auto* ok = std::get_if<sim::OkMessage>(&payload)) {
      max_seq_[slot] = std::max(max_seq_[slot], ok->seq);
      if (journal_) journal_->ensure_seq(from, ok->seq);
      observe_value(ok->var, ok->value, now);
    } else if (const auto* improve = std::get_if<sim::ImproveMessage>(&payload)) {
      max_seq_[slot] = std::max(max_seq_[slot], improve->seq);
      if (journal_) journal_->ensure_seq(from, improve->seq);
    }
  }

  void observe_value(VarId var, Value value, std::int64_t now) {
    if (var < 0 || var >= num_vars_) return;
    Value& current = values_[static_cast<std::size_t>(var)];
    if (current == value) return;
    current = value;
    if (journal_) journal_->record_value(var, value);
    monitor_.on_progress(now);
  }

  void handle_stats(int i, const NetStats& stats, std::int64_t now) {
    Slot& slot = slots_[static_cast<std::size_t>(i)];
    if (stats.incarnation != slot.incarnation) return;  // stale in-flight
    slot.idle = stats.idle;
    slot.sent = stats.sent;
    slot.processed = stats.processed;
    slot.latest_words = stats.metrics_words;
    if (stats.final_report) slot.final_seen = true;
    for (const auto& [var, value] : stats.values) {
      observe_value(var, value, now);
    }
    if (stats.insoluble && !insoluble_) {
      insoluble_ = true;
      insoluble_agent_ = stats.insoluble_agent;
      if (journal_) journal_->record_insoluble(stats.insoluble_agent);
      monitor_.on_insoluble(stats.insoluble_agent >= 0 ? stats.insoluble_agent
                                                       : AgentId{0},
                            now);
      request_stop(StopReason::kInsoluble);
    }
  }

  void forward(int shard, const NetFrame& frame) {
    Slot& slot = slots_[static_cast<std::size_t>(shard)];
    // A detached destination drops the frame; the sending agent's retransmit
    // layer re-offers it once a replacement worker holds the shard.
    if (slot.attached) {
      encode_net_frame_into(frame, net_scratch_);
      slot.conn->send(net_scratch_);
    }
  }

  // ----- supervision & termination ---------------------------------------

  void supervise(std::int64_t now) {
    for (int i = 0; i < num_workers_; ++i) {
      Slot& slot = slots_[static_cast<std::size_t>(i)];
      if (!slot.attached) continue;
      if (supervisor_.dead(i, now)) {
        detach(i, now);
        // The silence window already elapsed while attached, so the slot is
        // permanently lost right now — no second wait on the detach clock.
        if (config_.migrate_after_dead) {
          detached_since_[static_cast<std::size_t>(i)] = -1;
          declare_lost(i);
        }
        continue;
      }
      if (supervisor_.ping_due(i, now)) {
        encode_net_frame_into(NetFrame{NetPing{nonce_++, now}}, net_scratch_);
        slot.conn->send(net_scratch_);
      }
    }
  }

  void detach(int i, std::int64_t now) {
    Slot& slot = slots_[static_cast<std::size_t>(i)];
    if (slot.conn != nullptr) coord_drops_ += slot.conn->dropped_frames();
    slot.conn.reset();
    slot.attached = false;
    slot.idle = false;
    supervisor_.note_detached(i);
    // A SIGKILLed worker's socket closes before the supervisor can observe
    // silence, so detachment (not supervisor death) starts the permanent-loss
    // clock; a replacement attach or declare_lost resets it.
    const auto si = static_cast<std::size_t>(i);
    if (config_.migrate_after_dead && detached_since_[si] < 0) {
      detached_since_[si] = now;
    }
  }

  void evaluate(std::int64_t now) {
    const bool complete =
        std::none_of(values_.begin(), values_.end(),
                     [](Value v) { return v == kNoValue; });
    if (complete) {
      // A complete snapshot satisfying every constraint is a valid solution
      // witness, no matter how its values interleaved in time.
      if (problem_.is_solution(values_)) {
        solved_ = true;
        // Freeze the witness now: final stats drained during the grace
        // window keep updating values_, and the live snapshot may no longer
        // be a solution by the time finish() runs.
        solution_ = values_;
        // Journal it before the first STOP leaves: once the workers have
        // that STOP, a resumed coordinator can learn of the solve only here.
        if (journal_) journal_->record_solved(agent_pairs(solution_));
        request_stop(StopReason::kSolved);
        return;
      }
      const std::size_t violated = problem_.violated_count(values_);
      if (!have_best_ || violated < best_violations_) {
        best_ = values_;
        best_violations_ = violated;
        have_best_ = true;
        if (journal_) {
          journal_->record_best(static_cast<int>(violated), agent_pairs(best_));
        }
      }
    }
    if (now - last_quiesce_eval_ >= config_.job.report_interval_ms) {
      last_quiesce_eval_ = now;
      if (quiescent()) {
        if (++idle_rounds_ >= config_.quiesce_rounds) {
          request_stop(StopReason::kQuiesced);
        }
      } else {
        idle_rounds_ = 0;
      }
    }
  }

  /// Fault-free distributed termination detection: every worker attached and
  /// idle, every sent message processed, and the totals unchanged since the
  /// previous round. Under faults (or after any restart) in-flight repair
  /// traffic makes "quiet" unknowable from here, so the deadline owns
  /// termination instead.
  bool quiescent() {
    // A resumed run has unknowable in-flight repair traffic for the same
    // reason a restarted worker does: the deadline owns termination.
    if (config_.job.bundle.faults.enabled() || restarts_ > 0 || resumed_ ||
        migrations_ > 0) {
      return false;
    }
    std::uint64_t sent = 0;
    std::uint64_t processed = 0;
    for (const Slot& slot : slots_) {
      if (!slot.attached || !slot.idle) return false;
      sent += slot.sent;
      processed += slot.processed;
    }
    const bool stable = sent == processed && sent == last_sent_total_ &&
                        processed == last_processed_total_;
    last_sent_total_ = sent;
    last_processed_total_ = processed;
    return stable;
  }

  void request_stop(StopReason reason) {
    if (stopping_) return;
    stopping_ = true;
    reason_ = reason;
    const WireFrame stop = encode_net_frame(NetFrame{NetStop{reason}});
    for (Slot& slot : slots_) {
      if (!slot.attached) continue;
      slot.conn->send(stop);
      slot.conn->pump(0);
    }
  }

  void drain_grace() {
    const std::int64_t until = elapsed() + config_.grace_ms;
    while (elapsed() < until) {
      const bool all_final = std::all_of(
          slots_.begin(), slots_.end(),
          [](const Slot& s) { return !s.attached || s.final_seen; });
      if (all_final) break;
      if (!pump_slots(elapsed())) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }

  // ----- result assembly -------------------------------------------------

  /// Fold the slot's current incarnation counters into its dead-incarnation
  /// accumulator (called when a replacement takes over, and at run end).
  void fold_slot(Slot& slot) {
    if (!slot.latest_words.empty()) {
      sim::RunMetrics incarnation;
      decode_metrics_words(slot.latest_words, incarnation);
      sim::merge_metrics(slot.prior, incarnation);
      slot.latest_words.clear();
    }
    slot.prior_processed += slot.processed;
    slot.processed = 0;
    slot.sent = 0;
  }

  ServeResult finish() {
    result_.reason = reason_;
    result_.worker_restarts = restarts_;
    result_.coordinator_incarnation = coord_incarnation_;
    sim::RunMetrics total;
    std::uint64_t processed = 0;
    for (Slot& slot : slots_) {
      if (slot.conn != nullptr) coord_drops_ += slot.conn->dropped_frames();
      fold_slot(slot);
      sim::merge_metrics(total, slot.prior);
      processed += slot.prior_processed;
    }
    // Frames the coordinator itself shed under send backpressure.
    total.backpressure_drops += coord_drops_;
    total.monitor = monitor_.summary();
    if (journal_ != nullptr) {
      total.journal_appends += journal_->appends();
      total.journal_checkpoints += journal_->checkpoints();
    }
    if (resumed_) ++total.journal_replays;
    // Coordinator-side supervision and migration counters live here, not in
    // any worker's report.
    total.malformed_frames += supervisor_.malformed_frames();
    total.quarantines += supervisor_.quarantines();
    total.quarantine_readmissions += supervisor_.readmissions();
    total.agent_migrations += migrations_;
    total.migration_fenced += fenced_;
    result_.agent_migrations = migrations_;
    total.solved = solved_;
    total.insoluble = insoluble_;
    total.timed_out = reason_ == StopReason::kDeadline;
    total.cycles = static_cast<int>(
        std::min<std::uint64_t>(processed, static_cast<std::uint64_t>(INT_MAX)));
    result_.run.metrics = total;
    // Graceful degradation: a solved run returns the frozen witness; an
    // unsolved one hands back the least violating complete snapshot seen
    // (falling back to the final one).
    result_.run.assignment =
        solved_ ? solution_ : (have_best_ ? best_ : values_);

    if (total.monitor.violations > 0 && !config_.emit_dir.empty()) {
      analysis::ReproBundle bundle = config_.job.bundle;
      bundle.transport = config_.transport;
      bundle.deadline_ms = config_.deadline_ms;
      bundle.coordinator_incarnations = static_cast<int>(coord_incarnation_);
      bundle.reason = "monitor violation (" + config_.transport + " transport)";
      bundle.observed.reset();  // async replay cannot match a wall-clock run
      result_.bundle_path = analysis::emit_bundle(config_.emit_dir, bundle);
    }
    return result_;
  }

  std::int64_t elapsed() const { return steady_now_ms() - start_ms_; }

  static constexpr std::int64_t kHelloTimeoutMs = 5000;

  Listener& listener_;
  ServeConfig config_;
  const Problem& problem_;
  VarId num_vars_;
  int num_workers_;
  std::uint64_t digest_;
  sim::WireLimits limits_;
  PeerSupervisor supervisor_;
  sim::InvariantMonitor monitor_;
  DeadlineBudget budget_;

  std::vector<Slot> slots_;
  std::vector<PendingConn> pending_;
  FullAssignment values_;
  std::vector<std::uint64_t> max_seq_;
  /// Current shard owning each agent; equals shard_of until migration moves
  /// it. All routing (routes, acks, seq-floor handouts) goes by owner.
  std::vector<int> owner_;
  std::vector<CapsuleInfo> capsules_;
  /// Per-agent "already in migrate_queue_" dedup flag.
  std::vector<bool> queued_;
  std::deque<AgentId> migrate_queue_;
  /// Per-slot wall-clock of the detach that started the permanent-loss
  /// window (-1 = attached, or loss already declared).
  std::vector<std::int64_t> detached_since_;
  std::uint64_t migrations_ = 0;
  /// Frames dropped by the ownership fence (stale incarnation traffic).
  std::uint64_t fenced_ = 0;
  FullAssignment best_;
  std::size_t best_violations_ = 0;
  bool have_best_ = false;
  /// The snapshot that won (frozen at declaration; see evaluate()).
  FullAssignment solution_;

  std::unique_ptr<CoordJournal> journal_;
  std::uint64_t coord_incarnation_ = 1;
  bool resumed_ = false;
  bool halted_ = false;
  AgentId insoluble_agent_ = kNoAgent;

  ServeResult result_;
  StopReason reason_ = StopReason::kShutdown;
  bool stopping_ = false;
  bool solved_ = false;
  bool insoluble_ = false;
  bool all_attached_once_ = false;
  int restarts_ = 0;
  int idle_rounds_ = 0;
  std::uint64_t last_sent_total_ = 0;
  std::uint64_t last_processed_total_ = 0;
  std::int64_t last_quiesce_eval_ = 0;
  std::uint64_t nonce_ = 1;
  std::int64_t start_ms_ = 0;
  /// Frames shed by coordinator-side send backpressure (retired + live
  /// connections; see Connection::dropped_frames).
  std::uint64_t coord_drops_ = 0;
  /// Reusable encode scratch for the forwarding hot path (capacity
  /// persists, so steady-state routing allocates nothing).
  WireFrame net_scratch_;
  /// Per-owner ACK frames handle_ack splits a batch into (reused).
  std::vector<NetFrame> ack_split_;
};

}  // namespace

ServeResult serve(Listener& listener, const ServeConfig& config) {
  config.supervisor.validate();
  Coordinator coordinator(listener, config);
  return coordinator.run();
}

}  // namespace discsp::net
