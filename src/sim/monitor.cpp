#include "sim/monitor.h"

#include <sstream>
#include <stdexcept>

namespace discsp::sim {

const char* to_string(InvariantKind kind) {
  switch (kind) {
    case InvariantKind::kSolutionExcluded: return "solution-excluded";
    case InvariantKind::kFalseInsolubility: return "false-insolubility";
    case InvariantKind::kConservation: return "conservation";
    case InvariantKind::kForgedSeq: return "forged-seq";
    case InvariantKind::kStall: return "stall";
    case InvariantKind::kMigrationLoss: return "migration-loss";
  }
  return "unknown";
}

InvariantMonitor::InvariantMonitor(MonitorConfig config, int num_agents)
    : config_(std::move(config)), num_agents_(num_agents) {
  if (num_agents <= 0) {
    throw std::invalid_argument("invariant monitor needs agents");
  }
  const auto n = static_cast<std::size_t>(num_agents);
  max_sent_seq_.assign(n, 0);
  last_delivered_seq_.assign(n * n, 0);
}

void InvariantMonitor::note_check() { ++summary_.checks; }

void InvariantMonitor::violate(InvariantKind kind, std::string detail,
                               std::int64_t now) {
  ++summary_.violations;
  if (summary_.reports.size() < config_.max_reports) {
    std::ostringstream out;
    out << "[t=" << now << "] " << to_string(kind) << ": " << detail;
    summary_.reports.push_back(out.str());
  }
}

void InvariantMonitor::screen_nogood(AgentId from, const Nogood& nogood,
                                     std::int64_t now) {
  if (!screening()) return;
  ++summary_.nogoods_screened;
  // The planted witness is a full assignment, so a nogood excludes it iff
  // every member assignment matches it exactly.
  const bool excludes = nogood.violated_by([&](VarId var) {
    const auto idx = static_cast<std::size_t>(var);
    return idx < config_.planted.size() ? config_.planted[idx] : kNoValue;
  });
  if (excludes) {
    violate(InvariantKind::kSolutionExcluded,
            "agent " + std::to_string(from) + " learned " + nogood.str() +
                ", which rules out the planted solution",
            now);
  }
}

void InvariantMonitor::track_send_seq(AgentId from,
                                      const MessagePayload& payload) {
  if (from < 0 || from >= num_agents_) return;
  std::uint64_t seq = 0;
  if (const auto* ok = std::get_if<OkMessage>(&payload)) seq = ok->seq;
  if (const auto* imp = std::get_if<ImproveMessage>(&payload)) seq = imp->seq;
  auto& max_seq = max_sent_seq_[static_cast<std::size_t>(from)];
  if (seq > max_seq) max_seq = seq;
}

void InvariantMonitor::on_send(AgentId from, const MessagePayload& payload,
                               std::int64_t now) {
  note_check();
  track_send_seq(from, payload);
  if (const auto* ng = std::get_if<NogoodMessage>(&payload)) {
    screen_nogood(from, ng->nogood, now);
  }
}

void InvariantMonitor::on_deliver(AgentId from, AgentId to,
                                  const MessagePayload& payload,
                                  std::int64_t now) {
  note_check();
  std::uint64_t seq = 0;
  if (const auto* ok = std::get_if<OkMessage>(&payload)) seq = ok->seq;
  if (const auto* imp = std::get_if<ImproveMessage>(&payload)) seq = imp->seq;
  if (seq != 0 && from >= 0 && from < num_agents_) {
    // (c) A delivered seq beyond anything its sender ever issued means a
    // forged or corrupted value slipped past frame validation.
    if (seq > max_sent_seq_[static_cast<std::size_t>(from)]) {
      violate(InvariantKind::kForgedSeq,
              "delivery " + std::to_string(from) + "->" + std::to_string(to) +
                  " carries seq " + std::to_string(seq) +
                  " which the sender never issued",
              now);
    }
    if (to >= 0 && to < num_agents_) {
      auto& last = last_delivered_seq_[static_cast<std::size_t>(from) *
                                           static_cast<std::size_t>(num_agents_) +
                                       static_cast<std::size_t>(to)];
      if (seq < last) ++summary_.seq_regressions;  // legal under reordering
      else last = seq;
    }
  }
  if (const auto* ng = std::get_if<NogoodMessage>(&payload)) {
    // Screened at send time too; re-screening at delivery catches anything
    // that mutated in transit yet survived validation.
    screen_nogood(from, ng->nogood, now);
  }
}

void InvariantMonitor::on_insoluble(AgentId agent, std::int64_t now) {
  note_check();
  if (!screening() || insoluble_reported_) return;
  insoluble_reported_ = true;
  violate(InvariantKind::kFalseInsolubility,
          "agent " + std::to_string(agent) +
              " proved insolubility of an instance with a planted solution",
          now);
}

void InvariantMonitor::on_progress(std::int64_t now) {
  if (now > last_progress_) last_progress_ = now;
}

void InvariantMonitor::on_activation(std::int64_t now) {
  if (config_.stall_window <= 0) return;
  note_check();
  if (now - last_progress_ >= config_.stall_window) {
    ++summary_.stalls;
    // Informational: livelock is a legal outcome of heuristic search under
    // faults. Reset the window so one long stall counts once per window.
    last_progress_ = now;
  }
}

void InvariantMonitor::check_conservation(std::uint64_t scheduled,
                                          std::uint64_t delivered,
                                          std::uint64_t queued,
                                          std::int64_t now) {
  note_check();
  if (scheduled != delivered + queued) {
    violate(InvariantKind::kConservation,
            "scheduled " + std::to_string(scheduled) + " != delivered " +
                std::to_string(delivered) + " + queued " +
                std::to_string(queued),
            now);
  }
}

void InvariantMonitor::check_handoff(AgentId agent, std::uint64_t expected,
                                     std::uint64_t imported, std::int64_t now) {
  note_check();
  if (imported < expected) {
    violate(InvariantKind::kMigrationLoss,
            "agent " + std::to_string(agent) + " adopted with " +
                std::to_string(imported) + " learned entries, capsule shipped " +
                std::to_string(expected),
            now);
  }
}

MonitorSummary InvariantMonitor::summary() const {
  return summary_;
}

}  // namespace discsp::sim
