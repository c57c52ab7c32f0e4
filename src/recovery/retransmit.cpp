#include "recovery/retransmit.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <tuple>
#include <utility>

namespace discsp::recovery {

namespace {

/// Independent stream per (seed, from, to): splitmix64 over a mixed key —
/// the same derivation the fault plan uses for its channel streams.
Rng derive_stream(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ULL * (a + 1)) ^
                        (0xbf58476d1ce4e5b9ULL * (b + 1));
  return Rng(splitmix64(state));
}

}  // namespace

void RetransmitConfig::validate() const {
  if (ack_timeout < 0) throw std::invalid_argument("ack_timeout must be >= 0");
  if (backoff < 1.0) throw std::invalid_argument("backoff must be >= 1");
  if (max_timeout < 0) throw std::invalid_argument("max_timeout must be >= 0");
  if (max_attempts < 0) throw std::invalid_argument("max_attempts must be >= 0");
}

std::int64_t RetransmitConfig::timeout_for(int attempt, Rng& jitter) const {
  const std::int64_t cap = max_timeout > 0 ? max_timeout : ack_timeout * 64;
  double timeout = static_cast<double>(ack_timeout);
  for (int i = 0; i < attempt && timeout < static_cast<double>(cap); ++i) {
    timeout *= backoff;
  }
  std::int64_t t = std::min<std::int64_t>(
      cap, static_cast<std::int64_t>(std::llround(timeout)));
  // Deterministic per-channel jitter desynchronizes retry bursts without
  // breaking reproducibility: one draw per scheduled retry.
  const std::int64_t spread = std::max<std::int64_t>(1, t / 4);
  return t + static_cast<std::int64_t>(jitter.below(
                 static_cast<std::uint64_t>(spread) + 1));
}

RetransmitBuffer::RetransmitBuffer(const RetransmitConfig& config, int num_agents)
    : config_(config), num_agents_(num_agents) {
  config_.validate();
  if (num_agents <= 0) throw std::invalid_argument("retransmit buffer needs agents");
  const auto n = static_cast<std::size_t>(num_agents);
  channels_.resize(n * n);
  for (std::size_t from = 0; from < n; ++from) {
    for (std::size_t to = 0; to < n; ++to) {
      channels_[from * n + to].jitter = derive_stream(config_.seed, from, to);
    }
  }
}

RetransmitBuffer::Channel& RetransmitBuffer::channel(AgentId from, AgentId to) {
  return const_cast<Channel&>(std::as_const(*this).channel(from, to));
}

const RetransmitBuffer::Channel& RetransmitBuffer::channel(AgentId from,
                                                           AgentId to) const {
  if (from < 0 || from >= num_agents_ || to < 0 || to >= num_agents_) {
    throw std::out_of_range("retransmit buffer consulted for an unknown channel");
  }
  return channels_[static_cast<std::size_t>(from) *
                       static_cast<std::size_t>(num_agents_) +
                   static_cast<std::size_t>(to)];
}

bool RetransmitBuffer::live(const Deadline& d) const {
  const auto& pending = channels_[d.channel].pending;
  const auto it = pending.find(d.seq);
  return it != pending.end() && it->second.deadline == d.at;
}

void RetransmitBuffer::schedule(std::size_t channel, std::uint64_t seq,
                                std::int64_t at) {
  // Stale entries are only shed as they surface; once they outnumber the
  // live ones, drop them all in one linear pass (amortised O(1) per entry).
  if (deadlines_.size() >= 2 * pending_count_ + 64) {
    deadlines_.erase(std::remove_if(deadlines_.begin(), deadlines_.end(),
                                    [&](const Deadline& d) { return !live(d); }),
                     deadlines_.end());
    std::make_heap(deadlines_.begin(), deadlines_.end(), std::greater<>{});
  }
  deadlines_.push_back({at, channel, seq});
  std::push_heap(deadlines_.begin(), deadlines_.end(), std::greater<>{});
}

void RetransmitBuffer::pop_deadline() const {
  std::pop_heap(deadlines_.begin(), deadlines_.end(), std::greater<>{});
  deadlines_.pop_back();
}

std::uint64_t RetransmitBuffer::track(AgentId from, AgentId to,
                                      const sim::MessagePayload& payload,
                                      std::int64_t now) {
  Channel& ch = channel(from, to);
  const std::uint64_t seq = ch.next_seq++;
  Pending pending;
  pending.payload = std::make_shared<const sim::MessagePayload>(payload);
  pending.deadline = now + config_.timeout_for(0, ch.jitter);
  const std::int64_t at = pending.deadline;
  ch.pending.emplace(seq, std::move(pending));
  ++pending_count_;
  schedule(static_cast<std::size_t>(&ch - channels_.data()), seq, at);
  return seq;
}

void RetransmitBuffer::ack(AgentId from, AgentId to, std::uint64_t seq) {
  pending_count_ -= channel(from, to).pending.erase(seq);
}

bool RetransmitBuffer::mark_delivered(AgentId from, AgentId to, std::uint64_t seq) {
  Channel& ch = channel(from, to);
  if (ch.delivered(seq)) return true;
  if (seq != ch.delivered_floor + 1) {
    ch.delivered_above.insert(seq);
    return false;
  }
  // The gap at the floor closed: absorb the run of seqs that now follow it.
  ++ch.delivered_floor;
  auto& above = ch.delivered_above;
  while (!above.empty() && *above.begin() == ch.delivered_floor + 1) {
    above.erase(above.begin());
    ++ch.delivered_floor;
  }
  return false;
}

std::size_t RetransmitBuffer::delivered_above_floor(AgentId from, AgentId to) const {
  return channel(from, to).delivered_above.size();
}

std::optional<std::int64_t> RetransmitBuffer::next_deadline() const {
  while (!deadlines_.empty() && !live(deadlines_.front())) pop_deadline();
  if (deadlines_.empty()) return std::nullopt;
  return deadlines_.front().at;
}

std::vector<RetransmitBuffer::Due> RetransmitBuffer::collect_due(std::int64_t now) {
  std::vector<Deadline> fired;
  while (!deadlines_.empty() && deadlines_.front().at <= now) {
    if (live(deadlines_.front())) fired.push_back(deadlines_.front());
    pop_deadline();
  }
  // Channel index is row-major by sender, so this is the order of a full
  // from-major scan: each channel's jitter stream sees its retries in seq
  // order whatever order the heap released them in.
  std::sort(fired.begin(), fired.end(),
            [](const Deadline& a, const Deadline& b) {
              return std::tie(a.channel, a.seq) < std::tie(b.channel, b.seq);
            });
  const auto n = static_cast<std::size_t>(num_agents_);
  std::vector<Due> due;
  for (const Deadline& f : fired) {
    Channel& ch = channels_[f.channel];
    const auto it = ch.pending.find(f.seq);
    Pending& pending = it->second;
    if (pending.attempts >= config_.max_attempts) {
      // Give up; the anti-entropy heartbeat fallback owns this repair.
      ++gave_up_;
      ch.pending.erase(it);
      --pending_count_;
      continue;
    }
    ++pending.attempts;
    ++retransmissions_;
    Due d;
    d.from = static_cast<AgentId>(f.channel / n);
    d.to = static_cast<AgentId>(f.channel % n);
    d.seq = f.seq;
    d.payload = pending.payload;
    d.attempt = pending.attempts;
    d.false_positive = ch.delivered(f.seq);
    if (d.false_positive) ++false_positives_;
    pending.deadline = now + config_.timeout_for(pending.attempts, ch.jitter);
    schedule(f.channel, f.seq, pending.deadline);
    due.push_back(std::move(d));
  }
  return due;
}

void RetransmitBuffer::forget_agent(AgentId agent) {
  if (agent < 0 || agent >= num_agents_) {
    throw std::out_of_range("retransmit buffer consulted for an unknown agent");
  }
  const auto n = static_cast<std::size_t>(num_agents_);
  const auto a = static_cast<std::size_t>(agent);
  for (std::size_t other = 0; other < n; ++other) {
    // Agent as sender: its heap entries go stale with the pending sends.
    Channel& out = channels_[a * n + other];
    pending_count_ -= out.pending.size();
    out.pending.clear();
    // Agent as receiver.
    Channel& in = channels_[other * n + a];
    in.delivered_floor = 0;
    in.delivered_above.clear();
  }
}

}  // namespace discsp::recovery
