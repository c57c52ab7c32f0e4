#include "sim/message.h"

#include <sstream>

#include "common/hash.h"
#include "common/rng.h"
#include "csp/problem.h"

namespace discsp::sim {

std::string to_string(const MessagePayload& payload) {
  std::ostringstream out;
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, OkMessage>) {
          out << "ok?(a" << m.sender << ": x" << m.var << '=' << m.value
              << " prio " << m.priority;
          if (m.seq != 0) out << " seq " << m.seq;
          out << ')';
        } else if constexpr (std::is_same_v<T, NogoodMessage>) {
          out << "nogood(a" << m.sender << ": " << m.nogood << ')';
        } else if constexpr (std::is_same_v<T, AddLinkMessage>) {
          out << "add_link(a" << m.sender << " wants x" << m.var << ')';
        } else if constexpr (std::is_same_v<T, ImproveMessage>) {
          out << "improve(a" << m.sender << ": improve " << m.improve
              << " eval " << m.eval;
          if (m.seq != 0) out << " seq " << m.seq;
          out << ')';
        }
      },
      payload);
  return out.str();
}

// ---------------------------------------------------------------------------
// Wire format.
//
// Layouts (words):
//   ok?      [0, sender, var, zz(value), zz(priority), seq, ck]
//   nogood   [1, sender, count, (var, zz(value))*count, ck]
//   add_link [2, sender, zz(var), ck]
//   improve  [3, sender, var, zz(improve), zz(eval), seq, ck]
// ck = FNV-1a over the payload word count followed by every payload word.
// Signed fields travel zigzag-encoded so sentinels (kNoVar) stay compact.

namespace {

constexpr std::uint64_t kKindOk = 0;
constexpr std::uint64_t kKindNogood = 1;
constexpr std::uint64_t kKindAddLink = 2;
constexpr std::uint64_t kKindImprove = 3;

std::uint64_t zz_enc(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t zz_dec(std::uint64_t u) {
  return static_cast<std::int64_t>(u >> 1) ^ -static_cast<std::int64_t>(u & 1);
}

/// Checksum of frame[0 .. count). Folding the count first makes truncation
/// detectable even when the chopped frame happens to end in a plausible word.
std::uint64_t frame_checksum(std::span<const std::uint64_t> frame,
                             std::size_t count) {
  std::uint64_t h = fnv1a64_word(kFnvOffsetBasis,
                                 static_cast<std::uint64_t>(count));
  for (std::size_t i = 0; i < count; ++i) h = fnv1a64_word(h, frame[i]);
  return h;
}

void seal(WireFrame& frame) {
  frame.push_back(frame_checksum(frame, frame.size()));
}

/// Raw word as an agent/var id; anything outside [0, bound) is corruption.
bool valid_id(std::uint64_t word, std::int64_t bound) {
  return word < static_cast<std::uint64_t>(bound);
}

}  // namespace

WireLimits wire_limits_for(const Problem& problem, int num_agents) {
  WireLimits limits;
  limits.num_agents = num_agents;
  limits.domain_sizes.reserve(static_cast<std::size_t>(problem.num_variables()));
  for (VarId v = 0; v < problem.num_variables(); ++v) {
    limits.domain_sizes.push_back(problem.domain_size(v));
  }
  return limits;
}

void seal_frame(WireFrame& frame) { seal(frame); }

bool verify_sealed_frame(std::span<const std::uint64_t> frame) {
  if (frame.size() < 2) return false;
  return frame_checksum(frame, frame.size() - 1) == frame.back();
}

void encode_frame_into(const MessagePayload& payload, WireFrame& frame) {
  frame.clear();
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, OkMessage>) {
          frame.insert(frame.end(),
                       {kKindOk, static_cast<std::uint64_t>(m.sender),
                        static_cast<std::uint64_t>(m.var), zz_enc(m.value),
                        zz_enc(m.priority), m.seq});
        } else if constexpr (std::is_same_v<T, NogoodMessage>) {
          frame.insert(frame.end(),
                       {kKindNogood, static_cast<std::uint64_t>(m.sender),
                        static_cast<std::uint64_t>(m.nogood.size())});
          for (const Assignment& a : m.nogood) {
            frame.push_back(static_cast<std::uint64_t>(a.var));
            frame.push_back(zz_enc(a.value));
          }
        } else if constexpr (std::is_same_v<T, AddLinkMessage>) {
          frame.insert(frame.end(),
                       {kKindAddLink, static_cast<std::uint64_t>(m.sender),
                        zz_enc(m.var)});
        } else if constexpr (std::is_same_v<T, ImproveMessage>) {
          frame.insert(frame.end(),
                       {kKindImprove, static_cast<std::uint64_t>(m.sender),
                        static_cast<std::uint64_t>(m.var), zz_enc(m.improve),
                        zz_enc(m.eval), m.seq});
        }
      },
      payload);
  seal(frame);
}

WireFrame encode_frame(const MessagePayload& payload) {
  WireFrame frame;
  encode_frame_into(payload, frame);
  return frame;
}

const char* to_string(DecodeError error) {
  switch (error) {
    case DecodeError::kNone: return "none";
    case DecodeError::kTruncated: return "truncated";
    case DecodeError::kChecksum: return "checksum";
    case DecodeError::kBadKind: return "bad-kind";
    case DecodeError::kBadAgent: return "bad-agent";
    case DecodeError::kBadVar: return "bad-var";
    case DecodeError::kBadValue: return "bad-value";
    case DecodeError::kBadBounds: return "bad-bounds";
  }
  return "unknown";
}

DecodeResult decode_frame(std::span<const std::uint64_t> frame,
                          const WireLimits& limits) {
  const auto fail = [](DecodeError e) { return DecodeResult{std::nullopt, e}; };
  // Smallest legal frame is add_link: kind + sender + var + checksum.
  if (frame.size() < 4) return fail(DecodeError::kTruncated);
  const std::size_t count = frame.size() - 1;
  if (frame_checksum(frame, count) != frame.back()) {
    return fail(DecodeError::kChecksum);
  }
  // Checksum verified; every anomaly past this point is a semantic rewrite
  // (or a sender-side protocol bug) and must still be refused.
  const std::uint64_t kind = frame[0];
  if (kind > kKindImprove) return fail(DecodeError::kBadKind);
  if (!valid_id(frame[1], limits.num_agents)) return fail(DecodeError::kBadAgent);
  const auto sender = static_cast<AgentId>(frame[1]);
  const VarId num_vars = limits.num_vars();
  const auto valid_value = [&](VarId var, std::int64_t value) {
    return value >= 0 &&
           value < limits.domain_sizes[static_cast<std::size_t>(var)];
  };

  switch (kind) {
    case kKindOk: {
      if (count != 6) return fail(DecodeError::kTruncated);
      if (!valid_id(frame[2], num_vars)) return fail(DecodeError::kBadVar);
      const auto var = static_cast<VarId>(frame[2]);
      const std::int64_t value = zz_dec(frame[3]);
      if (!valid_value(var, value)) return fail(DecodeError::kBadValue);
      const std::int64_t priority = zz_dec(frame[4]);
      if (priority < 0 || priority > WireLimits::kMaxMagnitude) {
        return fail(DecodeError::kBadBounds);
      }
      if (frame[5] > WireLimits::kMaxSeq) return fail(DecodeError::kBadBounds);
      OkMessage m;
      m.sender = sender;
      m.var = var;
      m.value = static_cast<Value>(value);
      m.priority = static_cast<Priority>(priority);
      m.seq = frame[5];
      return DecodeResult{MessagePayload{m}, DecodeError::kNone};
    }
    case kKindNogood: {
      if (count < 3) return fail(DecodeError::kTruncated);
      // More assignments than variables would force a duplicate: refuse
      // before even looking at the pairs (also bounds the loop below).
      if (frame[2] > static_cast<std::uint64_t>(num_vars)) {
        return fail(DecodeError::kBadBounds);
      }
      const auto pairs = static_cast<std::size_t>(frame[2]);
      if (count != 3 + 2 * pairs) return fail(DecodeError::kTruncated);
      std::vector<Assignment> items;
      items.reserve(pairs);
      for (std::size_t p = 0; p < pairs; ++p) {
        const std::uint64_t raw_var = frame[3 + 2 * p];
        if (!valid_id(raw_var, num_vars)) return fail(DecodeError::kBadVar);
        const auto var = static_cast<VarId>(raw_var);
        const std::int64_t value = zz_dec(frame[4 + 2 * p]);
        if (!valid_value(var, value)) return fail(DecodeError::kBadValue);
        // A duplicate variable would break the Nogood canonical-form
        // invariant (and conflicting values would assert in debug builds):
        // refuse before constructing. Nogoods are small; O(k^2) is fine.
        for (const Assignment& prev : items) {
          if (prev.var == var) return fail(DecodeError::kBadBounds);
        }
        items.push_back(Assignment{var, static_cast<Value>(value)});
      }
      NogoodMessage m;
      m.sender = sender;
      m.nogood = Nogood(std::move(items));
      return DecodeResult{MessagePayload{std::move(m)}, DecodeError::kNone};
    }
    case kKindAddLink: {
      if (count != 3) return fail(DecodeError::kTruncated);
      const std::int64_t var = zz_dec(frame[2]);
      if (var != kNoVar && !(var >= 0 && var < num_vars)) {
        return fail(DecodeError::kBadVar);
      }
      AddLinkMessage m;
      m.sender = sender;
      m.var = static_cast<VarId>(var);
      return DecodeResult{MessagePayload{m}, DecodeError::kNone};
    }
    case kKindImprove: {
      if (count != 6) return fail(DecodeError::kTruncated);
      if (!valid_id(frame[2], num_vars)) return fail(DecodeError::kBadVar);
      const std::int64_t improve = zz_dec(frame[3]);
      const std::int64_t eval = zz_dec(frame[4]);
      if (improve < -WireLimits::kMaxMagnitude ||
          improve > WireLimits::kMaxMagnitude || eval < 0 ||
          eval > WireLimits::kMaxMagnitude) {
        return fail(DecodeError::kBadBounds);
      }
      if (frame[5] > WireLimits::kMaxSeq) return fail(DecodeError::kBadBounds);
      ImproveMessage m;
      m.sender = sender;
      m.var = static_cast<VarId>(frame[2]);
      m.improve = improve;
      m.eval = eval;
      m.seq = frame[5];
      return DecodeResult{MessagePayload{m}, DecodeError::kNone};
    }
    default:
      return fail(DecodeError::kBadKind);
  }
}

void apply_corruption(WireFrame& frame, CorruptMode mode, std::uint64_t r1,
                      std::uint64_t r2) {
  if (frame.size() < 2) return;  // nothing sensible to mutate
  switch (mode) {
    case CorruptMode::kBitFlip: {
      const std::size_t idx = static_cast<std::size_t>(r1 % frame.size());
      frame[idx] ^= 1ULL << (r2 % 64);
      return;
    }
    case CorruptMode::kTruncate: {
      const std::size_t new_size =
          1 + static_cast<std::size_t>(r1 % (frame.size() - 1));
      frame.resize(new_size);
      return;
    }
    case CorruptMode::kRewrite: {
      // Rewrite one payload word (never the kind, never the checksum) to a
      // value with bit 52 set — beyond every semantic bound (ids, domain
      // values, priorities, seq <= 2^48) yet below zigzag overflow — then
      // fix the checksum up so only the semantic validator can refuse it.
      std::size_t span = frame.size() >= 4 ? frame.size() - 2 : 1;
      const std::size_t idx = 1 + static_cast<std::size_t>(r1 % span);
      frame[idx] = (1ULL << 52) | (r2 & 0xfffffULL);
      frame.back() = frame_checksum(frame, frame.size() - 1);
      return;
    }
  }
}

void corrupt_frame(WireFrame& frame, std::uint64_t seed) {
  std::uint64_t state = seed;
  const std::uint64_t pick = splitmix64(state);
  const std::uint64_t r1 = splitmix64(state);
  const std::uint64_t r2 = splitmix64(state);
  apply_corruption(frame, static_cast<CorruptMode>(pick % 3), r1, r2);
}

// ---------------------------------------------------------------------------
// ChannelGuard.

ChannelGuard::ChannelGuard(int num_agents, int budget, std::int64_t duration)
    : num_agents_(num_agents), budget_(budget), duration_(duration),
      channels_(budget > 0 ? static_cast<std::size_t>(num_agents) *
                                 static_cast<std::size_t>(num_agents)
                           : 0) {}

ChannelGuard::Channel* ChannelGuard::channel(AgentId from, AgentId to) {
  if (budget_ <= 0 || from < 0 || from >= num_agents_ || to < 0 ||
      to >= num_agents_) {
    return nullptr;
  }
  return &channels_[static_cast<std::size_t>(from) *
                        static_cast<std::size_t>(num_agents_) +
                    static_cast<std::size_t>(to)];
}

bool ChannelGuard::record_malformed(AgentId from, AgentId to, std::int64_t now) {
  ++malformed_;
  Channel* ch = channel(from, to);
  if (ch == nullptr) return false;
  if (++ch->malformed_in_window > budget_) {
    ch->malformed_in_window = 0;
    ch->quarantined_until = now + duration_;
    ++quarantines_;
    return true;
  }
  return false;
}

bool ChannelGuard::is_quarantined(AgentId from, AgentId to, std::int64_t now) {
  Channel* ch = channel(from, to);
  if (ch == nullptr || ch->quarantined_until < 0) return false;
  if (now < ch->quarantined_until) return true;
  // Window elapsed: readmit the channel with a fresh malformed budget.
  ch->quarantined_until = -1;
  ch->malformed_in_window = 0;
  ++readmissions_;
  return false;
}

bool ChannelGuard::admit(AgentId from, AgentId to, std::int64_t now,
                         std::span<const std::uint64_t> frame,
                         const WireLimits& limits, MessagePayload& payload) {
  if (is_quarantined(from, to, now)) {
    ++quarantine_drops_;
    return false;
  }
  DecodeResult decoded = decode_frame(frame, limits);
  if (!decoded.ok()) {
    record_malformed(from, to, now);
    return false;
  }
  payload = std::move(*decoded.payload);
  return true;
}

}  // namespace discsp::sim
