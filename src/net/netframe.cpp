#include "net/netframe.h"

namespace discsp::net {

namespace {

// Net frame kinds (word 0). Payload kinds are 0..3; keeping a wide gap means
// a routed payload frame mistakenly fed to decode_net_frame (or vice versa)
// is rejected as kBadKind instead of being misparsed.
constexpr std::uint64_t kKindHello = 100;
constexpr std::uint64_t kKindWelcome = 101;
constexpr std::uint64_t kKindJob = 102;
constexpr std::uint64_t kKindRoute = 103;
constexpr std::uint64_t kKindAck = 104;
constexpr std::uint64_t kKindStats = 105;
constexpr std::uint64_t kKindStop = 106;
constexpr std::uint64_t kKindPing = 107;
constexpr std::uint64_t kKindPong = 108;
constexpr std::uint64_t kKindError = 109;
constexpr std::uint64_t kKindMigrate = 110;
constexpr std::uint64_t kKindAdopt = 111;
constexpr std::uint64_t kKindAdoptAck = 112;
constexpr std::uint64_t kKindRelease = 113;

std::uint64_t zz_enc(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t zz_dec(std::uint64_t u) {
  return static_cast<std::int64_t>(u >> 1) ^ -static_cast<std::int64_t>(u & 1);
}

/// Pack a byte string into words (8 bytes per word, little-endian order,
/// zero-padded tail) preceded by its byte length.
void pack_bytes(WireFrame& frame, const std::string& bytes) {
  frame.push_back(bytes.size());
  for (std::size_t i = 0; i < bytes.size(); i += 8) {
    std::uint64_t word = 0;
    for (std::size_t b = 0; b < 8 && i + b < bytes.size(); ++b) {
      word |= static_cast<std::uint64_t>(
                  static_cast<unsigned char>(bytes[i + b]))
              << (8 * b);
    }
    frame.push_back(word);
  }
}

}  // namespace

const char* to_string(StopReason reason) {
  switch (reason) {
    case StopReason::kSolved: return "solved";
    case StopReason::kInsoluble: return "insoluble";
    case StopReason::kDeadline: return "deadline";
    case StopReason::kQuiesced: return "quiesced";
    case StopReason::kShutdown: return "shutdown";
  }
  return "unknown";
}

const char* to_string(NetDecodeError error) {
  switch (error) {
    case NetDecodeError::kNone: return "none";
    case NetDecodeError::kTruncated: return "truncated";
    case NetDecodeError::kChecksum: return "checksum";
    case NetDecodeError::kBadKind: return "bad-kind";
    case NetDecodeError::kBadBounds: return "bad-bounds";
  }
  return "unknown";
}

WireFrame encode_net_frame(const NetFrame& frame) {
  WireFrame out;
  encode_net_frame_into(frame, out);
  return out;
}

void encode_net_frame_into(const NetFrame& frame, WireFrame& out) {
  std::visit(
      [&](const auto& f) {
        using T = std::decay_t<decltype(f)>;
        if constexpr (std::is_same_v<T, NetHello>) {
          out = {kKindHello, f.proto, f.shard, f.digest, f.coord_incarnation};
        } else if constexpr (std::is_same_v<T, NetWelcome>) {
          out = {kKindWelcome, f.proto,  f.shard,
                 f.num_workers, f.digest, f.incarnation,
                 f.restart ? 1ULL : 0ULL, f.coord_incarnation};
        } else if constexpr (std::is_same_v<T, NetJob>) {
          out = {kKindJob};
          pack_bytes(out, f.text);
        } else if constexpr (std::is_same_v<T, NetRoute>) {
          out = {kKindRoute, static_cast<std::uint64_t>(f.from),
                 static_cast<std::uint64_t>(f.to), f.track_seq,
                 static_cast<std::uint64_t>(f.frame.size())};
          out.insert(out.end(), f.frame.begin(), f.frame.end());
        } else if constexpr (std::is_same_v<T, NetAck>) {
          out = {kKindAck, static_cast<std::uint64_t>(f.entries.size())};
          for (const NetAck::Entry& e : f.entries) {
            out.push_back(static_cast<std::uint64_t>(e.from));
            out.push_back(static_cast<std::uint64_t>(e.to));
            out.push_back(e.seq);
          }
        } else if constexpr (std::is_same_v<T, NetStats>) {
          const std::uint64_t flags = (f.idle ? 1ULL : 0ULL) |
                                      (f.insoluble ? 2ULL : 0ULL) |
                                      (f.final_report ? 4ULL : 0ULL);
          out = {kKindStats, f.shard, f.incarnation, flags,
                 zz_enc(f.insoluble_agent), f.sent, f.processed,
                 static_cast<std::uint64_t>(f.metrics_words.size())};
          out.insert(out.end(), f.metrics_words.begin(), f.metrics_words.end());
          out.push_back(f.values.size());
          for (const auto& [agent, value] : f.values) {
            out.push_back(static_cast<std::uint64_t>(agent));
            out.push_back(zz_enc(value));
          }
        } else if constexpr (std::is_same_v<T, NetStop>) {
          out = {kKindStop, static_cast<std::uint64_t>(f.reason)};
        } else if constexpr (std::is_same_v<T, NetPing>) {
          out = {kKindPing, f.nonce, zz_enc(f.sent_ms)};
        } else if constexpr (std::is_same_v<T, NetPong>) {
          out = {kKindPong, f.nonce, zz_enc(f.sent_ms)};
        } else if constexpr (std::is_same_v<T, NetError>) {
          out = {kKindError, static_cast<std::uint64_t>(f.code)};
        } else if constexpr (std::is_same_v<T, NetMigrate>) {
          out = {kKindMigrate, static_cast<std::uint64_t>(f.agent), f.seq,
                 f.release ? 1ULL : 0ULL,
                 static_cast<std::uint64_t>(f.capsule.size())};
          out.insert(out.end(), f.capsule.begin(), f.capsule.end());
        } else if constexpr (std::is_same_v<T, NetAdopt>) {
          out = {kKindAdopt, static_cast<std::uint64_t>(f.agent), f.seq_floor,
                 f.have_capsule ? 1ULL : 0ULL,
                 static_cast<std::uint64_t>(f.capsule.size())};
          out.insert(out.end(), f.capsule.begin(), f.capsule.end());
        } else if constexpr (std::is_same_v<T, NetAdoptAck>) {
          out = {kKindAdoptAck, static_cast<std::uint64_t>(f.agent), f.learned,
                 f.seq_floor};
        } else if constexpr (std::is_same_v<T, NetRelease>) {
          out = {kKindRelease, static_cast<std::uint64_t>(f.agent)};
        }
      },
      frame);
  sim::seal_frame(out);
}

NetDecodeResult decode_net_frame(const WireFrame& frame) {
  const auto fail = [](NetDecodeError e) {
    return NetDecodeResult{std::nullopt, e};
  };
  if (frame.size() < 2 || frame.size() > kMaxFrameWords) {
    return fail(NetDecodeError::kTruncated);
  }
  if (!sim::verify_sealed_frame(frame)) return fail(NetDecodeError::kChecksum);
  const std::size_t count = frame.size() - 1;  // payload words before checksum
  const std::uint64_t kind = frame[0];
  const auto agent_ok = [](std::uint64_t word) {
    // Agent ids are 32-bit and never negative on the wire.
    return word < (1ULL << 31);
  };

  switch (kind) {
    case kKindHello: {
      if (count != 5) return fail(NetDecodeError::kTruncated);
      NetHello f;
      f.proto = frame[1];
      f.shard = frame[2];
      f.digest = frame[3];
      f.coord_incarnation = frame[4];
      if (f.shard != kAnyShard && f.shard >= kMaxWorkers) {
        return fail(NetDecodeError::kBadBounds);
      }
      return {NetFrame{f}, NetDecodeError::kNone};
    }
    case kKindWelcome: {
      if (count != 8) return fail(NetDecodeError::kTruncated);
      NetWelcome f;
      f.proto = frame[1];
      f.shard = frame[2];
      f.num_workers = frame[3];
      f.digest = frame[4];
      f.incarnation = frame[5];
      if (frame[6] > 1) return fail(NetDecodeError::kBadBounds);
      f.restart = frame[6] == 1;
      f.coord_incarnation = frame[7];
      if (f.num_workers == 0 || f.num_workers > kMaxWorkers ||
          f.shard >= f.num_workers || f.coord_incarnation == 0) {
        return fail(NetDecodeError::kBadBounds);
      }
      return {NetFrame{std::move(f)}, NetDecodeError::kNone};
    }
    case kKindJob: {
      if (count < 2) return fail(NetDecodeError::kTruncated);
      const std::uint64_t bytes = frame[1];
      if (bytes > kMaxBlobBytes) return fail(NetDecodeError::kBadBounds);
      const std::size_t words = (static_cast<std::size_t>(bytes) + 7) / 8;
      if (count != 2 + words) return fail(NetDecodeError::kTruncated);
      NetJob f;
      f.text.reserve(static_cast<std::size_t>(bytes));
      for (std::size_t i = 0; i < bytes; ++i) {
        const std::uint64_t word = frame[2 + i / 8];
        f.text.push_back(static_cast<char>((word >> (8 * (i % 8))) & 0xff));
      }
      return {NetFrame{std::move(f)}, NetDecodeError::kNone};
    }
    case kKindRoute: {
      if (count < 5) return fail(NetDecodeError::kTruncated);
      if (!agent_ok(frame[1]) || !agent_ok(frame[2])) {
        return fail(NetDecodeError::kBadBounds);
      }
      // An empty embedded frame would reach the receiving agent unadmitted.
      const std::uint64_t inner = frame[4];
      if (inner == 0 || inner > kMaxFrameWords) {
        return fail(NetDecodeError::kBadBounds);
      }
      if (count != 5 + inner) return fail(NetDecodeError::kTruncated);
      NetRoute f;
      f.from = static_cast<AgentId>(frame[1]);
      f.to = static_cast<AgentId>(frame[2]);
      f.track_seq = frame[3];
      f.frame.assign(frame.begin() + 5, frame.begin() + 5 +
                                            static_cast<std::ptrdiff_t>(inner));
      return {NetFrame{std::move(f)}, NetDecodeError::kNone};
    }
    case kKindAck: {
      // [n, (from, to, seq) x n]. The count is bounded before 3 * n is
      // formed, so a hostile count cannot wrap the length check.
      if (count < 2) return fail(NetDecodeError::kTruncated);
      const std::uint64_t n = frame[1];
      if (n == 0 || n > kMaxFrameWords / 3) {
        return fail(NetDecodeError::kBadBounds);
      }
      if (count != 2 + 3 * n) return fail(NetDecodeError::kTruncated);
      NetAck f;
      f.entries.reserve(static_cast<std::size_t>(n));
      for (std::size_t at = 2; at < count; at += 3) {
        if (!agent_ok(frame[at]) || !agent_ok(frame[at + 1])) {
          return fail(NetDecodeError::kBadBounds);
        }
        f.entries.push_back({static_cast<AgentId>(frame[at]),
                             static_cast<AgentId>(frame[at + 1]),
                             frame[at + 2]});
      }
      return {NetFrame{std::move(f)}, NetDecodeError::kNone};
    }
    case kKindStats: {
      if (count < 8) return fail(NetDecodeError::kTruncated);
      NetStats f;
      f.shard = frame[1];
      f.incarnation = frame[2];
      const std::uint64_t flags = frame[3];
      if (f.shard >= kMaxWorkers || flags > 7) {
        return fail(NetDecodeError::kBadBounds);
      }
      f.idle = (flags & 1) != 0;
      f.insoluble = (flags & 2) != 0;
      f.final_report = (flags & 4) != 0;
      const std::int64_t insoluble_agent = zz_dec(frame[4]);
      if (insoluble_agent < kNoAgent || insoluble_agent > (1LL << 31)) {
        return fail(NetDecodeError::kBadBounds);
      }
      f.insoluble_agent = static_cast<AgentId>(insoluble_agent);
      f.sent = frame[5];
      f.processed = frame[6];
      const std::uint64_t n_metrics = frame[7];
      if (n_metrics > 64) return fail(NetDecodeError::kBadBounds);
      if (count < 9 + n_metrics) return fail(NetDecodeError::kTruncated);
      f.metrics_words.assign(
          frame.begin() + 8,
          frame.begin() + 8 + static_cast<std::ptrdiff_t>(n_metrics));
      const std::uint64_t n_values = frame[8 + n_metrics];
      if (n_values > kMaxFrameWords) return fail(NetDecodeError::kBadBounds);
      if (count != 9 + n_metrics + 2 * n_values) {
        return fail(NetDecodeError::kTruncated);
      }
      f.values.reserve(static_cast<std::size_t>(n_values));
      for (std::uint64_t i = 0; i < n_values; ++i) {
        const std::uint64_t raw_agent = frame[9 + n_metrics + 2 * i];
        if (!agent_ok(raw_agent)) return fail(NetDecodeError::kBadBounds);
        const std::int64_t value = zz_dec(frame[10 + n_metrics + 2 * i]);
        if (value < kNoValue || value > (1LL << 31)) {
          return fail(NetDecodeError::kBadBounds);
        }
        f.values.emplace_back(static_cast<AgentId>(raw_agent),
                              static_cast<Value>(value));
      }
      return {NetFrame{std::move(f)}, NetDecodeError::kNone};
    }
    case kKindStop: {
      if (count != 2) return fail(NetDecodeError::kTruncated);
      if (frame[1] > static_cast<std::uint64_t>(StopReason::kShutdown)) {
        return fail(NetDecodeError::kBadBounds);
      }
      return {NetFrame{NetStop{static_cast<StopReason>(frame[1])}},
              NetDecodeError::kNone};
    }
    case kKindPing:
    case kKindPong: {
      if (count != 3) return fail(NetDecodeError::kTruncated);
      if (kind == kKindPing) {
        return {NetFrame{NetPing{frame[1], zz_dec(frame[2])}},
                NetDecodeError::kNone};
      }
      return {NetFrame{NetPong{frame[1], zz_dec(frame[2])}},
              NetDecodeError::kNone};
    }
    case kKindError: {
      if (count != 2) return fail(NetDecodeError::kTruncated);
      if (frame[1] > static_cast<std::uint64_t>(NetErrorCode::kStaleCoordinator)) {
        return fail(NetDecodeError::kBadBounds);
      }
      return {NetFrame{NetError{static_cast<NetErrorCode>(frame[1])}},
              NetDecodeError::kNone};
    }
    case kKindMigrate:
    case kKindAdopt: {
      // Identical wire shape: [agent, seq word, flag, n_capsule, words...].
      if (count < 5) return fail(NetDecodeError::kTruncated);
      if (!agent_ok(frame[1]) || frame[3] > 1) {
        return fail(NetDecodeError::kBadBounds);
      }
      const std::uint64_t n_capsule = frame[4];
      if (n_capsule > kMaxFrameWords) return fail(NetDecodeError::kBadBounds);
      if (count != 5 + n_capsule) return fail(NetDecodeError::kTruncated);
      std::vector<std::uint64_t> capsule(
          frame.begin() + 5,
          frame.begin() + 5 + static_cast<std::ptrdiff_t>(n_capsule));
      if (kind == kKindMigrate) {
        NetMigrate f;
        f.agent = static_cast<AgentId>(frame[1]);
        f.seq = frame[2];
        f.release = frame[3] == 1;
        f.capsule = std::move(capsule);
        return {NetFrame{std::move(f)}, NetDecodeError::kNone};
      }
      NetAdopt f;
      f.agent = static_cast<AgentId>(frame[1]);
      f.seq_floor = frame[2];
      f.have_capsule = frame[3] == 1;
      if (!f.have_capsule && n_capsule != 0) {
        return fail(NetDecodeError::kBadBounds);
      }
      f.capsule = std::move(capsule);
      return {NetFrame{std::move(f)}, NetDecodeError::kNone};
    }
    case kKindAdoptAck: {
      if (count != 4) return fail(NetDecodeError::kTruncated);
      if (!agent_ok(frame[1])) return fail(NetDecodeError::kBadBounds);
      NetAdoptAck f;
      f.agent = static_cast<AgentId>(frame[1]);
      f.learned = frame[2];
      f.seq_floor = frame[3];
      return {NetFrame{f}, NetDecodeError::kNone};
    }
    case kKindRelease: {
      if (count != 2) return fail(NetDecodeError::kTruncated);
      if (!agent_ok(frame[1])) return fail(NetDecodeError::kBadBounds);
      return {NetFrame{NetRelease{static_cast<AgentId>(frame[1])}},
              NetDecodeError::kNone};
    }
    default:
      return fail(NetDecodeError::kBadKind);
  }
}

// Both directions walk sim::for_each_counter, whose order is the wire order.
std::vector<std::uint64_t> encode_metrics_words(const sim::RunMetrics& m) {
  std::vector<std::uint64_t> words;
  sim::for_each_counter(
      [&](sim::Fold, std::uint64_t value) { words.push_back(value); }, m);
  return words;
}

void decode_metrics_words(const std::vector<std::uint64_t>& words,
                          sim::RunMetrics& m) {
  std::size_t i = 0;
  sim::for_each_counter(
      [&](sim::Fold, std::uint64_t& slot) {
        if (i < words.size()) slot = words[i];
        ++i;
      },
      m);
}

}  // namespace discsp::net
