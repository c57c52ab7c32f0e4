// Message vocabulary of the distributed algorithms, plus the checksummed
// wire format the fault layer's corruption model targets.
//
// AWC/ABT use ok?, nogood and add_link messages; DB uses ok? and improve.
// The payload is a closed variant: engines move envelopes around without
// knowing which algorithm is running.
//
// Wire format: when corruption is possible (FaultConfig::corrupt_rate > 0)
// engines serialize every payload into a WireFrame — a flat word vector
// ending in an FNV-1a checksum — and receivers must (1) verify the checksum,
// (2) semantically validate every field (sender/var ids exist, values lie in
// their domains, priorities/seqs are sane) before any agent state changes.
// Malformed frames are dropped and counted; the ack/retransmit layer then
// repairs them like any lost message. A ChannelGuard additionally
// quarantines channels that exceed a malformed-frame budget.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "csp/nogood.h"

namespace discsp {
class Problem;
}

namespace discsp::sim {

/// "My variable currently has this value (and this priority)."
struct OkMessage {
  AgentId sender = kNoAgent;
  VarId var = kNoVar;
  Value value = kNoValue;
  Priority priority = 0;
  /// Sender-side state version (monotone per sender). 0 = unsequenced.
  /// Hardened receivers drop ok? messages older than the newest seen from
  /// the same sender, so duplicated or reordered delivery cannot regress
  /// their view (see docs/FAULT_MODEL.md).
  std::uint64_t seq = 0;
};

/// "This combination of values is impossible" — carries a learned nogood.
struct NogoodMessage {
  AgentId sender = kNoAgent;
  Nogood nogood;
};

/// "Start sending me ok? messages for your variable" — sent when a received
/// nogood mentions a variable the receiver has no link to yet, and by
/// crash-recovering agents re-requesting every link's current value.
struct AddLinkMessage {
  AgentId sender = kNoAgent;
  /// The variable whose updates are requested; kNoVar = "whatever you own"
  /// (crash recovery knows the neighbor agent but not its variable).
  VarId var = kNoVar;
};

/// DB wave-B payload: possible improvement and current cost.
struct ImproveMessage {
  AgentId sender = kNoAgent;
  VarId var = kNoVar;
  std::int64_t improve = 0;
  std::int64_t eval = 0;
  /// Sender's round number (monotone). 0 = unsequenced. Hardened DB agents
  /// track per-neighbor rounds instead of raw arrival counts, so duplicated
  /// or reordered waves cannot desynchronize the two-wave protocol.
  std::uint64_t seq = 0;
};

using MessagePayload = std::variant<OkMessage, NogoodMessage, AddLinkMessage, ImproveMessage>;

/// Debug rendering ("ok?(a3: x3=1 prio 2)" etc.).
std::string to_string(const MessagePayload& payload);

/// Sink through which agents emit messages; engines provide the transport.
class MessageSink {
 public:
  virtual ~MessageSink() = default;
  virtual void send(AgentId to, MessagePayload payload) = 0;
};

// ---------------------------------------------------------------------------
// Checksummed wire format.

/// A serialized payload: [kind, fields..., checksum]. The checksum is FNV-1a
/// over the word count and every preceding word, so truncation, bit flips
/// and field rewrites are all detectable.
using WireFrame = std::vector<std::uint64_t>;

/// Semantic bounds a decoded frame is validated against. Values beyond these
/// can only come from corruption (or a protocol bug) and are rejected before
/// any agent sees them.
struct WireLimits {
  AgentId num_agents = 0;
  std::vector<int> domain_sizes;  ///< indexed by VarId; size = num variables
  /// Sanity caps on unbounded numeric fields: anything larger is treated as
  /// corruption (no legitimate run approaches 2^48 messages or costs).
  static constexpr std::uint64_t kMaxSeq = 1ULL << 48;
  static constexpr std::int64_t kMaxMagnitude = 1LL << 48;

  VarId num_vars() const { return static_cast<VarId>(domain_sizes.size()); }
};

/// Bounds for `problem` solved by `num_agents` agents.
WireLimits wire_limits_for(const Problem& problem, int num_agents);

/// Serialize a payload into a checksummed frame.
WireFrame encode_frame(const MessagePayload& payload);

/// Serialize into a caller-provided scratch frame, reusing its capacity.
/// The hot-path form: a sender encoding thousands of frames keeps one
/// scratch vector alive instead of allocating per frame.
void encode_frame_into(const MessagePayload& payload, WireFrame& frame);

/// Append the FNV-1a checksum word to `frame` (the same sealing scheme
/// decode_frame verifies). Exposed so the net layer's control frames share
/// one checksum definition with the payload wire format.
void seal_frame(WireFrame& frame);
/// True when `frame` ends in a checksum word matching its preceding words.
bool verify_sealed_frame(std::span<const std::uint64_t> frame);

/// Why a frame was rejected.
enum class DecodeError {
  kNone = 0,
  kTruncated,   ///< too short to hold its declared shape
  kChecksum,    ///< FNV mismatch (bit flip / truncation)
  kBadKind,     ///< unknown payload tag
  kBadAgent,    ///< sender id outside [0, num_agents)
  kBadVar,      ///< variable id outside the problem
  kBadValue,    ///< value outside its variable's domain
  kBadBounds,   ///< priority/seq/cost beyond sane limits, or malformed nogood
};
const char* to_string(DecodeError error);

struct DecodeResult {
  std::optional<MessagePayload> payload;  ///< engaged iff error == kNone
  DecodeError error = DecodeError::kNone;
  bool ok() const { return error == DecodeError::kNone; }
};

/// Verify the checksum, then semantically validate every field against
/// `limits`. Never throws on hostile input; any anomaly yields an error.
/// The span form decodes straight out of a larger buffer (a batched carrier
/// or a transport read buffer) without copying the words into a WireFrame.
DecodeResult decode_frame(std::span<const std::uint64_t> frame,
                          const WireLimits& limits);
inline DecodeResult decode_frame(const WireFrame& frame,
                                 const WireLimits& limits) {
  return decode_frame(std::span<const std::uint64_t>(frame.data(), frame.size()),
                      limits);
}

/// The corruption model's mutation modes (FaultConfig::corrupt_rate).
enum class CorruptMode {
  kBitFlip = 0,    ///< flip one bit anywhere (checksum catches it)
  kTruncate = 1,   ///< chop the frame short (length/checksum catches it)
  kRewrite = 2,    ///< out-of-range field rewrite with a *fixed-up* checksum
                   ///< (only semantic validation catches it)
};

/// Apply one deterministic mutation of `mode` driven by (r1, r2). The frame
/// is guaranteed to differ from the original, and every mode is constructed
/// to be rejected by decode_frame (kRewrite plants a value beyond every
/// field's semantic bound, so validation must refuse it even though the
/// checksum verifies).
void apply_corruption(WireFrame& frame, CorruptMode mode, std::uint64_t r1,
                      std::uint64_t r2);

/// Mutation used by the fault layer: mode and operands derived from `seed`.
void corrupt_frame(WireFrame& frame, std::uint64_t seed);

/// Receiver-side defense policy: counts malformed frames per channel and
/// quarantines a channel whose count exceeds `budget` within one window;
/// after `duration` the channel is readmitted and its budget resets.
/// Each run's sim::AgentHost drives its guard from one thread.
class ChannelGuard {
 public:
  /// `budget` 0 = count malformed frames but never quarantine.
  ChannelGuard(int num_agents, int budget, std::int64_t duration);

  /// Record one malformed frame on (from, to) at `now`; returns true when
  /// this pushes the channel into quarantine.
  bool record_malformed(AgentId from, AgentId to, std::int64_t now);

  /// True while (from, to) is quarantined at `now`. A window that has
  /// elapsed readmits the channel and resets its malformed budget.
  bool is_quarantined(AgentId from, AgentId to, std::int64_t now);

  /// Admission of one arriving wire frame on (from, to) at `now`: refuse it
  /// while the channel is quarantined (a quarantine drop), else decode it
  /// against `limits` into `payload`, counting a malformed frame when that
  /// fails. True iff `payload` holds a validated message to deliver.
  bool admit(AgentId from, AgentId to, std::int64_t now,
             std::span<const std::uint64_t> frame, const WireLimits& limits,
             MessagePayload& payload);

  std::uint64_t malformed_frames() const { return malformed_; }
  std::uint64_t quarantines() const { return quarantines_; }
  std::uint64_t quarantine_drops() const { return quarantine_drops_; }
  /// Channels readmitted after their quarantine window elapsed cleanly —
  /// the recovery half of `quarantines()`.
  std::uint64_t readmissions() const { return readmissions_; }

 private:
  struct Channel {
    int malformed_in_window = 0;
    std::int64_t quarantined_until = -1;
  };

  int num_agents_;
  int budget_;
  std::int64_t duration_;
  /// The tracked channel (from, to); null when quarantine is off or an id
  /// is out of range.
  Channel* channel(AgentId from, AgentId to);

  /// num_agents^2, row-major by sender; empty when quarantine is off.
  std::vector<Channel> channels_;
  std::uint64_t malformed_ = 0;
  std::uint64_t quarantines_ = 0;
  std::uint64_t quarantine_drops_ = 0;
  std::uint64_t readmissions_ = 0;
};

}  // namespace discsp::sim
