// Control-frame vocabulary of the multi-process transport.
//
// Everything crossing a net connection is a sealed WireFrame (sim/message.h
// checksum scheme): [kind, fields..., checksum]. Net kinds live at >= 100 so
// they can never be confused with the payload kinds of encode_frame. Routed
// agent traffic travels as a kNetRoute frame *embedding* a complete payload
// WireFrame, which the receiving worker still runs through decode_frame's
// two-layer (checksum + semantic) validation before any agent sees it —
// corruption injected by the sender-side fault bridge is caught exactly like
// in the in-process engines.
//
// Handshake: a connecting worker sends HELLO (protocol version, requested
// shard or "any", instance digest when it already holds one); the
// coordinator answers WELCOME (assigned shard, incarnation, restart flag,
// authoritative digest) followed by one JOB blob (the full job spec text,
// embedded instance included). A version or digest mismatch is answered with
// ERROR and the connection is closed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "sim/message.h"
#include "sim/metrics.h"

namespace discsp::net {

using sim::WireFrame;

/// Protocol version carried by every HELLO/WELCOME; bumped on any frame
/// layout change. v2 added the coordinator incarnation to both handshake
/// frames (coordinator failover, docs/NETWORK.md); v3 added the live shard
/// migration frames (MIGRATE/ADOPT/ADOPT_ACK/RELEASE) and the jobspec owner
/// overrides they imply; v4 turned ACK into a count-prefixed batch of
/// (from, to, seq) triples.
inline constexpr std::uint64_t kNetProtoVersion = 4;

/// HELLO `shard` value meaning "assign me any shard".
inline constexpr std::uint64_t kAnyShard = 0xffffffffULL;

/// Sanity caps used by the decoder: anything beyond these is corruption.
inline constexpr std::uint64_t kMaxWorkers = 4096;
inline constexpr std::uint64_t kMaxFrameWords = 1ULL << 20;  // 8 MiB
inline constexpr std::uint64_t kMaxBlobBytes = 1ULL << 22;   // 4 MiB

/// Worker -> coordinator: "I want to join (or rejoin) the run."
struct NetHello {
  std::uint64_t proto = kNetProtoVersion;
  std::uint64_t shard = kAnyShard;  ///< requested worker index or kAnyShard
  std::uint64_t digest = 0;         ///< instance digest held, 0 = none yet
  /// Highest coordinator incarnation this worker has been WELCOMEd by
  /// (0 = never attached). A coordinator with a *lower* incarnation than the
  /// worker has already seen is stale — a zombie predecessor still bound to
  /// the old endpoint — and must refuse the HELLO (kStaleCoordinator).
  std::uint64_t coord_incarnation = 0;
};

/// Coordinator -> worker: shard assignment + run identity.
struct NetWelcome {
  std::uint64_t proto = kNetProtoVersion;
  std::uint64_t shard = 0;        ///< assigned worker index
  std::uint64_t num_workers = 1;
  std::uint64_t digest = 0;       ///< distributed_digest of the instance
  std::uint64_t incarnation = 1;  ///< attach count for this shard slot
  bool restart = false;           ///< a previous incarnation died mid-run
  /// The coordinator's own incarnation: 1 for a fresh run, loaded+1 after a
  /// journaled --resume. Workers remember the highest value seen and refuse
  /// a WELCOME that regresses (stale coordinator).
  std::uint64_t coord_incarnation = 1;
};

/// Coordinator -> worker: the job spec text (net/jobspec.h), as a byte blob.
struct NetJob {
  std::string text;
};

/// Routed agent traffic. `frame` is a complete payload WireFrame (sealed by
/// encode_frame, possibly corrupted in flight by the fault bridge); its
/// sender field must match `from` after validation. `track_seq` is the
/// sending-side RetransmitBuffer sequence (0 = untracked repair traffic).
struct NetRoute {
  AgentId from = kNoAgent;
  AgentId to = kNoAgent;
  std::uint64_t track_seq = 0;
  WireFrame frame;
};

/// Receiver -> original senders (routed back through the coordinator):
/// acknowledge a batch of tracked deliveries, `seq` on agent channel
/// (from, to) each. A worker collects the acks of one drain into a single
/// frame; the coordinator splits it by the current owner of each `from`.
/// Every entry is still a per-seq selective ack, not a cumulative one.
struct NetAck {
  struct Entry {
    AgentId from = kNoAgent;
    AgentId to = kNoAgent;
    std::uint64_t seq = 0;
  };
  std::vector<Entry> entries;  ///< never empty on the wire
};

/// Entries a worker collects before it flushes an ACK frame early. Small on
/// purpose: transports keep per-slot buffers at their high-water size.
inline constexpr std::size_t kAckBatchCap = 16;

/// Worker -> coordinator: periodic progress report. Carries the worker's
/// lifetime counters (metrics_words, in sim::for_each_counter order),
/// its local agents' current values, and the quiescence inputs.
struct NetStats {
  std::uint64_t shard = 0;
  std::uint64_t incarnation = 0;
  bool idle = false;       ///< no local deliveries since the last report
  bool insoluble = false;  ///< a local agent derived the empty nogood
  bool final_report = false;
  AgentId insoluble_agent = kNoAgent;
  std::uint64_t sent = 0;       ///< protocol messages emitted by local agents
  std::uint64_t processed = 0;  ///< deliveries local agents processed
  std::vector<std::uint64_t> metrics_words;
  std::vector<std::pair<AgentId, Value>> values;
};

enum class StopReason : std::uint64_t {
  kSolved = 0,
  kInsoluble = 1,
  kDeadline = 2,
  kQuiesced = 3,
  kShutdown = 4,
};
const char* to_string(StopReason reason);

/// Coordinator -> worker: stop the run; answer with a final NetStats.
struct NetStop {
  StopReason reason = StopReason::kShutdown;
};

/// Liveness probe and its echo (supervisor heartbeat).
struct NetPing {
  std::uint64_t nonce = 0;
  std::int64_t sent_ms = 0;
};
struct NetPong {
  std::uint64_t nonce = 0;
  std::int64_t sent_ms = 0;  ///< echoed from the ping
};

// Live shard migration (docs/NETWORK.md §shard migration). Capsule payloads
// are recovery::encode_capsule word streams; the net layer only bounds their
// size — recovery::decode_capsule does the semantic validation, and a capsule
// that fails it degrades the adoption to a plain crash_restart.

/// Worker -> coordinator: state capsule upload for one local agent, sent on
/// the report cadence while migration is enabled so the coordinator holds a
/// recent capsule when the worker dies without warning. `release = true`
/// marks the terminal upload of a handback (NetRelease): the sender has
/// erased the agent and the coordinator must re-home it.
struct NetMigrate {
  AgentId agent = kNoAgent;
  std::uint64_t seq = 0;  ///< the agent's announce seq at export time
  bool release = false;
  std::vector<std::uint64_t> capsule;
};

/// Coordinator -> worker: adopt `agent` beside your own shard. The worker
/// builds the agent from the job spec, raises its seq floor, imports the
/// capsule when present (crash_restart otherwise), and answers ADOPT_ACK.
struct NetAdopt {
  AgentId agent = kNoAgent;
  std::uint64_t seq_floor = 0;
  bool have_capsule = false;
  std::vector<std::uint64_t> capsule;
};

/// Worker -> coordinator: `agent` is live here. `learned` is its resident
/// learned count right after import — the coordinator's invariant monitor
/// compares it against the shipped capsule (learning conservation).
struct NetAdoptAck {
  AgentId agent = kNoAgent;
  std::uint64_t learned = 0;
  std::uint64_t seq_floor = 0;  ///< floor actually applied (echo)
};

/// Coordinator -> worker: stop hosting `agent` (a replacement worker for its
/// home shard attached). The worker exports a final capsule, uploads it as a
/// NetMigrate with release set, and erases the agent.
struct NetRelease {
  AgentId agent = kNoAgent;
};

enum class NetErrorCode : std::uint64_t {
  kVersionMismatch = 0,
  kDigestMismatch = 1,
  kNoShard = 2,
  kProtocol = 3,
  /// The worker has been WELCOMEd by a newer coordinator incarnation than
  /// this one — the coordinator is a zombie predecessor and refuses to
  /// double-drive the run.
  kStaleCoordinator = 4,
};
struct NetError {
  NetErrorCode code = NetErrorCode::kProtocol;
};

using NetFrame = std::variant<NetHello, NetWelcome, NetJob, NetRoute, NetAck,
                              NetStats, NetStop, NetPing, NetPong, NetError,
                              NetMigrate, NetAdopt, NetAdoptAck, NetRelease>;

WireFrame encode_net_frame(const NetFrame& frame);

/// Encode into a caller-provided frame (cleared first, capacity reused).
/// Hot paths hold one scratch WireFrame and encode every outbound control
/// frame into it — zero steady-state allocation.
void encode_net_frame_into(const NetFrame& frame, WireFrame& out);

/// Why a net frame was rejected. Malformed frames feed the peer supervisor's
/// ChannelGuard budget, exactly like malformed payload frames feed the
/// agent-level guard.
enum class NetDecodeError {
  kNone = 0,
  kTruncated,
  kChecksum,
  kBadKind,
  kBadBounds,
};
const char* to_string(NetDecodeError error);

struct NetDecodeResult {
  std::optional<NetFrame> frame;  ///< engaged iff error == kNone
  NetDecodeError error = NetDecodeError::kNone;
  bool ok() const { return error == NetDecodeError::kNone; }
};

/// Verify the checksum, then validate every field against the sanity caps.
/// Never throws on hostile input. The embedded payload frame of a kNetRoute
/// is NOT validated here — the consumer must run it through decode_frame
/// with the instance's WireLimits.
NetDecodeResult decode_net_frame(const WireFrame& frame);

/// The RunMetrics counters a worker reports in NetStats, one word each in
/// sim::for_each_counter order (count-prefixed on the wire so it can grow).
std::vector<std::uint64_t> encode_metrics_words(const sim::RunMetrics& metrics);
/// Assign counter words back into `metrics` in the same order. Absent
/// trailing words leave their counters untouched (an older worker) and extra
/// trailing words are ignored (a newer one).
void decode_metrics_words(const std::vector<std::uint64_t>& words,
                          sim::RunMetrics& metrics);

}  // namespace discsp::net
