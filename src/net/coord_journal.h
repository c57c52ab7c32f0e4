// Disk-backed write-ahead journal for the coordinator's control-plane state.
//
// The recovery-layer WriteAheadLog (src/recovery/journal.h) models an
// agent's stable storage in memory because the simulated amnesia crash is a
// *modeled* fault. A coordinator crash is a real process death (SIGKILL of
// `discsp_cli serve`), so its journal must actually live on disk: a text
// file of checksummed lines, one durable state transition per line, with
// the same two design moves as the agent log —
//
//   * checkpoint compaction: the full control-plane state is periodically
//     rewritten as one atomic snapshot (temp file + rename) and the record
//     tail truncated, bounding both file size and replay time;
//   * block-reserved sequence floors: per-agent routed-seq high-water marks
//     are journaled in blocks of `seq_reserve` so routine routing does not
//     append a line per frame. A recovered floor may overshoot by at most
//     one partial block, which the workers' >= dedup guards absorb.
//
// Torn tails are expected, not errors: an append interrupted by SIGKILL
// leaves a truncated or checksum-failing last line, and replay simply stops
// there. The checkpoint region is written atomically, so a bad line *inside
// it* is real corruption and fails the load.
//
// What is persisted (and nothing else — the JobSpec is the other half of
// recovery and is re-read from its own file): the attach table (per-slot
// incarnations + folded dead-incarnation metrics), per-agent seq floors,
// last observed agent values, the best-partial snapshot, the solved witness,
// the insolubility verdict, and the coordinator's own incarnation counter.
#pragma once

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"

namespace discsp::net {

struct CoordJournalConfig {
  std::string path;
  /// Records appended since the last checkpoint before should_checkpoint()
  /// asks the coordinator to compact (0 = never compact).
  int checkpoint_interval = 256;
  /// Routed-seq numbers reserved per floor record (>= 1).
  int seq_reserve = 64;

  /// Throws std::invalid_argument on an empty path or bad knobs.
  void validate() const;
};

/// Per-shard attach state. `prior_words` is the encode_metrics_words
/// snapshot of every *dead* incarnation's folded counters (absolute, not a
/// delta), so replay assigns instead of merging.
struct CoordSlotState {
  std::uint64_t incarnation = 0;  ///< 0 = never attached
  std::uint64_t prior_processed = 0;
  std::vector<std::uint64_t> prior_words;
};

/// The complete journaled control-plane state. load() returns one; the
/// coordinator folds it back into its live structures on --resume.
struct CoordState {
  std::uint64_t digest = 0;       ///< jobspec_digest of the run
  std::uint64_t incarnation = 1;  ///< coordinator incarnation that wrote this
  std::uint64_t restarts = 0;     ///< worker replacement count so far
  std::vector<std::pair<AgentId, std::uint64_t>> seq_floors;
  std::vector<std::pair<AgentId, Value>> values;  ///< last observed values
  bool have_best = false;
  int best_violations = 0;
  std::vector<std::pair<AgentId, Value>> best;
  /// The frozen solution witness, journaled before the first STOP leaves:
  /// every worker that got that STOP is gone, so only the journal can tell
  /// a resumed coordinator the run already solved.
  bool solved = false;
  std::vector<std::pair<AgentId, Value>> solution;
  bool insoluble = false;
  AgentId insoluble_agent = kNoAgent;
  std::vector<CoordSlotState> slots;
  /// Shard-migration ownership overrides (agent, current shard), only where
  /// ownership differs from the home shard. Journaling these is what makes
  /// coordinator failover and migration compose: --resume replays the exact
  /// reassignment instead of re-deriving it from scratch.
  std::vector<std::pair<AgentId, int>> owners;
};

class CoordJournal {
 public:
  explicit CoordJournal(CoordJournalConfig config);
  ~CoordJournal();
  CoordJournal(const CoordJournal&) = delete;
  CoordJournal& operator=(const CoordJournal&) = delete;

  const CoordJournalConfig& config() const { return config_; }

  /// Write a fresh journal (atomic snapshot of `state`, empty record tail),
  /// replacing any file at the path. False + `error` on I/O failure.
  bool start(const CoordState& state, std::string* error);

  /// Read a journal back: header + checkpoint + record replay, stopping at
  /// the first torn tail line. std::nullopt + `error` when the file is
  /// missing, the header is foreign, or the checkpoint region is corrupt.
  static std::optional<CoordState> load(const std::string& path,
                                        std::string* error);

  // Appended records (each flushed to the OS before returning, so a SIGKILL
  // immediately after the call cannot lose it).
  void record_value(AgentId agent, Value value);
  void record_attach(int shard, std::uint64_t incarnation, bool restart);
  void record_fold(int shard, std::uint64_t prior_processed,
                   const std::vector<std::uint64_t>& prior_words);
  void record_best(int violations,
                   const std::vector<std::pair<AgentId, Value>>& best);
  void record_solved(const std::vector<std::pair<AgentId, Value>>& solution);
  void record_insoluble(AgentId agent);
  /// Journal a shard-migration ownership flip: `agent` is now owned by
  /// `shard`. Written immediately before the ADOPT ships, so a journal that
  /// survives the coordinator always covers every adoption in flight.
  void record_assign(AgentId agent, int shard);
  /// Ensure the journaled floor for `agent` covers `seq`, reserving a new
  /// block when needed. Call before acting on every routed tracked seq.
  void ensure_seq(AgentId agent, std::uint64_t seq);

  /// True once the record tail warrants compaction.
  bool should_checkpoint() const {
    return config_.checkpoint_interval > 0 &&
           tail_records_ >= static_cast<std::uint64_t>(config_.checkpoint_interval);
  }

  /// Compact: atomically replace the file with a snapshot of `state` and
  /// reset the record tail. False + `error` on I/O failure (the previous
  /// journal file is left intact in that case).
  bool checkpoint(const CoordState& state, std::string* error);

  // Lifetime counters (folded into RunMetrics journal_* by the coordinator).
  std::uint64_t appends() const { return appends_; }
  std::uint64_t checkpoints() const { return checkpoints_; }

 private:
  void append_line(const std::string& body);
  bool write_snapshot(const std::string& path, const CoordState& state,
                      std::string* error) const;

  CoordJournalConfig config_;
  std::FILE* file_ = nullptr;
  /// Reserved (journaled) floor per agent; in-memory mirror of r-seq lines.
  std::vector<std::pair<AgentId, std::uint64_t>> reserved_;
  std::uint64_t tail_records_ = 0;
  std::uint64_t appends_ = 0;
  std::uint64_t checkpoints_ = 0;
};

}  // namespace discsp::net
