// Repro bundles: self-contained, deterministic replays of chaos cells.
//
// A chaos run that breaches a protocol invariant (sim/monitor.h) or fails
// its solve bar is worthless unless it can be replayed exactly. A
// ReproBundle captures everything such a replay needs — algorithm, learning
// strategy, root seed, initial assignment, planted witness, the full fault /
// retransmit / monitor configuration, and the instance itself (embedded as
// .dcsp with its integrity digest) — in one human-readable text file.
//
// Replays are deterministic because every emitter and `discsp_cli repro`
// share the single canonical recipe in run_bundle(): the root seed derives
// the agent stream (derive(1)) and the engine stream (derive(2)), and the
// AsyncEngine itself is deterministic for a fixed seed. Running a bundle
// twice — on any machine — yields bit-identical metrics, monitor verdicts
// and fault counters.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>

#include "csp/distributed_problem.h"
#include "recovery/retransmit.h"
#include "sim/fault.h"
#include "sim/metrics.h"

namespace discsp::analysis {

/// Outcome recorded by the emitting run; `discsp_cli repro` compares its
/// replay against this to certify "reproduced".
struct ObservedOutcome {
  bool solved = false;
  int cycles = 0;
  std::uint64_t violations = 0;
  std::uint64_t malformed_frames = 0;
};

struct ReproBundle {
  /// Algorithm under test: "awc" or "db".
  std::string algo = "awc";
  /// Learning strategy label (awc only; see learning::make_strategy).
  std::string strategy = "Rslv";
  /// Root seed: agents run on derive(1), the engine on derive(2).
  std::uint64_t seed = 1;
  std::uint64_t max_activations = 2'000'000;

  sim::FaultConfig faults;
  recovery::RetransmitConfig retransmit;
  std::size_t nogood_capacity = 0;
  bool journal = false;
  int checkpoint_interval = 64;
  bool incremental = true;

  /// Invariant monitor (sim/monitor.h). `planted` doubles as the witness
  /// for the no-false-insolubility screen.
  bool monitor = true;
  std::int64_t monitor_stall = 0;
  FullAssignment planted;

  /// Initial assignment of the trial (one value per variable; required).
  FullAssignment initial;
  /// The instance, embedded in the bundle as .dcsp.
  DistributedProblem instance{Problem{}, {}};

  /// Execution surface of the emitting run: "async" (in-process AsyncEngine,
  /// also the replay surface), "inproc" (multi-process protocol over the
  /// in-proc transport) or "tcp" (real sockets). Replays always run the
  /// async path — the field records provenance, so a failure first seen in a
  /// multi-process run replays deterministically in-process.
  std::string transport = "async";
  /// Wall-clock deadline of the emitting run in ms (net/clock.h); 0 = none.
  /// Informational: the async replay is bounded by max_activations instead.
  std::int64_t deadline_ms = 0;
  /// Coordinator incarnations the emitting run spanned (> 1 means the run
  /// survived a coordinator crash + journal resume; see docs/FAULT_MODEL.md).
  /// Informational provenance like `transport` — replays are single-process.
  int coordinator_incarnations = 1;

  /// Why this bundle was emitted (one line; e.g. "monitor violation" or
  /// "cell 0.20/0.10 solved 17/20 < 95%").
  std::string reason;

  std::optional<ObservedOutcome> observed;
};

/// The canonical deterministic replay recipe (see file comment). Throws
/// std::invalid_argument on an unknown algo/strategy or a malformed config.
sim::RunResult run_bundle(const ReproBundle& bundle);

/// True when a replay matches the bundle's recorded outcome (solved flag,
/// cycle count, monitor violations, malformed-frame count). Vacuously true
/// when the bundle carries no observation.
bool matches_observed(const ReproBundle& bundle, const sim::RunResult& result);

/// Capture the outcome fields compared by matches_observed.
ObservedOutcome observe(const sim::RunResult& result);

void write_bundle(std::ostream& out, const ReproBundle& bundle);
ReproBundle read_bundle(std::istream& in);

void write_bundle_file(const std::string& path, const ReproBundle& bundle);
ReproBundle read_bundle_file(const std::string& path);

/// Write `bundle` into directory `dir` (created if missing) under a
/// deterministic name derived from (algo, seed). Returns the file path, or
/// "" when `dir` is empty (emission disabled).
std::string emit_bundle(const std::string& dir, const ReproBundle& bundle);

}  // namespace discsp::analysis
