// The distributed workloads: net::serve plus three net::run_worker threads in
// this process, over the in-proc or the TCP loopback carrier, running AWC
// (Rslv) on one unique-solution 3SAT instance for a fixed deadline window.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/coordinator.h"
#include "timed.h"

namespace perfbench {

enum class Carrier { kInProc, kTcp };

inline constexpr int kNetWorkers = 3;

/// A serve() run of AWC (Rslv) on `instance` with kNetWorkers workers, a
/// `window_ms` deadline and the defaults of `discsp_cli serve` (50 ms ack
/// timeout, invariant monitor on); the initial assignment is drawn from `seed`.
net::ServeConfig serve_config_for(discsp::DistributedProblem instance, std::uint64_t seed,
                                  std::int64_t window_ms, Carrier carrier);

/// The job of the net workloads: a unique-solution 3SAT instance at n = 100
/// generated from `seed` (timed into `gen` when given), served by
/// serve_config_for with the planted model as the monitor's witness.
net::ServeConfig make_net_job(std::uint64_t seed, std::int64_t window_ms,
                              Carrier carrier, Accum* gen = nullptr);

struct WindowOutcome {
  net::ServeResult result;
  std::int64_t wall_ns = 0;  ///< the serve() call
  std::uint64_t heap_bytes = 0;  ///< heap in use halfway through the window
  std::vector<std::string> worker_errors;
  /// Frames that failed a check: malformed, quarantine- and backpressure-
  /// dropped frames plus monitor violations.
  std::uint64_t failed_frames = 0;
  /// The run ended at its deadline (or solved) with a well-formed assignment
  /// and no error on either side.
  bool well_formed = false;
};

/// One serve() run: a coordinator thread plus one worker thread per job
/// shard, while the calling thread only samples the heap once. With `trace`,
/// the carrier runs under the timing decorators.
WindowOutcome run_window(const net::ServeConfig& config, Carrier carrier,
                         NetTrace* trace = nullptr);

}  // namespace perfbench
