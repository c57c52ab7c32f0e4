#include "net_workload.h"

#include <atomic>
#include <chrono>
#include <exception>
#include <future>
#include <memory>
#include <optional>
#include <thread>

#include "common/rng.h"
#include "gen/onesat_gen.h"
#include "net/jobspec.h"
#include "net/tcp_transport.h"
#include "net/worker.h"

namespace perfbench {

namespace {

constexpr int kN = 100;

/// True when `a` has one entry per variable, each unassigned or in domain.
bool well_formed_assignment(const discsp::Problem& p, const discsp::FullAssignment& a) {
  if (static_cast<int>(a.size()) != p.num_variables()) return false;
  for (VarId v = 0; v < p.num_variables(); ++v) {
    const Value x = a[static_cast<std::size_t>(v)];
    if (x != discsp::kNoValue && (x < 0 || x >= p.domain_size(v))) return false;
  }
  return true;
}

}  // namespace

net::ServeConfig serve_config_for(discsp::DistributedProblem instance, std::uint64_t seed,
                                  std::int64_t window_ms, Carrier carrier) {
  discsp::analysis::ReproBundle bundle;
  bundle.algo = "awc";
  bundle.strategy = "Rslv";
  bundle.seed = seed;
  bundle.retransmit.ack_timeout = 50;
  bundle.monitor = true;
  bundle.instance = std::move(instance);
  bundle.transport = carrier == Carrier::kInProc ? "inproc" : "tcp";
  bundle.deadline_ms = window_ms;
  const discsp::Problem& p = bundle.instance.problem();
  discsp::Rng init_rng(seed);
  bundle.initial.resize(static_cast<std::size_t>(p.num_variables()));
  for (VarId v = 0; v < p.num_variables(); ++v) {
    bundle.initial[static_cast<std::size_t>(v)] =
        static_cast<Value>(init_rng.below(static_cast<std::uint64_t>(p.domain_size(v))));
  }

  net::ServeConfig config;
  config.job.bundle = std::move(bundle);
  config.job.num_workers = kNetWorkers;
  config.deadline_ms = window_ms;
  config.transport = config.job.bundle.transport;
  return config;
}

net::ServeConfig make_net_job(std::uint64_t seed, std::int64_t window_ms,
                              Carrier carrier, Accum* gen) {
  discsp::gen::OneSatParams params;
  params.n = kN;
  discsp::Rng gen_rng(seed ^ 0x3a5e7b1d9c2f4e60ULL);
  discsp::gen::OneSatInstance instance;
  if (gen != nullptr) {
    Scoped span("gen.instance", *gen);
    instance = discsp::gen::generate_onesat(params, gen_rng);
  } else {
    instance = discsp::gen::generate_onesat(params, gen_rng);
  }
  net::ServeConfig config =
      serve_config_for(discsp::gen::distribute(instance), seed, window_ms, carrier);
  config.job.bundle.planted = instance.model;
  return config;
}

WindowOutcome run_window(const net::ServeConfig& config, Carrier carrier,
                         NetTrace* trace) {
  static std::atomic<std::int64_t> next_window{0};
  const std::int64_t window = next_window.fetch_add(1);

  std::unique_ptr<net::Transport> base;
  if (carrier == Carrier::kInProc) {
    base = std::make_unique<net::InProcTransport>();
  } else {
    base = std::make_unique<net::TcpTransport>();
  }
  std::optional<TimedTransport> timed;
  net::Transport* transport = base.get();
  if (trace != nullptr) transport = &timed.emplace(*base, *trace);

  auto listener =
      transport->listen(carrier == Carrier::kInProc ? "coordinator" : "127.0.0.1:0");
  const std::string endpoint = carrier == Carrier::kInProc
                                   ? "coordinator"
                                   : "127.0.0.1:" + std::to_string(listener->port());

  WindowOutcome out;
  const auto num_workers = static_cast<std::size_t>(config.job.num_workers);
  std::vector<net::WorkerResult> results(num_workers);
  {
    std::vector<std::jthread> workers;
    for (std::size_t i = 0; i < num_workers; ++i) {
      workers.emplace_back([&, i] {
        spans::set_trial(window);
        net::WorkerConfig wc;
        wc.endpoint = endpoint;
        wc.connect_timeout_ms = 1000;
        wc.max_connect_attempts = 10;
        wc.reconnect_seed = 0x5eed + i;
        try {
          if (trace != nullptr) {
            Scoped span("net.worker", trace->worker);
            results[i] = net::run_worker(*transport, wc);
          } else {
            results[i] = net::run_worker(*transport, wc);
          }
        } catch (const std::exception& e) {
          results[i].error = e.what();
        }
      });
    }
    std::promise<void> served;
    std::future<void> serve_done = served.get_future();
    std::jthread coordinator([&] {
      spans::set_trial(window);
      const std::int64_t start = now_ns();
      try {
        if (trace != nullptr) {
          Scoped span("net.serve", trace->serve);
          out.result = net::serve(*listener, config);
        } else {
          out.result = net::serve(*listener, config);
        }
      } catch (const std::exception& e) {
        out.result.error = e.what();
      }
      out.wall_ns = now_ns() - start;
      served.set_value();
    });
    serve_done.wait_for(std::chrono::milliseconds(config.deadline_ms / 2));
    out.heap_bytes = heap_in_use_bytes();
  }  // joins the coordinator, then the workers

  for (std::size_t i = 0; i < num_workers; ++i) {
    if (!results[i].error.empty()) out.worker_errors.push_back(results[i].error);
  }
  const sim::RunMetrics& m = out.result.run.metrics;
  out.failed_frames = m.malformed_frames + m.quarantine_drops + m.backpressure_drops +
                      m.monitor.violations;
  const discsp::Problem& p = config.job.bundle.instance.problem();
  const bool ended_cleanly =
      out.result.error.empty() && !out.result.halted && out.worker_errors.empty() &&
      (out.result.reason == net::StopReason::kDeadline ||
       out.result.reason == net::StopReason::kSolved);
  out.well_formed = ended_cleanly && well_formed_assignment(p, out.result.run.assignment);
  if (m.solved && !p.is_solution(out.result.run.assignment)) out.well_formed = false;
  return out;
}

}  // namespace perfbench
