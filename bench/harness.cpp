#include "harness.h"

#include <chrono>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/table.h"
#include "gen/coloring_gen.h"

namespace discsp::bench {

RunnerFactory awc_runners(std::vector<std::string> strategy_labels) {
  return [labels = std::move(strategy_labels)](const ReproConfig& config) {
    std::vector<analysis::NamedRunner> runners;
    runners.reserve(labels.size());
    for (const std::string& label : labels) {
      runners.push_back({label, analysis::awc_runner(label, /*record_received=*/true,
                                                     config.max_cycles,
                                                     config.incremental)});
    }
    return runners;
  };
}

namespace {

// Minimal JSON string escaping (labels/titles are ASCII; quotes/backslashes
// are the only realistic hazards).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

// Guard for the invariant monitor's core promise (sim/monitor.h): enabling
// it on a fault-free run changes no paper metric and costs almost nothing.
// Run a fixed async AWC probe twice — monitor off, then monitor on with a
// planted witness (the most expensive screening mode) — and require the
// paper metrics (cycles / maxcck / total checks) to be bit-identical and the
// monitored wall time to stay within 5% of baseline. Walls are min-of-3 to
// damp scheduler noise.
struct MonitorGuard {
  bool identical = false;
  bool within_budget = false;
  double wall_off_ms = 0.0;
  double wall_on_ms = 0.0;
  std::uint64_t cycles = 0;
  std::uint64_t maxcck = 0;
  std::uint64_t total_checks = 0;
  std::uint64_t monitor_checks = 0;

  bool ok() const { return identical && within_budget; }
};

MonitorGuard run_monitor_guard(std::uint64_t seed) {
  constexpr int kTrials = 8;
  constexpr int kN = 30;
  constexpr int kRepeats = 3;

  struct PassResult {
    std::uint64_t cycles = 0;
    std::uint64_t maxcck = 0;
    std::uint64_t total_checks = 0;
    std::uint64_t monitor_checks = 0;
  };
  const auto pass = [&](bool monitor_on) {
    PassResult totals;
    for (int t = 0; t < kTrials; ++t) {
      Rng rng(seed ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(t + 1)));
      const auto instance = gen::generate_coloring3(kN, rng);
      const auto dp = gen::distribute(instance);
      FullAssignment initial(static_cast<std::size_t>(kN));
      for (auto& v : initial) v = static_cast<Value>(rng.index(3));

      analysis::ChaosRunnerOptions options;  // fault config stays disabled
      options.monitor.enabled = monitor_on;
      if (monitor_on) options.monitor.planted = instance.planted;
      const auto run = analysis::awc_chaos_runner("Rslv", options);
      const sim::RunResult result = run(dp, initial, rng.derive(1));
      totals.cycles += static_cast<std::uint64_t>(result.metrics.cycles);
      totals.maxcck += result.metrics.maxcck;
      totals.total_checks += result.metrics.total_checks;
      totals.monitor_checks += result.metrics.monitor.checks;
    }
    return totals;
  };
  const auto timed = [&](bool monitor_on, PassResult& totals) {
    double best_ms = 0.0;
    for (int r = 0; r < kRepeats; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      totals = pass(monitor_on);
      const double ms = static_cast<double>(
                            std::chrono::duration_cast<std::chrono::nanoseconds>(
                                std::chrono::steady_clock::now() - t0)
                                .count()) /
                        1e6;
      if (r == 0 || ms < best_ms) best_ms = ms;
    }
    return best_ms;
  };

  MonitorGuard guard;
  PassResult off, on;
  pass(false);  // warm caches before the first timed pass
  guard.wall_off_ms = timed(false, off);
  guard.wall_on_ms = timed(true, on);
  guard.identical = off.cycles == on.cycles && off.maxcck == on.maxcck &&
                    off.total_checks == on.total_checks;
  guard.within_budget = guard.wall_on_ms <= 1.05 * guard.wall_off_ms;
  guard.cycles = on.cycles;
  guard.maxcck = on.maxcck;
  guard.total_checks = on.total_checks;
  guard.monitor_checks = on.monitor_checks;
  return guard;
}

}  // namespace

int run_table_bench(int argc, const char* const* argv, const TableBench& bench) {
  try {
    const Options opts(argc, argv);
    const ReproConfig config = repro_config_from(opts);
    const std::string json_path = opts.get_string("json", "", "REPRO_JSON");

    std::cout << bench.title << '\n'
              << "family=" << analysis::family_name(bench.family)
              << " trials/n=" << config.trials << " max_cycles=" << config.max_cycles
              << " seed=" << config.seed;
    if (config.n_scale != 1.0) std::cout << " n_scale=" << config.n_scale;
    if (config.threads != 1) std::cout << " threads=" << config.threads;
    if (!config.incremental) std::cout << " incremental=0";
    std::cout << "\n(paper columns show the published values for shape comparison)\n\n";

    const bool with_paper = !bench.paper.empty();
    std::vector<std::string> header{"n", "learn", "cycle", "maxcck", "%"};
    if (with_paper) {
      header.insert(header.end(), {"| paper:cycle", "paper:maxcck", "paper:%"});
    }

    std::ostringstream json_tables;
    bool first_table = true;

    // One table per n, printed (and flushed) as soon as its rows exist —
    // a killed or timed-out run still leaves every completed block behind.
    const auto t0 = std::chrono::steady_clock::now();
    for (int n : bench.ns) {
      const auto spec = analysis::spec_for(bench.family, n, config);
      const auto runners = bench.make_runners(config);
      const auto block_t0 = std::chrono::steady_clock::now();
      const auto rows = analysis::run_comparison(spec, runners, config.threads);
      const double wall_ns = static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - block_t0)
              .count());
      TextTable table(header);
      double block_checks = 0.0;
      double block_work_ops = 0.0;
      std::ostringstream json_rows;
      bool first_row = true;
      for (const auto& row : rows) {
        table.row()
            .cell(std::to_string(n))
            .cell(row.label)
            .cell(row.mean_cycles, 1)
            .cell(row.mean_maxcck, 1)
            .cell(row.solved_percent, 0);
        if (with_paper) {
          auto it = bench.paper.find({n, row.label});
          if (it != bench.paper.end()) {
            table.cell("| " + format_fixed(it->second.cycle, 1))
                .cell(it->second.maxcck, 1)
                .cell(it->second.percent, 0);
          } else {
            table.cell("| -").cell("-").cell("-");
          }
        }
        block_checks += row.mean_total_checks * row.trials;
        block_work_ops += row.mean_work_ops * row.trials;
        json_rows << (first_row ? "" : ",") << "\n      {\"label\": \""
                  << json_escape(row.label) << "\", \"trials\": " << row.trials
                  << ", \"cycle\": " << row.mean_cycles
                  << ", \"maxcck\": " << row.mean_maxcck
                  << ", \"percent\": " << row.solved_percent
                  << ", \"mean_total_checks\": " << row.mean_total_checks
                  << ", \"mean_work_ops\": " << row.mean_work_ops
                  << ", \"checks_per_cycle\": "
                  << (row.mean_cycles > 0.0 ? row.mean_total_checks / row.mean_cycles
                                            : 0.0)
                  << "}";
        first_row = false;
      }
      table.print(std::cout);
      std::cout << std::endl;  // flush per block

      json_tables << (first_table ? "" : ",") << "\n    {\"n\": " << n
                  << ", \"wall_ms\": " << wall_ns / 1e6
                  << ", \"total_checks\": " << block_checks
                  << ", \"total_work_ops\": " << block_work_ops
                  << ", \"ns_per_check\": "
                  << (block_checks > 0.0 ? wall_ns / block_checks : 0.0)
                  << ", \"ns_per_work_op\": "
                  << (block_work_ops > 0.0 ? wall_ns / block_work_ops : 0.0)
                  << ", \"rows\": [" << json_rows.str() << "\n    ]}";
      first_table = false;
    }
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - t0);
    std::cout << "elapsed: " << elapsed.count() / 1000.0 << " s\n";

    if (!json_path.empty()) {
      // A --json run doubles as the regression gate for the invariant
      // monitor's zero-interference promise.
      const MonitorGuard guard = run_monitor_guard(config.seed);
      std::cout << "monitor guard: metrics "
                << (guard.identical ? "bit-identical" : "DIVERGED")
                << ", wall off " << guard.wall_off_ms << " ms, on "
                << guard.wall_on_ms << " ms ("
                << (guard.wall_off_ms > 0.0
                        ? 100.0 * (guard.wall_on_ms / guard.wall_off_ms - 1.0)
                        : 0.0)
                << "% overhead, budget 5%), " << guard.monitor_checks
                << " monitor checks\n";

      std::ofstream out(json_path);
      if (!out) throw std::runtime_error("cannot write --json file: " + json_path);
      out << "{\n  \"title\": \"" << json_escape(bench.title) << "\",\n"
          << "  \"family\": \"" << analysis::family_name(bench.family) << "\",\n"
          << "  \"trials\": " << config.trials << ",\n"
          << "  \"max_cycles\": " << config.max_cycles << ",\n"
          << "  \"seed\": " << config.seed << ",\n"
          << "  \"threads\": " << config.threads << ",\n"
          << "  \"incremental\": " << (config.incremental ? "true" : "false") << ",\n"
          << "  \"elapsed_ms\": " << elapsed.count() << ",\n"
          << "  \"monitor_guard\": {\"identical\": "
          << (guard.identical ? "true" : "false")
          << ", \"within_budget\": " << (guard.within_budget ? "true" : "false")
          << ", \"wall_off_ms\": " << guard.wall_off_ms
          << ", \"wall_on_ms\": " << guard.wall_on_ms
          << ", \"cycles\": " << guard.cycles
          << ", \"maxcck\": " << guard.maxcck
          << ", \"total_checks\": " << guard.total_checks
          << ", \"monitor_checks\": " << guard.monitor_checks << "},\n"
          << "  \"tables\": [" << json_tables.str() << "\n  ]\n}\n";
      std::cout << "json: " << json_path << '\n';
      if (!guard.ok()) {
        std::cerr << "bench failed: monitor guard "
                  << (!guard.identical ? "detected metric divergence"
                                       : "exceeded its 5% wall budget")
                  << '\n';
        return 1;
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "bench failed: " << e.what() << '\n';
    return 1;
  }
}

}  // namespace discsp::bench
