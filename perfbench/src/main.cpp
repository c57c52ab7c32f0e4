// perfbench: end-to-end benchmark of discsp (see ../README.md).
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             [--reference FILE] [--trace-out FILE]
//   perfbench --workload W --print-reference SEED TRIALS
//
// --trace 0 measures the end-to-end metrics with no decorator in the path;
// --trace 1 is the separate traced run that reports the per-layer metrics.
// Human-readable lines come first; the last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"}. Exit code 0 when
// the run completed (correct or not), 2 on a usage or set-up error.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "net_workload.h"
#include "sync_workload.h"
#include "trace.h"

namespace perfbench {
namespace {

// ----- settings -------------------------------------------------------------

/// Set-up is repeated and its median reported, so one slow allocation does
/// not decide setup_s.
constexpr int kSetupRepeats = 5;
/// Deadline window of one net serve() run.
constexpr std::int64_t kWindowMs = 200;
/// Traced runs measure a fixed amount of work, once untraced and once
/// traced: the first kTracedTrials trials of a sync workload (so their counts
/// repeat exactly for a seed), or kTracedWindows serve() windows.
constexpr std::size_t kTracedTrials = 40;
constexpr int kTracedWindows = 10;

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "sync-3sat-learn", "sync-coloring-db", "net-inproc-3onesat", "net-tcp-3onesat"};
  return names;
}

bool is_sync(const std::string& workload) { return workload.rfind("sync-", 0) == 0; }

// ----- arguments ------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string reference;
  std::string trace_out;
  std::optional<std::pair<std::uint64_t, std::size_t>> print_reference;
};

Args parse_args(int argc, char** argv) {
  Args a;
  auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) throw std::invalid_argument(std::string(argv[i]) + " needs a value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--workload") {
      a.workload = value(i);
    } else if (flag == "--seed") {
      a.seed = std::stoull(value(i));
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value(i));
    } else if (flag == "--trace") {
      const std::string v = value(i);
      if (v != "0" && v != "1") throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--reference") {
      a.reference = value(i);
    } else if (flag == "--trace-out") {
      a.trace_out = value(i);
    } else if (flag == "--print-reference") {
      const std::uint64_t seed = std::stoull(value(i));
      a.print_reference = {{seed, static_cast<std::size_t>(std::stoull(value(i)))}};
    } else {
      throw std::invalid_argument("unknown argument " + flag);
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
    throw std::invalid_argument("--workload must be one of sync-3sat-learn, "
                                "sync-coloring-db, net-inproc-3onesat, net-tcp-3onesat");
  }
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be positive");
  return a;
}

// ----- statistics -----------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

/// Nearest-rank percentile `pct` of `v`.
double percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// The highest percentile, at most 90, that leaves at least ten samples
/// beyond it (the median when there are fewer than twenty samples).
double tail_percentile(std::size_t samples) {
  if (samples < 20) return 50.0;
  const double pct = std::floor(100.0 * static_cast<double>(samples - 10) /
                                static_cast<double>(samples));
  return std::min(90.0, pct);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ----- report ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  bool in_result = true;  ///< false: printed for people, left out of the JSON
  std::string group;      ///< heading of its printed group
};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           bool in_result = true, std::string group = {}) {
    if (group.empty()) group = in_result ? "end-to-end" : "end-to-end, printed only";
    metrics_.push_back(
        {name, std::isfinite(value) ? value : 0.0, unit, in_result, std::move(group)});
  }
  void note(const std::string& line) { notes_.push_back(line); }

  std::map<std::string, double> values() const {
    std::map<std::string, double> out;
    for (const Metric& m : metrics_) out[m.name] = m.value;
    return out;
  }

  /// Human-readable lines (metrics under their group headings), then the
  /// JSON result line.
  void print(bool correct, std::uint64_t attempted, std::uint64_t failed) const {
    for (const std::string& line : notes_) std::cout << "# " << line << '\n';
    std::string group;
    for (const Metric& m : metrics_) {
      if (m.group != group) {
        group = m.group;
        std::cout << "# [" << group << "]\n";
      }
      std::cout << "#   " << m.name << " = " << fmt(m.value) << ' ' << m.unit << '\n';
    }
    std::cout << "# failed_frac = " << fmt(ratio(static_cast<double>(failed),
                                                 static_cast<double>(attempted)))
              << " (" << failed << " failed / " << attempted << " attempted)\n";
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << std::max<std::uint64_t>(attempted, 1)
              << ", \"failed\": " << failed << ", \"metrics\": {";
    bool first = true;
    for (const Metric& m : metrics_) {
      if (!m.in_result) continue;
      std::cout << (first ? "" : ", ") << '"' << m.name << "\": {\"value\": "
                << fmt(m.value) << ", \"unit\": \"" << m.unit << "\"}";
      first = false;
    }
    std::cout << "}}" << std::endl;
  }

 private:
  static std::string fmt(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
  }

  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
};

// ----- end-to-end metrics --------------------------------------------------

/// Per-trial measurements of an untraced run. A trial is one solve on the
/// sync workloads and one serve() window on the net workloads.
class TrialSamples {
 public:
  void add(std::int64_t wall_ns, std::uint64_t deliveries, std::uint64_t checks,
           std::uint64_t heap_bytes) {
    heap_mb_.push_back(static_cast<double>(heap_bytes) / (1024.0 * 1024.0));
    wall_ms_.push_back(static_cast<double>(wall_ns) / 1e6);
    delivery_ns_.push_back(ratio(static_cast<double>(wall_ns), static_cast<double>(deliveries)));
    check_ns_.push_back(ratio(static_cast<double>(wall_ns), static_cast<double>(checks)));
    busy_ns_ += wall_ns;
    deliveries_ += deliveries;
  }

  std::size_t count() const { return wall_ms_.size(); }

  /// The end-to-end metrics after setup_s. Whole-trial times and the
  /// process peak follow the heaviest solves of the seed's instances, and the
  /// median per-delivery time moved by up to 27% between sets of runs of the
  /// same code, so they are printed but left out of the result, which
  /// carries the tail per-delivery time and the median heap.
  void report(Report& report) const {
    const double tail = tail_percentile(count());
    const double busy_s = static_cast<double>(busy_ns_) / 1e9;
    report.note(std::to_string(count()) + " timed trials; the p90 metrics are percentile " +
                std::to_string(static_cast<int>(tail)) + " of them");
    report.add("delivery_ns_p90", percentile(delivery_ns_, tail), "ns");
    report.add("heap_mb_p50", percentile(heap_mb_, 50.0), "MB");
    report.add("delivery_ns_p50", percentile(delivery_ns_, 50.0), "ns", false);
    report.add("check_ns_p50", percentile(check_ns_, 50.0), "ns", false);
    report.add("deliveries_per_s", ratio(static_cast<double>(deliveries_), busy_s), "1/s",
               false);
    report.add("peak_rss_mb", peak_rss_mb(), "MB", false);
    report.add("trials_per_s", ratio(static_cast<double>(count()), busy_s), "1/s", false);
    report.add("trial_ms_p50", percentile(wall_ms_, 50.0), "ms", false);
    report.add("trial_ms_p90", percentile(wall_ms_, tail), "ms", false);
  }

 private:
  std::vector<double> wall_ms_;
  std::vector<double> delivery_ns_;
  std::vector<double> check_ns_;
  std::vector<double> heap_mb_;
  std::int64_t busy_ns_ = 0;
  std::uint64_t deliveries_ = 0;
};

// ----- reference digests ----------------------------------------------------

struct ReferenceRow {
  std::uint64_t seed = 0;
  std::size_t trial = 0;
  TrialDigest digest;
};

/// Rows of `workload` in a reference file of lines
/// "workload seed trial cycles maxcck total_checks solved" ('#' comments).
std::vector<ReferenceRow> read_reference(const std::string& path, const std::string& workload) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read reference file " + path);
  std::vector<ReferenceRow> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    ReferenceRow row;
    int solved = 0;
    if (!(fields >> name >> row.seed >> row.trial >> row.digest.cycles >>
          row.digest.maxcck >> row.digest.total_checks >> solved)) {
      throw std::runtime_error("malformed reference line: " + line);
    }
    row.digest.solved = solved != 0;
    if (name == workload) rows.push_back(row);
  }
  if (rows.empty()) throw std::runtime_error("no reference rows for " + workload);
  return rows;
}

/// Replay the recorded trials (through the decorators when `layers` is
/// given) and return how many differ from their digest or fail validation.
std::uint64_t check_reference(const std::vector<ReferenceRow>& rows,
                              const std::string& workload, SyncLayers* layers,
                              Report& report) {
  std::map<std::uint64_t, SyncWorkload> by_seed;
  std::uint64_t mismatches = 0;
  for (const ReferenceRow& row : rows) {
    auto it = by_seed.find(row.seed);
    if (it == by_seed.end()) {
      it = by_seed.emplace(row.seed, make_sync_workload(workload, row.seed)).first;
    }
    const TrialOutcome out = run_trial(it->second, row.trial, layers);
    if (!out.valid || !(out.digest == row.digest)) {
      ++mismatches;
      report.note("reference mismatch: seed " + std::to_string(row.seed) + " trial " +
                  std::to_string(row.trial) + " cycles " +
                  std::to_string(out.digest.cycles) + " maxcck " +
                  std::to_string(out.digest.maxcck));
    }
  }
  report.note("reference digest: " + std::to_string(rows.size() - mismatches) + "/" +
              std::to_string(rows.size()) + " trials bit-identical" +
              (layers != nullptr ? " (through the decorators)" : ""));
  return mismatches;
}

// ----- per-layer metrics ----------------------------------------------------

/// Every per-layer metric, in layer order; the workload's run fills in the
/// layers it exercises and the rest stay zero.
struct LayerMetrics {
  struct Row {
    const char* layer;
    const char* name;
    const char* unit;
    double value = 0.0;
  };
  std::vector<Row> rows = {
      {"sim", "sim.run_ns", "ns"},
      {"sim", "sim.dispatch_self_ns", "ns"},
      {"sim", "sim.cycles", "count"},
      {"sim", "sim.messages", "count"},
      {"awc", "awc.receive_ns", "ns"},
      {"awc", "awc.receive_calls", "count"},
      {"awc", "awc.compute_self_ns", "ns"},
      {"awc", "awc.compute_calls", "count"},
      {"awc", "awc.deadends", "count"},
      {"learning", "learning.learn_ns", "ns"},
      {"learning", "learning.learn_calls", "count"},
      {"learning", "learning.extra_checks", "count"},
      {"learning", "learning.nogood_size_mean", "literals"},
      {"csp", "csp.work_ops", "count"},
      {"csp", "csp.work_ops_per_check", "ratio"},
      {"csp", "csp.learned_peak", "count"},
      {"db", "db.receive_ns", "ns"},
      {"db", "db.compute_ns", "ns"},
      {"db", "db.work_ops", "count"},
      {"gen", "gen.instance_ns", "ns"},
      {"net.transport", "net.send_ns", "ns"},
      {"net.transport", "net.send_frames", "count"},
      {"net.transport", "net.bytes_sent", "bytes"},
      {"net.transport", "net.pump_wait_ns", "ns"},
      {"net.transport", "net.frames_per_pump", "ratio"},
      {"net.coordinator", "net.coord_self_ns_per_routed", "ns"},
      {"net.coordinator", "net.routed_frames", "count"},
      {"net.worker", "net.worker_self_ns_per_delivery", "ns"},
      {"net.codec", "net.frames_route", "count"},
      {"net.codec", "net.frames_ack", "count"},
      {"net.codec", "net.frames_stats", "count"},
      {"net.codec", "net.frames_ping", "count"},
      {"net.codec", "net.acks_per_route", "ratio"},
      {"net.codec", "net.hop_us_p50", "us"},
      {"net.codec", "net.hop_us_p99", "us"},
      {"recovery", "recovery.retransmissions", "count"},
      {"recovery", "recovery.false_positive_frac", "ratio"},
      {"trace", "trace.overhead_frac", "ratio"},
  };

  void set(const std::string& name, double value) {
    for (Row& row : rows) {
      if (row.name == name) {
        row.value = value;
        return;
      }
    }
    throw std::logic_error("unknown per-layer metric " + name);
  }
  void add_to(Report& report) const {
    for (const Row& row : rows) {
      report.add(row.name, row.value, row.unit, true, row.layer);
    }
  }
};

// ----- sync workloads -------------------------------------------------------

int run_sync(const Args& a) {
  Report report;
  const std::vector<ReferenceRow> reference = read_reference(a.reference, a.workload);
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  if (!a.trace) {
    std::vector<double> setup;
    SyncWorkload w;
    for (int i = 0; i < kSetupRepeats; ++i) {
      const std::int64_t start = now_ns();
      w = make_sync_workload(a.workload, a.seed);
      setup.push_back(static_cast<double>(now_ns() - start) / 1e9);
    }
    // A trial index met again on a later pass must repeat its digest.
    std::vector<std::optional<TrialDigest>> seen(w.trials.size());
    auto account = [&](std::size_t index, const TrialOutcome& out) {
      ++attempted;
      bool ok = out.valid;
      if (seen[index].has_value()) {
        ok = ok && *seen[index] == out.digest;
      } else {
        seen[index] = out.digest;
      }
      if (!ok) ++failed;
    };
    account(0, run_trial(w, 0));  // warm-up: allocator and caches, untimed

    TrialSamples samples;
    std::size_t next = 0;
    const auto deadline = now_ns() + static_cast<std::int64_t>(a.seconds * 1e9);
    while (now_ns() < deadline) {
      const TrialOutcome out = run_trial(w, next);
      account(next, out);
      samples.add(out.wall_ns, out.messages, out.digest.total_checks, out.heap_bytes);
      next = (next + 1) % w.trials.size();
    }
    report.note(a.workload + " seed " + std::to_string(a.seed) + ": " +
                std::to_string(w.trials.size()) + " distinct trials");
    report.add("setup_s", median(setup), "s");
    samples.report(report);  // before the replay below adds its own instances
    failed += check_reference(reference, a.workload, nullptr, report);
    attempted += reference.size();
    report.print(failed == 0, attempted, failed);
    return 0;
  }

  // Traced run: the same fixed trials untraced, then through the decorators.
  SyncLayers layers;
  const SyncWorkload w = make_sync_workload(a.workload, a.seed, &layers);
  const std::size_t k = std::min(kTracedTrials, w.trials.size());
  std::vector<TrialDigest> plain;
  std::int64_t plain_ns = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const TrialOutcome out = run_trial(w, i);
    ++attempted;
    if (!out.valid) ++failed;
    plain.push_back(out.digest);
    plain_ns += out.wall_ns;
  }
  spans::set_enabled(true);
  std::int64_t traced_ns = 0;
  std::size_t identical = 0;
  for (std::size_t i = 0; i < k; ++i) {
    spans::set_trial(static_cast<std::int64_t>(i));
    const TrialOutcome out = run_trial(w, i, &layers);
    ++attempted;
    const bool same = out.digest == plain[i];
    if (same) ++identical;
    if (!out.valid || !same) ++failed;
    traced_ns += out.wall_ns;
  }
  spans::set_enabled(false);
  report.note("traced digest: " + std::to_string(identical) + "/" + std::to_string(k) +
              " trials bit-identical to the untraced run");
  SyncLayers reference_layers;
  failed += check_reference(reference, a.workload, &reference_layers, report);
  attempted += reference.size();

  LayerMetrics lm;
  const auto ns = [](const Accum& acc) { return static_cast<double>(acc.total_ns()); };
  const auto calls = [](const Accum& acc) { return static_cast<double>(acc.count()); };
  const double agent_ns = ns(layers.awc.receive) + ns(layers.awc.compute) +
                          ns(layers.db.receive) + ns(layers.db.compute);
  lm.set("sim.run_ns", ns(layers.sim_run));
  lm.set("sim.dispatch_self_ns", ns(layers.sim_run) - agent_ns);
  lm.set("sim.cycles", static_cast<double>(layers.cycles));
  lm.set("sim.messages", static_cast<double>(layers.messages));
  lm.set("awc.receive_ns", ns(layers.awc.receive));
  lm.set("awc.receive_calls", calls(layers.awc.receive));
  lm.set("awc.compute_self_ns", ns(layers.awc.compute) - ns(layers.learning.learn));
  lm.set("awc.compute_calls", calls(layers.awc.compute));
  lm.set("awc.deadends", calls(layers.learning.learn));  // one learn() per deadend
  lm.set("learning.learn_ns", ns(layers.learning.learn));
  lm.set("learning.learn_calls", calls(layers.learning.learn));
  lm.set("learning.extra_checks", static_cast<double>(layers.learning.extra_checks.load()));
  lm.set("learning.nogood_size_mean",
         ratio(static_cast<double>(layers.learning.nogood_literals.load()),
               static_cast<double>(layers.learning.nogoods.load())));
  lm.set("csp.work_ops", static_cast<double>(layers.csp_work_ops));
  lm.set("csp.work_ops_per_check", ratio(static_cast<double>(layers.csp_work_ops),
                                         static_cast<double>(layers.awc_checks)));
  lm.set("csp.learned_peak", static_cast<double>(layers.learned_peak));
  lm.set("db.receive_ns", ns(layers.db.receive));
  lm.set("db.compute_ns", ns(layers.db.compute));
  lm.set("db.work_ops", static_cast<double>(layers.db_work_ops));
  lm.set("gen.instance_ns", ns(layers.gen));
  lm.set("trace.overhead_frac",
         ratio(static_cast<double>(traced_ns), static_cast<double>(plain_ns)) - 1.0);
  lm.add_to(report);
  if (!a.trace_out.empty() && !spans::write_chrome_json(a.trace_out, report.values())) {
    report.note("could not write " + a.trace_out);
  }
  report.note("traced " + std::to_string(k) + " trials: " +
              std::to_string(spans::collect().size()) + " spans kept, " +
              std::to_string(spans::dropped()) + " over the span budget");
  report.print(failed == 0, attempted, failed);
  return 0;
}

// ----- net workloads --------------------------------------------------------

int run_net(const Args& a) {
  Report report;
  const Carrier carrier =
      a.workload == "net-inproc-3onesat" ? Carrier::kInProc : Carrier::kTcp;
  std::uint64_t deliveries = 0;
  std::uint64_t failed = 0;
  auto account = [&](const WindowOutcome& out) {
    deliveries += static_cast<std::uint64_t>(out.result.run.metrics.cycles);
    failed += out.failed_frames;
    if (!out.well_formed) {
      ++failed;
      std::string why = out.result.error;
      for (const std::string& e : out.worker_errors) why += " worker: " + e;
      report.note(std::string("window ended badly (") + net::to_string(out.result.reason) +
                  ")" + why);
    }
  };

  if (!a.trace) {
    std::vector<double> setup;
    net::ServeConfig config;
    for (int i = 0; i < kSetupRepeats; ++i) {
      const std::int64_t start = now_ns();
      config = make_net_job(a.seed, kWindowMs, carrier);
      setup.push_back(static_cast<double>(now_ns() - start) / 1e9);
    }
    TrialSamples samples;
    const auto deadline = now_ns() + static_cast<std::int64_t>(a.seconds * 1e9);
    while (now_ns() < deadline) {
      const WindowOutcome out = run_window(config, carrier);
      account(out);
      const sim::RunMetrics& m = out.result.run.metrics;
      samples.add(out.wall_ns, static_cast<std::uint64_t>(m.cycles), m.total_checks,
                  out.heap_bytes);
    }
    report.note(a.workload + " seed " + std::to_string(a.seed) + ": serve() windows of " +
                std::to_string(kWindowMs) + " ms, " + std::to_string(deliveries) +
                " deliveries");
    report.add("setup_s", median(setup), "s");
    samples.report(report);
    report.print(failed == 0, deliveries, failed);
    return 0;
  }

  // Traced run: kTracedWindows windows untraced, then as many traced.
  Accum gen;
  const net::ServeConfig config = make_net_job(a.seed, kWindowMs, carrier, &gen);
  std::uint64_t plain_deliveries = 0;
  std::int64_t plain_ns = 0;
  for (int i = 0; i < kTracedWindows; ++i) {
    const WindowOutcome out = run_window(config, carrier);
    account(out);
    plain_deliveries += static_cast<std::uint64_t>(out.result.run.metrics.cycles);
    plain_ns += out.wall_ns;
  }
  NetTrace trace;
  spans::set_enabled(true);
  std::uint64_t traced_deliveries = 0;
  std::int64_t traced_ns = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t false_positives = 0;
  for (int i = 0; i < kTracedWindows; ++i) {
    const WindowOutcome out = run_window(config, carrier, &trace);
    account(out);
    const sim::RunMetrics& m = out.result.run.metrics;
    traced_deliveries += static_cast<std::uint64_t>(m.cycles);
    traced_ns += out.wall_ns;
    retransmissions += m.retransmissions;
    false_positives += m.detector_false_positives;
  }
  spans::set_enabled(false);

  const ConnStats coord = trace.totals(Role::kCoordinator);
  const ConnStats worker = trace.totals(Role::kWorker);
  ConnStats all = coord;
  all.merge(worker);
  std::vector<double> hop_us;
  for (const std::int64_t h : trace.hops().samples()) {
    hop_us.push_back(static_cast<double>(h) / 1e3);
  }
  const double routed = static_cast<double>(coord.sent_kinds[kRoute]);
  const double routes = static_cast<double>(all.sent_kinds[kRoute]);
  LayerMetrics lm;
  lm.set("gen.instance_ns", static_cast<double>(gen.total_ns()));
  lm.set("net.send_ns", static_cast<double>(all.send_ns));
  lm.set("net.send_frames", static_cast<double>(all.sends));
  lm.set("net.bytes_sent", static_cast<double>(all.bytes_sent));
  lm.set("net.pump_wait_ns", static_cast<double>(all.pump_ns));
  lm.set("net.frames_per_pump", ratio(static_cast<double>(all.productive_pumps),
                                      static_cast<double>(all.pumps)));
  lm.set("net.coord_self_ns_per_routed",
         ratio(static_cast<double>(trace.serve.total_ns() - coord.call_ns() -
                                   trace.accept.total_ns()),
               routed));
  lm.set("net.routed_frames", routed);
  lm.set("net.worker_self_ns_per_delivery",
         ratio(static_cast<double>(trace.worker.total_ns() - worker.call_ns() -
                                   trace.connect.total_ns()),
               static_cast<double>(traced_deliveries)));
  lm.set("net.frames_route", routes);
  lm.set("net.frames_ack", static_cast<double>(all.sent_kinds[kAck]));
  lm.set("net.frames_stats", static_cast<double>(all.sent_kinds[kStats]));
  lm.set("net.frames_ping", static_cast<double>(all.sent_kinds[kPing]));
  lm.set("net.acks_per_route", ratio(static_cast<double>(all.sent_kinds[kAck]), routes));
  lm.set("net.hop_us_p50", percentile(hop_us, 50.0));
  lm.set("net.hop_us_p99", percentile(hop_us, 99.0));
  lm.set("recovery.retransmissions", static_cast<double>(retransmissions));
  lm.set("recovery.false_positive_frac", ratio(static_cast<double>(false_positives),
                                               static_cast<double>(retransmissions)));
  // Extra wall time per delivery under tracing, as a share of the untraced.
  lm.set("trace.overhead_frac",
         ratio(static_cast<double>(traced_ns) / static_cast<double>(traced_deliveries),
               static_cast<double>(plain_ns) / static_cast<double>(plain_deliveries)) -
             1.0);
  lm.add_to(report);
  if (!a.trace_out.empty() && !spans::write_chrome_json(a.trace_out, report.values())) {
    report.note("could not write " + a.trace_out);
  }
  report.note(std::to_string(kTracedWindows) + " traced windows: " +
              std::to_string(traced_deliveries) + " deliveries, " +
              std::to_string(hop_us.size()) + " hops matched, " +
              std::to_string(worker.routes_received) + " routes received by workers, " +
              std::to_string(spans::dropped()) + " spans over the span budget");
  report.print(failed == 0, deliveries, failed);
  return 0;
}

int print_reference(const Args& a) {
  const auto [seed, trials] = *a.print_reference;
  const SyncWorkload w = make_sync_workload(a.workload, seed);
  for (std::size_t i = 0; i < std::min(trials, w.trials.size()); ++i) {
    const TrialOutcome out = run_trial(w, i);
    if (!out.valid) throw std::runtime_error("reference trial fails validation");
    std::cout << a.workload << ' ' << seed << ' ' << i << ' ' << out.digest.cycles << ' '
              << out.digest.maxcck << ' ' << out.digest.total_checks << ' '
              << (out.digest.solved ? 1 : 0) << '\n';
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args a = parse_args(argc, argv);
    if (a.print_reference.has_value()) return print_reference(a);
    return is_sync(a.workload) ? run_sync(a) : run_net(a);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 2;
  }
}
