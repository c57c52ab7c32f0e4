#include "net/jobspec.h"

#include <sstream>
#include <stdexcept>

#include "awc/awc_solver.h"
#include "csp/serialize.h"
#include "db/db_solver.h"
#include "learning/strategy.h"

namespace discsp::net {

std::string serialize_jobspec(const JobSpec& spec) {
  std::ostringstream out;
  out << "job 1\n";
  out << "num-workers " << spec.num_workers << '\n';
  out << "report-interval-ms " << spec.report_interval_ms << '\n';
  for (const auto& [agent, floor] : spec.seq_floors) {
    out << "seq-floor " << agent << ' ' << floor << '\n';
  }
  if (spec.migrate) out << "migrate 1\n";
  for (const auto& [agent, shard] : spec.owners) {
    out << "owner " << agent << ' ' << shard << '\n';
  }
  // The bundle block reuses the repro format verbatim (instance included).
  out << "bundle-begin\n";
  analysis::write_bundle(out, spec.bundle);
  out << "bundle-end\n";
  return out.str();
}

JobSpec parse_jobspec(const std::string& text) {
  const auto fail = [](int lineno, const std::string& what) -> void {
    throw std::runtime_error("jobspec parse error at line " +
                             std::to_string(lineno) + ": " + what);
  };

  JobSpec spec;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  bool header_seen = false;
  bool bundle_seen = false;
  while (std::getline(in, line)) {
    ++lineno;
    std::istringstream body(line);
    std::string keyword;
    if (!(body >> keyword)) continue;
    if (keyword[0] == '#') continue;

    if (keyword == "job") {
      int version = 0;
      if (!(body >> version) || version != 1) {
        fail(lineno, "unsupported job version");
      }
      header_seen = true;
      continue;
    }
    if (!header_seen) fail(lineno, "missing 'job 1' header");

    if (keyword == "num-workers") {
      if (!(body >> spec.num_workers) || spec.num_workers < 1) {
        fail(lineno, "num-workers must be a positive integer");
      }
    } else if (keyword == "report-interval-ms") {
      if (!(body >> spec.report_interval_ms) || spec.report_interval_ms < 1) {
        fail(lineno, "report-interval-ms must be a positive integer");
      }
    } else if (keyword == "seq-floor") {
      AgentId agent = kNoAgent;
      std::uint64_t floor = 0;
      if (!(body >> agent >> floor) || agent < 0) {
        fail(lineno, "bad seq-floor line");
      }
      spec.seq_floors.emplace_back(agent, floor);
    } else if (keyword == "migrate") {
      int flag = 0;
      if (!(body >> flag) || flag < 0 || flag > 1) {
        fail(lineno, "migrate must be 0 or 1");
      }
      spec.migrate = flag == 1;
    } else if (keyword == "owner") {
      AgentId agent = kNoAgent;
      int shard = -1;
      if (!(body >> agent >> shard) || agent < 0 || shard < 0) {
        fail(lineno, "bad owner line");
      }
      spec.owners.emplace_back(agent, shard);
    } else if (keyword == "bundle-begin") {
      std::ostringstream block;
      bool closed = false;
      while (std::getline(in, line)) {
        ++lineno;
        if (line == "bundle-end") {
          closed = true;
          break;
        }
        block << line << '\n';
      }
      if (!closed) fail(lineno, "unterminated bundle block");
      std::istringstream bundle_in(block.str());
      spec.bundle = analysis::read_bundle(bundle_in);
      bundle_seen = true;
    } else {
      fail(lineno, "unknown keyword '" + keyword + "'");
    }
  }
  if (!header_seen) throw std::runtime_error("jobspec parse error: empty input");
  if (!bundle_seen) {
    throw std::runtime_error("jobspec parse error: missing bundle block");
  }
  return spec;
}

std::uint64_t jobspec_digest(const JobSpec& spec) {
  return distributed_digest(spec.bundle.instance);
}

std::vector<std::unique_ptr<sim::Agent>> make_job_agents(
    const analysis::ReproBundle& bundle) {
  if (bundle.algo != "awc" && bundle.algo != "db") {
    throw std::invalid_argument("job: unknown algo '" + bundle.algo +
                                "' (expected awc or db)");
  }
  const Problem& p = bundle.instance.problem();
  if (static_cast<int>(bundle.initial.size()) != p.num_variables()) {
    throw std::invalid_argument(
        "job: initial assignment has " + std::to_string(bundle.initial.size()) +
        " values for " + std::to_string(p.num_variables()) + " variables");
  }
  Rng rng(bundle.seed);
  if (bundle.algo == "awc") {
    awc::AwcOptions options;
    options.nogood_capacity = bundle.nogood_capacity;
    options.journal = bundle.journal;
    options.journal_config.checkpoint_interval =
        static_cast<std::size_t>(bundle.checkpoint_interval);
    options.incremental = bundle.incremental;
    auto strategy = learning::make_strategy(bundle.strategy);
    awc::AwcSolver solver(bundle.instance, *strategy, options);
    return solver.make_agents(bundle.initial, rng.derive(1));
  }
  db::DbOptions options;
  options.journal = bundle.journal;
  options.journal_config.checkpoint_interval =
      static_cast<std::size_t>(bundle.checkpoint_interval);
  options.incremental = bundle.incremental;
  db::DbSolver solver(bundle.instance, options);
  return solver.make_agents(bundle.initial, rng.derive(1));
}

}  // namespace discsp::net
