#include "sim/fault.h"

#include <stdexcept>
#include <string>

namespace discsp::sim {

namespace {

void check_rate(double rate, const char* name) {
  if (rate < 0.0 || rate > 1.0) {
    throw std::invalid_argument(std::string(name) + " must lie in [0, 1]");
  }
}

/// Independent stream per (seed, a, b): splitmix64 over a mixed key.
Rng derive_stream(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ULL * (a + 1)) ^
                        (0xbf58476d1ce4e5b9ULL * (b + 1));
  return Rng(splitmix64(state));
}

}  // namespace

int PartitionSchedule::group_of(std::int64_t episode, AgentId agent) const {
  // Stateless splitmix64 hash of (seed, episode, agent): membership never
  // consumes stream state, so schedules can be evaluated from any thread at
  // any time without perturbing the per-channel fault streams.
  std::uint64_t state = seed_ ^
                        (0xa0761d6478bd642fULL * (static_cast<std::uint64_t>(episode) + 1)) ^
                        (0xe7037ed1a0b428dbULL * (static_cast<std::uint64_t>(agent) + 1));
  return static_cast<int>(splitmix64(state) % static_cast<std::uint64_t>(groups_));
}

std::int64_t PartitionSchedule::episode_at(std::int64_t now) const {
  if (!active() || now < 0) return -1;
  const std::int64_t episode = now / interval_;
  return (now - episode * interval_) < duration_ ? episode : -1;
}

bool PartitionSchedule::severed(AgentId from, AgentId to, std::int64_t now) const {
  const std::int64_t episode = episode_at(now);
  if (episode < 0) return false;
  return group_of(episode, from) != group_of(episode, to);
}

void FaultConfig::validate() const {
  check_rate(drop_rate, "drop_rate");
  check_rate(duplicate_rate, "duplicate_rate");
  check_rate(reorder_rate, "reorder_rate");
  check_rate(delay_spike_rate, "delay_spike_rate");
  check_rate(corrupt_rate, "corrupt_rate");
  check_rate(crash_rate, "crash_rate");
  check_rate(amnesia_rate, "amnesia_rate");
  if (delay_spike < 0) throw std::invalid_argument("delay_spike must be >= 0");
  if (max_crashes_per_agent < 0) {
    throw std::invalid_argument("max_crashes_per_agent must be >= 0");
  }
  if (refresh_interval < 0) {
    throw std::invalid_argument("refresh_interval must be >= 0");
  }
  if (partition_interval < 0) {
    throw std::invalid_argument("partition_interval must be >= 0");
  }
  if (partition_duration < 0) {
    throw std::invalid_argument("partition_duration must be >= 0");
  }
  if (partition_interval > 0 && partition_duration > partition_interval) {
    throw std::invalid_argument(
        "partition_duration must not exceed partition_interval "
        "(a window outliving its interval would never heal)");
  }
  if (partitions_enabled() && partition_groups < 2) {
    throw std::invalid_argument("partition_groups must be >= 2");
  }
  if (quarantine_budget < 0) {
    throw std::invalid_argument("quarantine_budget must be >= 0");
  }
  if (quarantine_duration < 0) {
    throw std::invalid_argument("quarantine_duration must be >= 0");
  }
}

FaultPlan::FaultPlan(const FaultConfig& config, int num_agents)
    : config_(config), num_agents_(num_agents),
      partitions_(config.seed, config.partition_interval,
                  config.partition_duration, config.partition_groups) {
  config_.validate();
  if (num_agents <= 0) throw std::invalid_argument("fault plan needs agents");
  const auto n = static_cast<std::size_t>(num_agents);
  channels_.reserve(n * n);
  for (std::size_t from = 0; from < n; ++from) {
    for (std::size_t to = 0; to < n; ++to) {
      channels_.push_back(ChannelState{derive_stream(config_.seed, from, to)});
    }
  }
  agents_.reserve(n);
  for (std::size_t a = 0; a < n; ++a) {
    agents_.push_back(AgentState{derive_stream(~config_.seed, a, a), 0});
  }
}

ChannelVerdict FaultPlan::on_send(AgentId from, AgentId to, std::int64_t now) {
  if (from < 0 || from >= num_agents_ || to < 0 || to >= num_agents_) {
    throw std::out_of_range("fault plan consulted for an unknown channel");
  }
  ChannelVerdict verdict;
  // An open partition window severs the channel before any per-message
  // stream is consulted: correlated drops must not perturb the independent
  // per-channel streams (an empty schedule is then stream-bit-identical).
  if (partitions_.severed(from, to, now)) {
    verdict.copies = 0;
    ++counts_.partition_drops;
    return verdict;
  }
  Rng& rng = channels_[static_cast<std::size_t>(from) *
                           static_cast<std::size_t>(num_agents_) +
                       static_cast<std::size_t>(to)]
                 .rng;
  // One draw per knob per send keeps the stream alignment independent of
  // which faults are enabled at which rates. The corruption draws are the
  // exception: they only exist when corrupt_rate > 0, so every
  // corruption-free config keeps the historical stream alignment.
  const bool drop = rng.chance(config_.drop_rate);
  const bool dup = rng.chance(config_.duplicate_rate);
  const bool reorder = rng.chance(config_.reorder_rate);
  const bool spike = rng.chance(config_.delay_spike_rate);
  if (drop) {
    verdict.copies = 0;
  } else if (dup) {
    verdict.copies = 2;
  }
  verdict.reorder = verdict.copies > 0 && reorder;
  verdict.extra_delay = (verdict.copies > 0 && spike) ? config_.delay_spike : 0;
  if (config_.corrupt_rate > 0) {
    const bool corrupt = rng.chance(config_.corrupt_rate);
    if (corrupt && verdict.copies > 0) {
      verdict.corrupt = true;
      verdict.corrupt_seed = rng.next();
    }
  }
  if (verdict.copies == 0) ++counts_.dropped;
  if (verdict.copies > 1) ++counts_.duplicated;
  if (verdict.reorder) ++counts_.reordered;
  if (verdict.extra_delay > 0) ++counts_.delay_spikes;
  // Every enqueued copy of a corrupted send carries the mutated frame.
  if (verdict.corrupt) counts_.corrupted += static_cast<std::uint64_t>(verdict.copies);
  return verdict;
}

CrashKind FaultPlan::on_deliver(AgentId to) {
  if (to < 0 || to >= num_agents_) {
    throw std::out_of_range("fault plan consulted for an unknown agent");
  }
  CrashKind kind = CrashKind::kNone;
  AgentState& agent = agents_[static_cast<std::size_t>(to)];
  // One draw per knob per delivery keeps the stream alignment independent
  // of which crash flavors are enabled; restart and amnesia share the
  // per-agent budget.
  const bool restart = agent.rng.chance(config_.crash_rate);
  const bool amnesia = agent.rng.chance(config_.amnesia_rate);
  if (agent.crashes < config_.max_crashes_per_agent) {
    if (restart) {
      kind = CrashKind::kRestart;
    } else if (amnesia) {
      kind = CrashKind::kAmnesia;
    }
  }
  if (kind != CrashKind::kNone) ++agent.crashes;
  if (kind == CrashKind::kRestart) ++counts_.crashes;
  if (kind == CrashKind::kAmnesia) ++counts_.amnesia;
  return kind;
}

FaultSummary FaultPlan::summary() const {
  FaultSummary s = counts_;
  s.crashes_by_agent.reserve(agents_.size());
  for (const AgentState& agent : agents_) {
    s.crashes_by_agent.push_back(agent.crashes);
  }
  return s;
}

FaultConfig fault_config_from(const ReproConfig& config) {
  FaultConfig faults;
  faults.drop_rate = config.fault_drop;
  faults.duplicate_rate = config.fault_duplicate;
  faults.reorder_rate = config.fault_reorder;
  faults.corrupt_rate = config.fault_corrupt;
  faults.crash_rate = config.fault_crash;
  faults.amnesia_rate = config.fault_amnesia;
  faults.refresh_interval = config.fault_refresh;
  faults.partition_interval = config.partition_interval;
  faults.partition_duration = config.partition_duration;
  faults.partition_groups = static_cast<int>(config.partition_groups);
  faults.quarantine_budget = static_cast<int>(config.quarantine_budget);
  faults.quarantine_duration = config.quarantine_duration;
  faults.seed = config.fault_seed != 0 ? config.fault_seed : config.seed;
  return faults;
}

}  // namespace discsp::sim
