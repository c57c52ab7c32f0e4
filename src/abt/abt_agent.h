// Asynchronous backtracking agent (Yokoo et al. ICDCS'92 / TKDE'98) — the
// AWC's ancestor, included as an ablation baseline. Priorities are fixed by
// variable id (smaller id = higher priority). On a deadend the classic
// variant uses the whole agent_view as the learned nogood ("cost virtually
// zero ... however, the obtained nogood is not so effective", paper §1); the
// resolvent variant grafts the paper's learning method onto ABT instead.
//
// The agent view lives in the nogood store's mirrored flat view (ABT carries
// no per-variable extras), which also drives the store's incremental
// violation counters. With config.incremental (the default) the bucket scans
// of check_agent_view are replaced by counter reads; the metered check
// counts — including the scan's early-break behavior — are reproduced
// arithmetically, so both paths report bit-identical paper metrics.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "csp/nogood_store.h"
#include "learning/strategy.h"
#include "sim/agent.h"

namespace discsp::abt {

struct AbtAgentConfig {
  /// false: classic ABT (agent_view as nogood); true: resolvent learning.
  bool use_resolvent = false;
  /// Consistency tests through the store's match counters instead of bucket
  /// scans. Metrics are bit-identical either way.
  bool incremental = true;
};

class AbtAgent final : public sim::Agent, private learning::PriorityOrder {
 public:
  AbtAgent(AgentId id, VarId var, int domain_size, Value initial_value,
           std::vector<AgentId> lower_neighbors,
           const std::vector<Nogood>& evaluated_nogoods,
           std::shared_ptr<const std::vector<AgentId>> owner_of_var, Rng rng,
           AbtAgentConfig config = {});

  AgentId id() const override { return id_; }
  VarId variable() const override { return var_; }
  Value current_value() const override { return value_; }
  void start(sim::MessageSink& out) override;
  void receive(const sim::MessagePayload& msg) override;
  void compute(sim::MessageSink& out) override;
  std::uint64_t take_checks() override;
  bool detected_insoluble() const override { return insoluble_; }
  std::uint64_t nogoods_generated() const override { return nogoods_generated_; }
  std::uint64_t work_ops() const override { return store_.work_ops(); }

  const NogoodStore& store() const { return store_; }

 private:
  // learning::PriorityOrder: fixed order, all priorities equal, id decides.
  Priority priority_of(VarId) const override { return 0; }

  Value view_value(VarId v) const { return store_.view_value(v); }
  bool view_known(VarId v) const { return store_.view_value(v) != kNoValue; }
  bool violated_with_own(const Nogood& ng, Value d);
  void check_agent_view(sim::MessageSink& out);
  /// Scan-equivalent consistency test for value_ (true = consistent),
  /// crediting the early-break check count the bucket scan would incur.
  bool consistent_current();
  void broadcast_ok(sim::MessageSink& out);

  AgentId id_;
  VarId var_;
  int domain_size_;
  Value value_;

  NogoodStore store_;  // also holds the mirrored flat agent view

  std::vector<AgentId> outgoing_;              // lower-priority ok? recipients
  std::unordered_set<AgentId> outgoing_set_;
  std::shared_ptr<const std::vector<AgentId>> owner_of_var_;

  std::vector<VarId> pending_value_requests_;
  std::vector<AgentId> pending_link_replies_;
  std::vector<AgentId> pending_nogood_acks_;   // senders awaiting our re-asserted ok?
  std::vector<std::uint32_t> scratch_violated_;

  Rng rng_;
  AbtAgentConfig config_;
  bool dirty_ = true;
  bool insoluble_ = false;

  std::uint64_t checks_ = 0;
  std::uint64_t nogoods_generated_ = 0;
};

}  // namespace discsp::abt
