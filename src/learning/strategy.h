// Nogood learning strategies (paper §3, §4.1, §4.2).
//
// At a deadend, the AWC agent has already identified — and paid the nogood
// checks for — the set of violated *higher* nogoods per domain value. A
// LearningStrategy turns that evidence into a new nogood (or declines to,
// for the no-learning baseline). Any *additional* nogood evaluations a
// strategy performs (the mcs subset search) are metered through the `checks`
// out-parameter so they land in the same maxcck accounting as the agent's
// own tests.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "csp/nogood.h"

namespace discsp::learning {

/// Total order on variables: higher AWC priority wins, ties broken by the
/// "alphabetical" (ascending id) order of the paper.
class PriorityOrder {
 public:
  virtual ~PriorityOrder() = default;
  virtual Priority priority_of(VarId v) const = 0;

  /// True when a outranks b.
  bool outranks(VarId a, VarId b) const {
    const Priority pa = priority_of(a);
    const Priority pb = priority_of(b);
    return pa != pb ? pa > pb : a < b;
  }

  /// The weakest (lowest-ranked) variable of a nogood, ignoring `exclude`.
  /// This variable defines the nogood's priority. Returns kNoVar when the
  /// nogood contains nothing but `exclude`.
  VarId weakest_var(const Nogood& ng, VarId exclude) const;
};

/// Everything a strategy may look at when a deadend occurs.
struct DeadendContext {
  VarId own = kNoVar;
  int domain_size = 0;
  /// violated[d]: the higher nogoods violated under the agent_view with
  /// own = d. At a deadend every entry is non-empty. Pointers reference the
  /// agent's store and stay valid for the duration of learn().
  std::span<const std::vector<const Nogood*>> violated;
  /// Every higher nogood in the store, whatever value it binds own to — one
  /// value-independent list in store order, so every violated[d] is a
  /// subsequence of it (same nogoods, same relative order). The mcs
  /// subset search scans it once per value — and pays a check per examined
  /// nogood — because a subset test cannot know in advance which candidates
  /// are violated. May be empty for callers that only use resolvent
  /// learning; mcs then scans violated[d] instead.
  std::span<const Nogood* const> higher;
  /// The agent_view as (var, value) pairs — what ABT-style view learning
  /// records verbatim. May be null for callers that never use ViewLearning.
  const std::vector<Assignment>* agent_view = nullptr;
  const PriorityOrder* order = nullptr;
};

class LearningStrategy {
 public:
  virtual ~LearningStrategy() = default;

  virtual std::string name() const = 0;

  /// Produce the deadend's new nogood (without the own variable), or nullopt
  /// for no learning. `checks` must be incremented by one per nogood
  /// evaluated beyond the evidence already present in `ctx`.
  virtual std::optional<Nogood> learn(const DeadendContext& ctx,
                                      std::uint64_t& checks) = 0;

  /// Maximum size of a nogood an agent should *record* (0 = unlimited).
  /// Generation and sending are unaffected — this is the paper's
  /// size-bounded learning, applied at the recording site.
  virtual std::size_t record_bound() const { return 0; }

  /// Each agent owns an independent strategy instance.
  virtual std::unique_ptr<LearningStrategy> clone() const = 0;
};

/// "No": never learn. Deadends are broken by priority raises alone, which
/// costs completeness (the paper's Tables 1-3 '%' column).
class NoLearning final : public LearningStrategy {
 public:
  std::string name() const override { return "No"; }
  std::optional<Nogood> learn(const DeadendContext&, std::uint64_t&) override {
    return std::nullopt;
  }
  std::unique_ptr<LearningStrategy> clone() const override {
    return std::make_unique<NoLearning>();
  }
};

/// Factory helpers matching the paper's row labels: "Rslv", "3rdRslv",
/// "Mcs", "No". Throws std::invalid_argument for unknown labels.
std::unique_ptr<LearningStrategy> make_strategy(const std::string& label);

}  // namespace discsp::learning
