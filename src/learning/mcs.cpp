#include "learning/mcs.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "learning/resolvent.h"

namespace discsp::learning {

namespace {

/// A pool candidate that can support a subset: violated under the full view
/// with own = d and using only resolvent variables (a nogood is violated
/// under the restricted view S ∪ {own=d} iff it is violated under the full
/// view AND its variables fit inside S ∪ {own}). `pos` is its position in
/// the value's candidate pool; `mask` marks the resolvent variables it uses.
struct Support {
  std::size_t pos = 0;
  std::uint64_t mask = 0;
};

/// One value's candidate pool, reduced to what the subset test needs: the
/// pool size and its supporting candidates in ascending pool position.
struct ValuePool {
  std::size_t size = 0;
  std::vector<Support> supports;
};

/// The resolvent-variable mask of `ng` (own excluded), found by a merge walk
/// of the two sorted variable lists; nullopt when `ng` also touches a
/// variable outside the resolvent (it can never support a subset of it).
std::optional<std::uint64_t> resolvent_mask(const Nogood& ng, VarId own,
                                            std::span<const Assignment> resolvent) {
  std::uint64_t mask = 0;
  std::size_t i = 0;
  for (const Assignment& a : ng) {
    if (a.var == own) continue;
    while (i < resolvent.size() && resolvent[i].var < a.var) ++i;
    if (i == resolvent.size() || resolvent[i].var != a.var) return std::nullopt;
    mask |= 1ULL << i;
  }
  return mask;
}

/// Subset test: S (as a bitmask over resolvent variables) is a conflict set
/// iff for every value some higher nogood is violated inside S ∪ {own}.
/// Every nogood examined costs one check — including the ones that turn out
/// not to be violated; the tester cannot know that without evaluating them,
/// which is exactly why mcs learning is expensive (paper §4.1). Candidates
/// are examined in pool order, so a value costs the position of its first
/// support plus one, or the whole pool when nothing supports it.
bool is_conflict_set(std::uint64_t s_mask, const std::vector<ValuePool>& pools,
                     std::uint64_t& checks) {
  for (const ValuePool& pool : pools) {
    const auto hit = std::find_if(pool.supports.begin(), pool.supports.end(),
                                  [&](const Support& s) { return (s.mask & ~s_mask) == 0; });
    if (hit == pool.supports.end()) {
      checks += pool.size;
      return false;
    }
    checks += hit->pos + 1;
  }
  return true;
}

/// Next bitmask with the same popcount (Gosper's hack).
std::uint64_t next_combination(std::uint64_t v) {
  const std::uint64_t t = v | (v - 1);
  return (t + 1) | (((~t & (t + 1)) - 1) >> (std::countr_zero(v) + 1));
}

}  // namespace

std::optional<Nogood> McsLearning::learn(const DeadendContext& ctx, std::uint64_t& checks) {
  // Seed with the resolvent: it is a conflict set by construction.
  const Nogood resolvent = build_resolvent(ctx);
  const std::size_t r = resolvent.size();
  if (r <= 1) return resolvent;  // already minimum

  // Resolvents beyond 64 variables fall back to the resolvent itself (never
  // happens on the paper's problem classes).
  if (r > 64) return resolvent;
  const std::span<const Assignment> items = resolvent.items();

  // Candidate pool per value: all higher nogoods when the caller provides
  // them (the faithful, expensive accounting), else the violated ones. Only
  // violated candidates can support a subset, so only they are indexed; a
  // violated nogood's pool position comes from a forward walk of `higher`,
  // which lists violated[d] in the same order.
  std::vector<ValuePool> pools(ctx.violated.size());
  for (std::size_t d = 0; d < pools.size(); ++d) {
    const auto& violated = ctx.violated[d];
    ValuePool& pool = pools[d];
    pool.size = ctx.higher.empty() ? violated.size() : ctx.higher.size();
    std::size_t cursor = 0;
    for (std::size_t j = 0; j < violated.size(); ++j) {
      std::size_t pos = j;
      if (!ctx.higher.empty()) {
        pos = cursor;
        while (pos < ctx.higher.size() && ctx.higher[pos] != violated[j]) ++pos;
        if (pos == ctx.higher.size()) continue;  // not a pool candidate
        cursor = pos;
      }
      if (const auto mask = resolvent_mask(*violated[j], ctx.own, items)) {
        pool.supports.push_back(Support{pos, *mask});
      }
    }
  }

  const std::uint64_t full = r == 64 ? ~0ULL : (1ULL << r) - 1;
  std::uint64_t best = full;
  std::size_t tests = 0;
  const auto budget_left = [&] { return budget_ == 0 || tests < budget_; };

  // Descending size sweep. Monotonicity (S ⊆ S' and S a conflict set imply
  // S' is one) means: if no subset of size s works, none smaller does.
  bool exhausted = false;
  for (std::size_t s = r - 1; s >= 1; --s) {
    bool found = false;
    std::uint64_t combo = (1ULL << s) - 1;                  // first size-s subset
    const std::uint64_t last = combo << (r - s);            // s bits packed at the top
    for (;;) {
      if (!budget_left()) {
        exhausted = true;
        break;
      }
      ++tests;
      if (is_conflict_set(combo, pools, checks)) {
        best = combo;
        found = true;
        break;
      }
      if (combo == last) break;
      combo = next_combination(combo);
    }
    if (exhausted || !found) break;
  }

  if (exhausted) {
    // Greedy fallback: drop elements of the best conflict set one at a time.
    for (std::size_t i = 0; i < r; ++i) {
      const std::uint64_t bit = 1ULL << i;
      if ((best & bit) == 0) continue;
      if (is_conflict_set(best & ~bit, pools, checks)) best &= ~bit;
    }
  }

  std::vector<Assignment> kept;
  for (std::size_t i = 0; i < r; ++i) {
    if (best & (1ULL << i)) kept.push_back(items[i]);
  }
  return Nogood(std::move(kept));
}

}  // namespace discsp::learning
