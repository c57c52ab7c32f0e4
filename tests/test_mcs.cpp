// Mcs-based learning: minimality, minimum-cardinality, budget fallback, and
// cost accounting.
#include <gtest/gtest.h>

#include "learning/mcs.h"
#include "learning/resolvent.h"

namespace discsp::learning {
namespace {

class FlatOrder final : public PriorityOrder {
 public:
  Priority priority_of(VarId) const override { return 0; }
};

/// Helper assembling a deadend context over the given per-value violated
/// nogoods (with higher == violated, which is a legal configuration).
struct Deadend {
  std::vector<std::vector<const Nogood*>> violated;
  FlatOrder order;
  DeadendContext ctx;

  explicit Deadend(std::vector<std::vector<const Nogood*>> v, VarId own, int domain)
      : violated(std::move(v)) {
    ctx.own = own;
    ctx.domain_size = domain;
    ctx.violated = violated;
    ctx.order = &order;
  }
};

TEST(Mcs, ShrinksBelowTheResolventWhenPossible) {
  // Value 0 is ruled out by two alternatives: one via x1, one via x2.
  // Value 1 is ruled out via x2 only. Resolvent selection takes the first
  // smallest for value 0 (x1), giving {x1, x2}; the minimum conflict set is
  // just {x2}.
  Nogood v0_a{{1, 0}, {9, 0}};
  Nogood v0_b{{2, 0}, {9, 0}};
  Nogood v1{{2, 0}, {9, 1}};
  Deadend d({{&v0_a, &v0_b}, {&v1}}, 9, 2);

  std::uint64_t checks = 0;
  EXPECT_EQ(build_resolvent(d.ctx), (Nogood{{1, 0}, {2, 0}}));
  McsLearning mcs;
  const auto learned = mcs.learn(d.ctx, checks);
  ASSERT_TRUE(learned.has_value());
  EXPECT_EQ(*learned, (Nogood{{2, 0}})) << "the minimum conflict set is {x2}";
  EXPECT_GT(checks, 0u);
}

TEST(Mcs, ReturnsResolventWhenAlreadyMinimum) {
  Nogood v0{{1, 0}, {9, 0}};
  Nogood v1{{2, 0}, {9, 1}};
  Deadend d({{&v0}, {&v1}}, 9, 2);
  std::uint64_t checks = 0;
  McsLearning mcs;
  const auto learned = mcs.learn(d.ctx, checks);
  ASSERT_TRUE(learned.has_value());
  EXPECT_EQ(*learned, (Nogood{{1, 0}, {2, 0}}));
}

TEST(Mcs, ResultIsAlwaysAConflictSet) {
  // Every value must remain supported by some source inside the result.
  Nogood a{{1, 0}, {2, 1}, {9, 0}};
  Nogood b{{2, 1}, {3, 0}, {9, 1}};
  Nogood c{{1, 0}, {9, 2}};
  Deadend d({{&a}, {&b}, {&c}}, 9, 3);
  std::uint64_t checks = 0;
  McsLearning mcs;
  const auto learned = mcs.learn(d.ctx, checks);
  ASSERT_TRUE(learned.has_value());
  // {x1, x2, x3} is the resolvent; minimum must still cover all three values.
  for (const auto& violated : d.violated) {
    bool supported = false;
    for (const Nogood* ng : violated) {
      if (ng->without(9).subset_of(*learned)) supported = true;
    }
    EXPECT_TRUE(supported);
  }
}

TEST(Mcs, UnaryResolventPassesThrough) {
  Nogood v0{{1, 0}, {9, 0}};
  Nogood v1{{1, 0}, {9, 1}};
  Deadend d({{&v0}, {&v1}}, 9, 2);
  std::uint64_t checks = 0;
  McsLearning mcs;
  const auto learned = mcs.learn(d.ctx, checks);
  ASSERT_TRUE(learned.has_value());
  EXPECT_EQ(*learned, (Nogood{{1, 0}}));
}

TEST(Mcs, TinyBudgetStillYieldsMinimalConflictSet) {
  // With budget 1 the descending sweep dies immediately and the greedy
  // fallback must still produce a *minimal* set.
  Nogood v0_a{{1, 0}, {9, 0}};
  Nogood v0_b{{2, 0}, {9, 0}};
  Nogood v1{{2, 0}, {9, 1}};
  Deadend d({{&v0_a, &v0_b}, {&v1}}, 9, 2);
  std::uint64_t checks = 0;
  McsLearning mcs(/*budget=*/1);
  const auto learned = mcs.learn(d.ctx, checks);
  ASSERT_TRUE(learned.has_value());
  EXPECT_EQ(*learned, (Nogood{{2, 0}})) << "greedy elimination reaches {x2} here";
}

TEST(Mcs, ChecksScaleWithCandidatePoolSize) {
  // Doubling the candidate pool (irrelevant extra nogoods) must increase
  // the metered checks: the subset search pays for examining them. The junk
  // nogoods are same-sized but weaker-prioritized (larger ids), so resolvent
  // selection ignores them and both scenarios shrink the same resolvent.
  Nogood v0{{1, 0}, {2, 0}, {9, 0}};
  Nogood v1{{1, 0}, {3, 0}, {9, 1}};
  Nogood junk0{{6, 1}, {7, 1}, {9, 0}};  // outside-resolvent vars: examined, useless
  Nogood junk1{{6, 1}, {8, 1}, {9, 1}};

  Deadend small({{&v0}, {&v1}}, 9, 2);
  std::uint64_t checks_small = 0;
  McsLearning().learn(small.ctx, checks_small);

  Deadend big({{&v0, &junk0}, {&v1, &junk1}}, 9, 2);
  std::uint64_t checks_big = 0;
  McsLearning().learn(big.ctx, checks_big);

  EXPECT_GT(checks_big, checks_small);
}

TEST(Mcs, HigherPoolPinsLearnedSetAndCheckCount) {
  // The pool AWC passes: every higher nogood in store order, whatever value
  // it binds own to. h1 is higher but not violated (the view has x5 = 0);
  // h3 is violated but uses x7, which the resolvent {x1, x2} leaves out, so
  // it can never support a subset. Both still cost a check when examined.
  Nogood h0{{1, 0}, {9, 0}};
  Nogood h1{{5, 1}, {9, 1}};
  Nogood h2{{2, 0}, {9, 0}};
  Nogood h3{{2, 0}, {7, 0}, {9, 1}};
  Nogood h4{{2, 0}, {9, 1}};
  const std::vector<const Nogood*> higher = {&h0, &h1, &h2, &h3, &h4};
  Deadend d({{&h0, &h2}, {&h3, &h4}}, 9, 2);
  d.ctx.higher = higher;
  ASSERT_EQ(build_resolvent(d.ctx), (Nogood{{1, 0}, {2, 0}}));

  std::uint64_t checks = 0;
  const auto learned = McsLearning().learn(d.ctx, checks);
  ASSERT_TRUE(learned.has_value());
  EXPECT_EQ(*learned, (Nogood{{2, 0}}));
  // S = {x1}: value 0 is supported by h0 (1 check); value 1 examines the
  // whole pool and fails (5). S = {x2}: value 0 passes h0, h1 and stops at
  // h2 (3); value 1 stops at h4 (5). Total 1 + 5 + 3 + 5.
  EXPECT_EQ(checks, 14u);
}

TEST(Mcs, NameAndClone) {
  McsLearning mcs(123);
  EXPECT_EQ(mcs.name(), "Mcs");
  auto clone = mcs.clone();
  EXPECT_EQ(clone->name(), "Mcs");
  EXPECT_EQ(dynamic_cast<McsLearning&>(*clone).budget(), 123u);
}

}  // namespace
}  // namespace discsp::learning
