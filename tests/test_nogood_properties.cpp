// Randomized algebraic properties of Nogood operations — the invariants the
// learning machinery silently relies on.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "csp/nogood.h"

namespace discsp {
namespace {

Nogood random_nogood(Rng& rng, int var_space, int domain, std::size_t max_size) {
  std::vector<Assignment> items;
  const std::size_t size = rng.index(max_size + 1);
  for (std::size_t i = 0; i < size; ++i) {
    items.push_back({static_cast<VarId>(rng.index(static_cast<std::size_t>(var_space))),
                     static_cast<Value>(rng.index(static_cast<std::size_t>(domain)))});
  }
  // Canonicalization dedups; conflicting (var, value) pairs must be filtered
  // the way callers do: keep the first binding per variable.
  std::vector<Assignment> filtered;
  for (const Assignment& a : items) {
    bool dup = false;
    for (const Assignment& kept : filtered) {
      if (kept.var == a.var) dup = true;
    }
    if (!dup) filtered.push_back(a);
  }
  return Nogood(std::move(filtered));
}

TEST(NogoodProperties, MergeIsCommutativeAndIdempotent) {
  Rng rng(1);
  for (int round = 0; round < 200; ++round) {
    // Disjoint variable ranges guarantee compatibility.
    Nogood a = random_nogood(rng, 10, 3, 4);
    Nogood b_raw = random_nogood(rng, 10, 3, 4);
    std::vector<Assignment> shifted;
    for (const Assignment& item : b_raw) shifted.push_back({item.var + 10, item.value});
    Nogood b{shifted};
    EXPECT_EQ(merge(a, b), merge(b, a));
    EXPECT_EQ(merge(a, a), a);
    EXPECT_EQ(merge(a, Nogood{}), a);
  }
}

TEST(NogoodProperties, SubsetIsReflexiveTransitiveAntisymmetric) {
  Rng rng(2);
  for (int round = 0; round < 200; ++round) {
    const Nogood a = random_nogood(rng, 8, 2, 5);
    EXPECT_TRUE(a.subset_of(a));
    // merge() requires compatible inputs (one binding per variable), so
    // strip every var of `a` from the extension before merging.
    Nogood extra = random_nogood(rng, 8, 2, 3);
    for (const Assignment& item : a) extra = extra.without(item.var);
    const Nogood b = merge(a, extra);
    EXPECT_TRUE(a.subset_of(b));
    EXPECT_TRUE(extra.subset_of(b));
    if (a.subset_of(b) && b.subset_of(a)) {
      EXPECT_EQ(a, b);
    }
  }
}

TEST(NogoodProperties, SubsetTransitivityOnChains) {
  Rng rng(3);
  for (int round = 0; round < 200; ++round) {
    Nogood small = random_nogood(rng, 6, 2, 2);
    std::vector<Assignment> mid_items(small.begin(), small.end());
    mid_items.push_back({static_cast<VarId>(10 + round % 5), 0});
    Nogood mid{mid_items};
    std::vector<Assignment> big_items(mid.begin(), mid.end());
    big_items.push_back({static_cast<VarId>(20 + round % 5), 1});
    Nogood big{big_items};
    EXPECT_TRUE(small.subset_of(mid));
    EXPECT_TRUE(mid.subset_of(big));
    EXPECT_TRUE(small.subset_of(big));
  }
}

TEST(NogoodProperties, WithoutIsIdempotentAndShrinks) {
  Rng rng(4);
  for (int round = 0; round < 200; ++round) {
    const Nogood a = random_nogood(rng, 10, 3, 6);
    const VarId v = static_cast<VarId>(rng.index(10));
    const Nogood once = a.without(v);
    EXPECT_EQ(once.without(v), once);
    EXPECT_LE(once.size(), a.size());
    EXPECT_FALSE(once.contains(v));
    EXPECT_TRUE(once.subset_of(a));
  }
}

TEST(NogoodProperties, ViolationIsMonotoneInSubsets) {
  // If a superset nogood is violated under a view, every subset nogood over
  // the same bindings is violated too.
  Rng rng(5);
  for (int round = 0; round < 200; ++round) {
    const Nogood big = random_nogood(rng, 8, 3, 6);
    if (big.empty()) continue;
    const Nogood small = big.without(big.items()[rng.index(big.size())].var);
    auto view = [&](VarId v) { return big.value_of(v); };
    EXPECT_TRUE(big.violated_by(view));
    EXPECT_TRUE(small.violated_by(view));
  }
}

TEST(NogoodProperties, HashEqualityContract) {
  Rng rng(6);
  for (int round = 0; round < 300; ++round) {
    const Nogood a = random_nogood(rng, 6, 2, 4);
    const Nogood b = random_nogood(rng, 6, 2, 4);
    if (a == b) {
      EXPECT_EQ(a.hash(), b.hash());
    }
    // Rebuilding from shuffled items preserves identity.
    std::vector<Assignment> items(a.begin(), a.end());
    rng.shuffle(items);
    EXPECT_EQ(Nogood(items), a);
  }
}

}  // namespace
}  // namespace discsp
