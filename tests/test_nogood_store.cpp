// NogoodStore: bucketing, deduplication, and bookkeeping invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "csp/nogood_store.h"

namespace discsp {
namespace {

TEST(NogoodStore, AddAndBucketLookup) {
  NogoodStore store(0, 3);
  EXPECT_TRUE(store.add(Nogood{{0, 1}, {2, 0}}));
  EXPECT_TRUE(store.add(Nogood{{0, 1}, {3, 2}}));
  EXPECT_TRUE(store.add(Nogood{{0, 2}, {2, 0}}));
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.bucket(0).size(), 0u);
  EXPECT_EQ(store.bucket(1).size(), 2u);
  EXPECT_EQ(store.bucket(2).size(), 1u);
  // Bucket indices resolve to nogoods binding own var to the bucket value.
  for (Value v = 0; v < 3; ++v) {
    for (auto idx : store.bucket(v)) {
      EXPECT_EQ(store.at(idx).value_of(0), v);
    }
  }
}

TEST(NogoodStore, RejectsDuplicates) {
  NogoodStore store(1, 2);
  EXPECT_TRUE(store.add(Nogood{{1, 0}, {5, 1}}));
  EXPECT_FALSE(store.add(Nogood{{5, 1}, {1, 0}}));  // same canonical nogood
  EXPECT_EQ(store.size(), 1u);
}

TEST(NogoodStore, ContainsMatchesAdd) {
  NogoodStore store(0, 2);
  const Nogood a{{0, 0}, {1, 1}};
  EXPECT_FALSE(store.contains(a));
  store.add(a);
  EXPECT_TRUE(store.contains(a));
  EXPECT_FALSE(store.contains(Nogood{{0, 0}, {1, 0}}));
}

TEST(NogoodStore, InitialVsLearnedCounters) {
  NogoodStore store(2, 3);
  store.add(Nogood{{2, 0}, {3, 1}});
  store.add(Nogood{{2, 1}, {3, 1}});
  store.mark_initial();
  EXPECT_EQ(store.initial_count(), 2u);
  EXPECT_EQ(store.learned_count(), 0u);
  store.add(Nogood{{1, 0}, {2, 2}});
  EXPECT_EQ(store.learned_count(), 1u);
}

TEST(NogoodStore, TracksMaxSize) {
  NogoodStore store(0, 2);
  EXPECT_EQ(store.max_nogood_size(), 0u);
  store.add(Nogood{{0, 0}});
  EXPECT_EQ(store.max_nogood_size(), 1u);
  store.add(Nogood{{0, 1}, {1, 0}, {2, 1}});
  EXPECT_EQ(store.max_nogood_size(), 3u);
  store.add(Nogood{{0, 0}, {4, 1}});
  EXPECT_EQ(store.max_nogood_size(), 3u);
}

TEST(NogoodStore, UnaryOwnNogoodAccepted) {
  NogoodStore store(3, 2);
  EXPECT_TRUE(store.add(Nogood{{3, 1}}));
  EXPECT_EQ(store.bucket(1).size(), 1u);
}

TEST(NogoodStore, OutOfDomainValueThrows) {
  NogoodStore store(0, 2);
  EXPECT_THROW(store.add(Nogood{{0, 5}}), std::out_of_range);
}

TEST(NogoodStore, ManyNogoodsKeepBucketsConsistent) {
  NogoodStore store(0, 3);
  std::size_t added = 0;
  for (int other = 1; other <= 40; ++other) {
    for (Value own_v = 0; own_v < 3; ++own_v) {
      for (Value other_v = 0; other_v < 2; ++other_v) {
        if (store.add(Nogood{{0, own_v}, {other, other_v}})) ++added;
      }
    }
  }
  EXPECT_EQ(store.size(), added);
  std::size_t bucket_total = 0;
  for (Value v = 0; v < 3; ++v) bucket_total += store.bucket(v).size();
  EXPECT_EQ(bucket_total, store.size());
}

/// A random nogood over own variable 0 (domain 3) and 0-3 of variables 1..8.
Nogood random_store_nogood(Rng& rng) {
  std::vector<Assignment> items{{0, static_cast<Value>(rng.index(3))}};
  const std::size_t others = rng.index(4);
  while (items.size() < 1 + others) {
    const auto var = static_cast<VarId>(1 + rng.index(8));
    const bool taken = std::any_of(items.begin(), items.end(),
                                   [var](const Assignment& a) { return a.var == var; });
    if (!taken) items.push_back({var, static_cast<Value>(rng.index(3))});
  }
  return Nogood(std::move(items));
}

/// True iff `ng` is among the store's nogoods, by a scan of every index.
bool scan_contains(const NogoodStore& store, const Nogood& ng) {
  for (std::size_t i = 0; i < store.size(); ++i) {
    if (store.at(i) == ng) return true;
  }
  return false;
}

// Seeded churn of add, remove and bounded-capacity eviction; after every
// step the store holds exactly the reference multiset, and contains()
// agrees with a full scan on a fixed pool of probes.
TEST(NogoodStore, ChurnMatchesFullScanReference) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    NogoodStore store(0, 3);
    std::vector<Nogood> reference;
    std::vector<Nogood> probes;
    for (int i = 0; i < 200; ++i) probes.push_back(random_store_nogood(rng));
    for (int i = 0; i < 10; ++i) {
      const Nogood ng = random_store_nogood(rng);
      if (store.add(ng)) reference.push_back(ng);
    }
    store.mark_initial();
    const std::vector<Nogood> initials = reference;
    std::uint64_t evictions = 0;
    for (int step = 0; step < 6000; ++step) {
      // Bounded for the middle third of the run, unbounded otherwise.
      store.set_capacity(step >= 2000 && step < 4000 ? 25 : 0);
      if (rng.chance(0.3)) {
        store.set_view(static_cast<VarId>(1 + rng.index(8)),
                       rng.chance(0.2) ? kNoValue : static_cast<Value>(rng.index(3)));
        store.set_own_value(static_cast<Value>(rng.index(3)));
      }
      const Nogood ng = rng.chance(0.5) ? probes[rng.index(probes.size())]
                                        : random_store_nogood(rng);
      const bool present = std::find(reference.begin(), reference.end(), ng) != reference.end();
      if (rng.chance(0.65)) {
        const bool added = store.add(ng);
        if (present) {
          ASSERT_FALSE(added) << "step " << step;
        }
        if (const auto& evicted = store.last_eviction(); evicted.has_value()) {
          ASSERT_TRUE(added);
          const auto it = std::find(reference.begin(), reference.end(), *evicted);
          ASSERT_NE(it, reference.end()) << "evicted a nogood it did not hold";
          reference.erase(it);
          ++evictions;
        }
        if (added) {
          reference.push_back(ng);
        } else if (!present) {
          ASSERT_NE(store.capacity(), 0u) << "refused a fresh nogood while unbounded";
        }
      } else {
        // Removal by content, of a learned nogood only: the initial ones are
        // the problem's constraints, which the agents never remove.
        const bool initial = std::find(initials.begin(), initials.end(), ng) != initials.end();
        if (present && !initial) {
          ASSERT_TRUE(store.remove(ng));
          reference.erase(std::find(reference.begin(), reference.end(), ng));
        } else if (!present) {
          ASSERT_FALSE(store.remove(ng));
        }
      }
      ASSERT_EQ(store.size(), reference.size()) << "step " << step;
      for (const Nogood& r : reference) ASSERT_TRUE(scan_contains(store, r));
      for (const Nogood& probe : probes) {
        ASSERT_EQ(store.contains(probe), scan_contains(store, probe)) << "step " << step;
      }
    }
    EXPECT_GT(evictions, 50u);
    EXPECT_EQ(store.evictions(), evictions);
  }
}

}  // namespace
}  // namespace discsp
