// DedupTable: the open-addressing content index shared by Problem,
// NogoodStore and sat::Cnf, checked against std::unordered_multimap under
// seeded churn. The owner model is the NogoodStore one: entries live in a
// dense vector, and removal is swap-with-last (erase, then repoint).
#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "csp/dedup_table.h"

namespace discsp {
namespace {

/// Owner of the indexed entries: entry i has content keys[i]. `clustered`
/// hashes four keys to one value, so equal hashes and long probe runs are
/// common; otherwise every key hashes apart.
struct Owner {
  bool clustered = false;
  std::vector<std::uint64_t> keys;
  DedupTable table;
  std::unordered_multimap<std::size_t, std::uint32_t> reference;  // hash -> index

  std::size_t hash(std::uint64_t key) const {
    std::uint64_t state = clustered ? key / 4 : key;
    return static_cast<std::size_t>(splitmix64(state));
  }

  std::uint32_t find(std::uint64_t key) const {
    return table.find(hash(key), [&](std::uint32_t i) { return keys[i] == key; });
  }
  std::uint32_t find_reference(std::uint64_t key) const {
    const auto [first, last] = reference.equal_range(hash(key));
    for (auto it = first; it != last; ++it) {
      if (keys[it->second] == key) return it->second;
    }
    return DedupTable::kAbsent;
  }
  void insert(std::uint64_t key) {
    const auto idx = static_cast<std::uint32_t>(keys.size());
    table.insert(hash(key), idx, [this](std::uint32_t i) { return hash(keys[i]); });
    reference.emplace(hash(key), idx);
    keys.push_back(key);
  }
  void drop_reference(std::uint64_t key, std::uint32_t idx) {
    const auto [first, last] = reference.equal_range(hash(key));
    for (auto it = first; it != last; ++it) {
      if (it->second == idx) {
        reference.erase(it);
        return;
      }
    }
    FAIL() << "reference lost index " << idx;
  }
  void remove_at(std::uint32_t idx) {
    const auto last = static_cast<std::uint32_t>(keys.size() - 1);
    table.erase(hash(keys[idx]), idx, [this](std::uint32_t i) { return hash(keys[i]); });
    drop_reference(keys[idx], idx);
    if (idx != last) {
      table.repoint(hash(keys[last]), last, idx);
      drop_reference(keys[last], last);
      reference.emplace(hash(keys[last]), idx);
      keys[idx] = keys[last];
    }
    keys.pop_back();
  }
};

void churn(std::uint64_t seed, bool clustered) {
  constexpr int kSteps = 30000;
  constexpr std::uint64_t kUniverse = 6000;
  Owner owner;
  owner.clustered = clustered;
  Rng rng(seed);
  int growths = 0;
  std::size_t peak = 0;
  for (int step = 0; step < kSteps; ++step) {
    // Three phases: fill (through several growths), drain, refill.
    const int phase = step * 3 / kSteps;
    const double insert_share = phase == 1 ? 0.25 : 0.7;
    const std::uint64_t key = rng.below(kUniverse);
    const std::uint32_t found = owner.find(key);
    ASSERT_EQ(found, owner.find_reference(key)) << "step " << step << " key " << key;
    if (rng.chance(insert_share)) {
      if (found == DedupTable::kAbsent) owner.insert(key);
    } else if (!owner.keys.empty()) {
      owner.remove_at(static_cast<std::uint32_t>(rng.index(owner.keys.size())));
    }
    ASSERT_EQ(owner.table.size(), owner.keys.size());
    ASSERT_EQ(owner.reference.size(), owner.keys.size());
    if (owner.keys.size() > peak) {
      // A power-of-two table at load <= 3/4 grows as the count crosses
      // 12, 24, 48, ...: count the crossings as growths.
      for (std::size_t cap = 16; cap <= 1u << 20; cap *= 2) {
        if (peak <= cap * 3 / 4 && owner.keys.size() > cap * 3 / 4) ++growths;
      }
      peak = owner.keys.size();
    }
    if (step % 997 == 0) {
      // Every held entry is found at its own index.
      for (std::uint32_t i = 0; i < owner.keys.size(); ++i) {
        ASSERT_EQ(owner.find(owner.keys[i]), i) << "step " << step;
      }
    }
  }
  EXPECT_GE(growths, 6) << "the churn must run through several growths";
  EXPECT_GT(peak, 1000u);
}

TEST(DedupTable, ChurnMatchesMultimapReference) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    churn(seed, /*clustered=*/false);
  }
}

TEST(DedupTable, ChurnWithSharedHashesMatchesMultimapReference) {
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    SCOPED_TRACE(seed);
    churn(seed, /*clustered=*/true);
  }
}

TEST(DedupTable, EraseKeepsProbeRunsThatWrapTheTableEnd) {
  // Every entry hashes to the last slot of a 16-slot table, so the run
  // wraps to the front; erasing from its middle must keep the rest found.
  DedupTable table;
  const auto hash_of = [](std::uint32_t) -> std::size_t { return 15; };
  for (std::uint32_t i = 0; i < 10; ++i) table.insert(15, i, hash_of);
  table.erase(15, 3, hash_of);
  for (std::uint32_t i = 0; i < 10; ++i) {
    const std::uint32_t got = table.find(15, [&](std::uint32_t j) { return j == i; });
    EXPECT_EQ(got, i == 3 ? DedupTable::kAbsent : i);
  }
  table.repoint(15, 9, 3);
  EXPECT_EQ(table.find(15, [](std::uint32_t j) { return j == 3; }), 3u);
  EXPECT_EQ(table.find(15, [](std::uint32_t j) { return j == 9; }), DedupTable::kAbsent);
  EXPECT_EQ(table.size(), 9u);
}

}  // namespace
}  // namespace discsp
