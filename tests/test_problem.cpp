// Problem: construction rules, neighbor derivation, solution predicates.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "csp/problem.h"

namespace discsp {
namespace {

TEST(Problem, AddVariableAssignsIdsAndNames) {
  Problem p;
  EXPECT_EQ(p.add_variable(3), 0);
  EXPECT_EQ(p.add_variable(2, "flag"), 1);
  EXPECT_EQ(p.num_variables(), 2);
  EXPECT_EQ(p.domain_size(0), 3);
  EXPECT_EQ(p.domain_size(1), 2);
  EXPECT_EQ(p.name(0), "x0");
  EXPECT_EQ(p.name(1), "flag");
}

TEST(Problem, RejectsNonPositiveDomain) {
  Problem p;
  EXPECT_THROW(p.add_variable(0), std::invalid_argument);
  EXPECT_THROW(p.add_variable(-2), std::invalid_argument);
}

TEST(Problem, AddNogoodValidatesReferences) {
  Problem p;
  p.add_variables(2, 2);
  EXPECT_THROW(p.add_nogood(Nogood{{5, 0}}), std::out_of_range);
  EXPECT_THROW(p.add_nogood(Nogood{{0, 9}}), std::out_of_range);
  EXPECT_TRUE(p.add_nogood(Nogood{{0, 0}, {1, 1}}));
}

TEST(Problem, DeduplicatesNogoods) {
  Problem p;
  p.add_variables(2, 2);
  EXPECT_TRUE(p.add_nogood(Nogood{{0, 0}, {1, 1}}));
  EXPECT_FALSE(p.add_nogood(Nogood{{1, 1}, {0, 0}}));
  EXPECT_EQ(p.num_nogoods(), 1u);
}

TEST(Problem, PerVariableIndexAndNeighbors) {
  Problem p;
  p.add_variables(4, 2);
  p.add_nogood(Nogood{{0, 0}, {1, 0}});
  p.add_nogood(Nogood{{0, 1}, {2, 1}});
  p.add_nogood(Nogood{{1, 0}, {2, 0}, {3, 0}});
  EXPECT_EQ(p.nogoods_of(0).size(), 2u);
  EXPECT_EQ(p.nogoods_of(3).size(), 1u);
  EXPECT_EQ(p.neighbors_of(0), (std::vector<VarId>{1, 2}));
  EXPECT_EQ(p.neighbors_of(3), (std::vector<VarId>{1, 2}));
  EXPECT_EQ(p.neighbors_of(1), (std::vector<VarId>{0, 2, 3}));
}

TEST(Problem, IsSolutionSemantics) {
  Problem p;
  p.add_variables(2, 2);
  p.add_nogood(Nogood{{0, 0}, {1, 0}});
  EXPECT_TRUE(p.is_solution({0, 1}));
  EXPECT_TRUE(p.is_solution({1, 1}));
  EXPECT_FALSE(p.is_solution({0, 0}));
  EXPECT_FALSE(p.is_solution({0}));        // wrong arity
  EXPECT_FALSE(p.is_solution({0, 5}));     // out of domain
  EXPECT_FALSE(p.is_solution({0, -1}));
}

TEST(Problem, ViolatedCount) {
  Problem p;
  p.add_variables(3, 2);
  p.add_nogood(Nogood{{0, 0}, {1, 0}});
  p.add_nogood(Nogood{{1, 0}, {2, 0}});
  p.add_nogood(Nogood{{0, 0}, {2, 0}});
  EXPECT_EQ(p.violated_count({0, 0, 0}), 3u);
  EXPECT_EQ(p.violated_count({0, 0, 1}), 1u);
  EXPECT_EQ(p.violated_count({1, 0, 1}), 0u);
}

TEST(Problem, EmptyNogoodFlag) {
  Problem p;
  p.add_variables(1, 2);
  EXPECT_FALSE(p.has_empty_nogood());
  p.add_nogood(Nogood{});
  EXPECT_TRUE(p.has_empty_nogood());
  EXPECT_FALSE(p.is_solution({0}));
}

// ----- storage contract: the flat arena, the dedup table, the indexes -----

TEST(Problem, RejectsADuplicateGivenInPermutedOrder) {
  Problem p;
  p.add_variables(3, 3);
  const std::vector<Assignment> first = {{2, 1}, {0, 0}, {1, 2}};
  const std::vector<Assignment> permuted = {{1, 2}, {2, 1}, {0, 0}};
  EXPECT_TRUE(p.add_nogood(first));
  EXPECT_FALSE(p.add_nogood(permuted));
  EXPECT_FALSE(p.add_nogood(Nogood(permuted)));
  EXPECT_TRUE(p.add_nogood({{1, 2}, {2, 1}}));  // a proper subset is new
  ASSERT_EQ(p.num_nogoods(), 2u);
  EXPECT_EQ(p.nogood(0), (Nogood{{0, 0}, {1, 2}, {2, 1}}));
  EXPECT_EQ(p.nogood(1), (Nogood{{1, 2}, {2, 1}}));
  // A view into the problem's own arena is a duplicate too, also when the
  // arena must grow to take the candidate.
  p.shrink_to_fit();
  EXPECT_FALSE(p.add_nogood(p.nogood(0).items()));
  EXPECT_EQ(p.num_nogoods(), 2u);
}

TEST(Problem, EmptyNogoodIsStoredOnceAndSetsTheFlag) {
  Problem p;
  p.add_variables(2, 2);
  EXPECT_TRUE(p.add_nogood({{0, 1}}));
  EXPECT_FALSE(p.has_empty_nogood());
  EXPECT_TRUE(p.add_nogood(std::span<const Assignment>{}));
  EXPECT_TRUE(p.has_empty_nogood());
  EXPECT_FALSE(p.add_nogood(Nogood{}));
  ASSERT_EQ(p.num_nogoods(), 2u);
  EXPECT_TRUE(p.nogood(1).empty());
  EXPECT_EQ(p.violated_count({0, 0}), 1u);  // the empty nogood is always violated
}

TEST(Problem, OutOfRangeThrowsAndLeavesTheProblemUnchanged) {
  Problem p;
  p.add_variables(2, 3);
  EXPECT_TRUE(p.add_nogood({{0, 1}, {1, 2}}));
  EXPECT_THROW(p.add_nogood({{0, 1}, {2, 0}}), std::out_of_range);   // unknown var
  EXPECT_THROW(p.add_nogood({{-1, 0}}), std::out_of_range);
  EXPECT_THROW(p.add_nogood({{1, 0}, {0, 3}}), std::out_of_range);   // value >= domain
  EXPECT_THROW(p.add_nogood({{1, -1}}), std::out_of_range);
  ASSERT_EQ(p.num_nogoods(), 1u);
  EXPECT_FALSE(p.has_empty_nogood());
  // The rejected literals left nothing behind in the arena or the indexes.
  EXPECT_TRUE(p.add_nogood({{1, 0}}));
  EXPECT_EQ(p.nogood(1), (Nogood{{1, 0}}));
  EXPECT_EQ(p.nogoods_of(0).size(), 1u);
  EXPECT_EQ(p.nogoods_of(1).size(), 2u);
}

TEST(Problem, RefusesANogoodBindingOneVariableTwice) {
  // Such a nogood can never be violated, and it breaks value_of's binary
  // search; it is refused with a typed error in every build type.
  Problem p;
  p.add_variables(2, 2);
  EXPECT_THROW(p.add_nogood({{0, 0}, {0, 1}}), std::invalid_argument);
  EXPECT_THROW(p.add_nogood({{1, 1}, {0, 0}, {1, 0}}), std::invalid_argument);
  EXPECT_EQ(p.num_nogoods(), 0u);
  // A literal given twice is one literal, not a conflict.
  EXPECT_TRUE(p.add_nogood({{0, 1}, {0, 1}, {1, 0}}));
  EXPECT_EQ(p.nogood(0), (Nogood{{0, 1}, {1, 0}}));
  EXPECT_EQ(p.nogoods_of(0).size(), 1u);
}

TEST(Problem, TenThousandNogoodsRoundTrip) {
  constexpr int kVars = 200;
  constexpr int kDomain = 5;
  Problem p;
  p.add_variables(kVars, kDomain);
  Rng rng(424242);
  std::vector<Nogood> added;
  std::vector<Assignment> literals;
  while (added.size() < 10000) {
    literals.clear();
    const std::size_t size = 1 + rng.index(4);
    while (literals.size() < size) {
      const auto var = static_cast<VarId>(rng.index(kVars));
      const bool taken = std::any_of(literals.begin(), literals.end(),
                                     [var](const Assignment& a) { return a.var == var; });
      if (!taken) literals.push_back({var, static_cast<Value>(rng.index(kDomain))});
    }
    const bool fresh = std::find(added.begin(), added.end(), Nogood(literals)) == added.end();
    EXPECT_EQ(p.add_nogood(literals), fresh);
    if (fresh) added.emplace_back(literals);
  }
  ASSERT_EQ(p.num_nogoods(), added.size());
  std::vector<std::vector<std::uint32_t>> occurrences(kVars);
  for (std::size_t i = 0; i < added.size(); ++i) {
    ASSERT_EQ(p.nogood(i), added[i]) << "nogood " << i;
    for (const Assignment& a : added[i]) {
      occurrences[static_cast<std::size_t>(a.var)].push_back(static_cast<std::uint32_t>(i));
    }
    // Every stored nogood is found again, in reverse literal order too.
    std::vector<Assignment> reversed(added[i].begin(), added[i].end());
    std::reverse(reversed.begin(), reversed.end());
    EXPECT_FALSE(p.add_nogood(reversed));
  }
  for (VarId v = 0; v < kVars; ++v) {
    const auto list = p.nogoods_of(v);
    EXPECT_EQ(std::vector<std::uint32_t>(list.begin(), list.end()),
              occurrences[static_cast<std::size_t>(v)]);
  }
  const Problem copy = p;
  EXPECT_EQ(copy.num_nogoods(), added.size());
  EXPECT_TRUE(std::equal(copy.nogoods().begin(), copy.nogoods().end(), added.begin()));
}

}  // namespace
}  // namespace discsp
