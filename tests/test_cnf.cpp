// CNF model: literals, clause canonicalization, evaluation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <sstream>
#include <vector>

#include "common/rng.h"
#include "sat/cnf.h"
#include "sat/dimacs.h"

namespace discsp::sat {
namespace {

TEST(Lit, EncodingRoundTrips) {
  const Lit p(3, true);
  const Lit n(3, false);
  EXPECT_EQ(p.var(), 3);
  EXPECT_TRUE(p.positive());
  EXPECT_EQ(n.var(), 3);
  EXPECT_FALSE(n.positive());
  EXPECT_EQ(p.negated(), n);
  EXPECT_EQ(n.negated(), p);
  EXPECT_NE(p.code(), n.code());
}

TEST(Lit, SatisfactionAndFalsifyingValue) {
  const Lit p(0, true);
  EXPECT_TRUE(p.satisfied_by(1));
  EXPECT_FALSE(p.satisfied_by(0));
  EXPECT_EQ(p.falsifying_value(), 0);
  const Lit n(0, false);
  EXPECT_TRUE(n.satisfied_by(0));
  EXPECT_FALSE(n.satisfied_by(1));
  EXPECT_EQ(n.falsifying_value(), 1);
}

TEST(Clause, CanonicalizesAndDeduplicates) {
  const Clause c{Lit(2, true), Lit(0, false), Lit(2, true)};
  EXPECT_EQ(c.size(), 2u);
  EXPECT_TRUE(c.contains(Lit(0, false)));
  EXPECT_TRUE(c.contains(Lit(2, true)));
  EXPECT_FALSE(c.contains(Lit(2, false)));
}

TEST(Clause, TautologyDetection) {
  EXPECT_TRUE((Clause{Lit(1, true), Lit(1, false)}).is_tautology());
  EXPECT_FALSE((Clause{Lit(1, true), Lit(2, false)}).is_tautology());
  EXPECT_FALSE(Clause{}.is_tautology());
}

TEST(Clause, SatisfiedBy) {
  const Clause c{Lit(0, true), Lit(1, false)};
  EXPECT_TRUE(c.satisfied_by({1, 1}));
  EXPECT_TRUE(c.satisfied_by({0, 0}));
  EXPECT_FALSE(c.satisfied_by({0, 1}));
  EXPECT_FALSE(Clause{}.satisfied_by({0, 0}));  // empty clause unsatisfiable
}

TEST(Cnf, AddClauseValidatesAndDeduplicates) {
  Cnf cnf(2);
  EXPECT_TRUE(cnf.add_clause({Lit(0, true), Lit(1, false)}));
  EXPECT_FALSE(cnf.add_clause({Lit(1, false), Lit(0, true)}));
  EXPECT_EQ(cnf.num_clauses(), 1u);
  EXPECT_THROW(cnf.add_clause({Lit(5, true)}), std::out_of_range);
}

TEST(Cnf, EvaluationAndUnsatCount) {
  Cnf cnf(2);
  cnf.add_clause({Lit(0, true)});
  cnf.add_clause({Lit(1, false)});
  EXPECT_TRUE(cnf.satisfied_by({1, 0}));
  EXPECT_FALSE(cnf.satisfied_by({0, 0}));
  EXPECT_EQ(cnf.unsatisfied_count({0, 1}), 2u);
  EXPECT_EQ(cnf.unsatisfied_count({1, 1}), 1u);
}

TEST(Cnf, ShrinkingVariableCountThrows) {
  Cnf cnf(4);
  EXPECT_THROW(cnf.set_num_vars(2), std::invalid_argument);
  cnf.set_num_vars(6);
  EXPECT_EQ(cnf.num_vars(), 6);
}

TEST(Cnf, StreamRendering) {
  std::ostringstream out;
  out << Clause{Lit(0, true), Lit(2, false)};
  EXPECT_EQ(out.str(), "(1 -3)");  // 1-based DIMACS style
}

TEST(Cnf, RejectsADuplicateInAnyLiteralOrder) {
  Cnf cnf(4);
  std::vector<Lit> lits{Lit(0, true), Lit(2, false), Lit(3, true)};
  EXPECT_TRUE(cnf.add_clause(lits));
  std::sort(lits.begin(), lits.end());
  do {
    EXPECT_FALSE(cnf.add_clause(lits));
    std::vector<Lit> repeated = lits;
    repeated.push_back(lits.front());  // a repeated literal is one literal
    EXPECT_FALSE(cnf.add_clause(repeated));
  } while (std::next_permutation(lits.begin(), lits.end()));
  EXPECT_EQ(cnf.num_clauses(), 1u);
  EXPECT_TRUE(cnf.contains(Clause{Lit(3, true), Lit(0, true), Lit(2, false)}));
  EXPECT_FALSE(cnf.contains(Clause{Lit(3, true), Lit(0, true)}));
  // The same literal set with one polarity flipped is a different clause.
  EXPECT_TRUE(cnf.add_clause({Lit(0, false), Lit(2, false), Lit(3, true)}));
  EXPECT_EQ(cnf.num_clauses(), 2u);
}

TEST(Cnf, AddingOwnStoredClauseIsADuplicate) {
  // add_clause may be handed a view into the formula's own arena.
  Cnf cnf(3);
  for (int v = 0; v < 3; ++v) cnf.add_clause({Lit(v, true), Lit((v + 1) % 3, false)});
  for (std::size_t i = 0; i < 3; ++i) EXPECT_FALSE(cnf.add_clause(cnf.clause(i).lits()));
  EXPECT_EQ(cnf.num_clauses(), 3u);
}

/// Canonical code list of a clause, the std::set reference's key.
std::vector<std::uint32_t> codes_of(std::span<const Lit> lits) {
  std::vector<std::uint32_t> codes;
  for (Lit l : lits) codes.push_back(l.code());
  std::sort(codes.begin(), codes.end());
  codes.erase(std::unique(codes.begin(), codes.end()), codes.end());
  return codes;
}

TEST(Cnf, LargeFormulaWithPlantedDuplicatesMatchesSetReference) {
  constexpr int kVars = 2000;
  constexpr std::size_t kClauses = 200000;
  Rng rng(2027);
  Cnf cnf(kVars);
  std::set<std::vector<std::uint32_t>> reference;
  std::vector<std::vector<std::uint32_t>> order;  // the reference's insertion order
  std::vector<Lit> lits;
  std::size_t planted = 0;
  while (cnf.num_clauses() < kClauses) {
    lits.clear();
    if (!order.empty() && rng.chance(0.2)) {
      // Plant a duplicate: an earlier clause, literals shuffled.
      for (std::uint32_t code : order[rng.index(order.size())]) {
        lits.push_back(Lit(static_cast<VarId>(code / 2), code % 2 == 0));
      }
      rng.shuffle(lits);
      ++planted;
    } else {
      // Short clauses over few variables, so fresh draws collide too.
      const std::size_t size = 1 + rng.index(3);
      const int span = size == 1 ? 40 : kVars;
      for (std::size_t i = 0; i < size; ++i) {
        lits.emplace_back(static_cast<VarId>(rng.index(static_cast<std::size_t>(span))),
                          rng.chance(0.5));
      }
    }
    std::vector<std::uint32_t> key = codes_of(lits);
    const bool fresh = reference.insert(key).second;
    ASSERT_EQ(cnf.add_clause(lits), fresh) << "clause " << cnf.num_clauses();
    if (fresh) order.push_back(std::move(key));
  }
  EXPECT_GT(planted, 40000u);
  ASSERT_EQ(cnf.num_clauses(), reference.size());
  for (std::size_t i = 0; i < cnf.num_clauses(); ++i) {
    ASSERT_EQ(codes_of(cnf.clause(i).lits()), order[i]) << "clause " << i;
    ASSERT_TRUE(cnf.contains(cnf.clause(i)));
  }
}

TEST(Cnf, DimacsRoundTripKeepsClausesAndOrder) {
  Rng rng(99);
  Cnf cnf(30);
  std::vector<Lit> lits;
  while (cnf.num_clauses() < 400) {
    lits.clear();
    const std::size_t size = rng.index(5);  // the empty clause included
    for (std::size_t i = 0; i < size; ++i) {
      lits.emplace_back(static_cast<VarId>(rng.index(30)), rng.chance(0.5));
    }
    cnf.add_clause(lits);  // tautologies kept; duplicates refused
  }
  std::stringstream text;
  write_dimacs(text, cnf, "round trip");
  const Cnf parsed = read_dimacs(text);
  EXPECT_EQ(parsed.num_vars(), cnf.num_vars());
  ASSERT_EQ(parsed.num_clauses(), cnf.num_clauses());
  for (std::size_t i = 0; i < cnf.num_clauses(); ++i) {
    EXPECT_EQ(parsed.clause(i), cnf.clause(i)) << "clause " << i;
  }
}

}  // namespace
}  // namespace discsp::sat
