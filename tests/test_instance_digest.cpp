// Pinned instance generation: the .dcsp text of generated instances and the
// order of their per-variable and per-agent index lists. Any change to the
// generators, to nogood canonicalization or to the constraint storage that
// alters an instance (or the order its constraints are visited in) changes
// these digests, and with them every paper metric.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <sstream>
#include <string>

#include "analysis/experiment.h"
#include "common/hash.h"
#include "common/rng.h"
#include "csp/serialize.h"
#include "gen/onesat_gen.h"
#include "gen/topologies.h"
#include "sat/dimacs.h"

namespace discsp {
namespace {

/// FNV-1a of the instance's .dcsp serialization (owners included).
std::uint64_t text_digest(const DistributedProblem& dp) {
  std::ostringstream out;
  write_distributed(out, dp);
  const std::string text = out.str();
  return fnv1a64(kFnvOffsetBasis,
                 std::as_bytes(std::span<const char>(text.data(), text.size())));
}

/// FNV-1a of nogoods_of, nogoods_of_agent and neighbors_of_agent, in order.
std::uint64_t index_digest(const DistributedProblem& dp) {
  std::uint64_t h = kFnvOffsetBasis;
  auto fold = [&h](const auto& list) {
    h = fnv1a64_word(h, static_cast<std::uint64_t>(list.size()));
    for (auto x : list) h = fnv1a64_word(h, static_cast<std::uint64_t>(x));
  };
  const Problem& p = dp.problem();
  for (VarId v = 0; v < p.num_variables(); ++v) fold(p.nogoods_of(v));
  for (AgentId a = 0; a < dp.num_agents(); ++a) {
    fold(dp.nogoods_of_agent(a));
    fold(dp.neighbors_of_agent(a));
  }
  return h;
}

struct Pinned {
  std::uint64_t seed;
  std::uint64_t text;
  std::uint64_t index;
};

void expect_pinned(const DistributedProblem& dp, const Pinned& pin) {
  EXPECT_EQ(text_digest(dp), pin.text) << "seed " << pin.seed;
  EXPECT_EQ(index_digest(dp), pin.index) << "seed " << pin.seed;
}

void check_family(analysis::ProblemFamily family, int n, std::span<const Pinned> pins) {
  for (const Pinned& pin : pins) {
    analysis::ExperimentSpec spec;
    spec.family = family;
    spec.n = n;
    spec.seed = pin.seed;
    expect_pinned(analysis::make_instance(spec, 0), pin);
  }
}

TEST(InstanceDigest, Sat3N150) {
  const Pinned pins[] = {
      {1, 0x8866e462dd4f9c89ULL, 0x1ddb435c3f6fe479ULL},
      {7, 0xf8bc69ed49fbd53dULL, 0xf4f47d97e2b5987dULL},
      {1001, 0x607b3c2c4bf69d59ULL, 0x471f7e29c0018c86ULL},
  };
  check_family(analysis::ProblemFamily::kSat3, 150, pins);
}

TEST(InstanceDigest, Coloring3N150) {
  const Pinned pins[] = {
      {1, 0x84293f0659d46ad2ULL, 0x35da7c1898217003ULL},
      {7, 0x966d6d2eb7267a26ULL, 0xacafbda7d06ea047ULL},
      {1001, 0xfb25da9d3fffad65ULL, 0x8cc547c7ff38b65fULL},
  };
  check_family(analysis::ProblemFamily::kColoring3, 150, pins);
}

TEST(InstanceDigest, OneSatN100) {
  const Pinned pins[] = {
      {1, 0x35b6f5d13b9cef48ULL, 0x46b63ca1bebafe5bULL},
      {7, 0x8fd269e4578a98e1ULL, 0x69aa4be331a8bf51ULL},
      {1001, 0xda5a2a2efcea587dULL, 0x13a0a8b521218e0fULL},
  };
  for (const Pinned& pin : pins) {
    Rng rng(pin.seed);
    expect_pinned(gen::distribute(gen::generate_onesat3(100, rng)), pin);
  }
}

// Every instance a sync-3sat-learn run holds (perfbench: n=150, seed 1,
// instances 0..99), folded into one digest, so a generator change that
// leaves instance 0 alone still shows.
TEST(InstanceDigest, Sat3N150AllHundredSeed1) {
  analysis::ExperimentSpec spec;
  spec.family = analysis::ProblemFamily::kSat3;
  spec.n = 150;
  spec.seed = 1;
  std::uint64_t h = kFnvOffsetBasis;
  for (int inst = 0; inst < 100; ++inst) {
    const DistributedProblem dp = analysis::make_instance(spec, inst);
    h = fnv1a64_word(h, text_digest(dp));
    h = fnv1a64_word(h, index_digest(dp));
  }
  EXPECT_EQ(h, 0xecd9356ec4e7b388ULL);
}

// random_ksat on one stream, dense enough (n=12) that duplicate draws are
// common, for k = 2, 3, 4: pins the clause draw and the dedup together.
TEST(InstanceDigest, RandomKsatHundredFormulas) {
  Rng rng(1);
  std::uint64_t h = kFnvOffsetBasis;
  for (int i = 0; i < 100; ++i) {
    const int k = 2 + i % 3;
    const sat::Cnf cnf = gen::random_ksat(12, static_cast<std::size_t>(60 * k), k, rng);
    std::ostringstream out;
    sat::write_dimacs(out, cnf);
    const std::string text = out.str();
    h = fnv1a64(h, std::as_bytes(std::span<const char>(text.data(), text.size())));
  }
  EXPECT_EQ(h, 0x2409a7adf1bc0c65ULL);
}

}  // namespace
}  // namespace discsp
