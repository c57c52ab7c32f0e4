// dcsp text format: round trips and malformed-input diagnostics.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "csp/serialize.h"
#include "gen/coloring_gen.h"
#include "multi/multi_awc.h"
#include "net/jobspec.h"

namespace discsp {
namespace {

Problem sample_problem() {
  Problem p;
  p.add_variable(3);
  p.add_variable(2);
  p.add_variable(4);
  p.add_nogood(Nogood{{0, 1}, {1, 0}});
  p.add_nogood(Nogood{{1, 1}, {2, 3}});
  p.add_nogood(Nogood{{2, 0}});
  return p;
}

TEST(Serialize, ProblemRoundTrip) {
  const Problem original = sample_problem();
  std::ostringstream out;
  write_problem(out, original, "sample\nmulti-line comment");
  std::istringstream in(out.str());
  const Problem parsed = read_problem(in);
  EXPECT_EQ(parsed.num_variables(), original.num_variables());
  for (VarId v = 0; v < original.num_variables(); ++v) {
    EXPECT_EQ(parsed.domain_size(v), original.domain_size(v));
  }
  ASSERT_EQ(parsed.num_nogoods(), original.num_nogoods());
  const NogoodList all = parsed.nogoods();
  for (NogoodView ng : original.nogoods()) {
    EXPECT_TRUE(std::find(all.begin(), all.end(), ng) != all.end()) << ng;
  }
}

TEST(Serialize, DistributedRoundTripKeepsOwnership) {
  const auto dp = multi::partition_round_robin(sample_problem(), 2);
  std::ostringstream out;
  write_distributed(out, dp);
  std::istringstream in(out.str());
  const auto parsed = read_distributed(in);
  EXPECT_EQ(parsed.num_agents(), 2);
  for (VarId v = 0; v < 3; ++v) {
    EXPECT_EQ(parsed.owner_of(v), dp.owner_of(v));
  }
}

TEST(Serialize, DefaultOwnershipIsIdentity) {
  std::istringstream in("dcsp 1\nvars 2\ndomain 0 2\ndomain 1 2\nnogood 0 0 1 0\n");
  const auto parsed = read_distributed(in);
  EXPECT_TRUE(parsed.is_one_var_per_agent());
}

TEST(Serialize, GeneratedInstanceRoundTrip) {
  Rng rng(3);
  const auto inst = gen::generate_coloring3(20, rng);
  std::ostringstream out;
  write_problem(out, inst.problem);
  std::istringstream in(out.str());
  const Problem parsed = read_problem(in);
  EXPECT_EQ(parsed.num_nogoods(), inst.problem.num_nogoods());
  EXPECT_TRUE(parsed.is_solution(inst.planted));
}

TEST(Serialize, CommentsAndBlankLinesIgnored) {
  std::istringstream in(
      "# leading comment\n"
      "dcsp 1\n"
      "\n"
      "vars 1   # trailing comment\n"
      "domain 0 2\n"
      "nogood 0 1\n");
  const Problem p = read_problem(in);
  EXPECT_EQ(p.num_variables(), 1);
  EXPECT_EQ(p.num_nogoods(), 1u);
}

TEST(Serialize, Rejections) {
  auto expect_throw = [](const std::string& text) {
    std::istringstream in(text);
    EXPECT_THROW(read_problem(in), std::runtime_error) << text;
  };
  expect_throw("");                                          // empty
  expect_throw("vars 2\n");                                  // missing header
  expect_throw("dcsp 2\nvars 1\ndomain 0 2\n");              // bad version
  expect_throw("dcsp 1\nnogood 0 0\n");                      // nogood before vars
  expect_throw("dcsp 1\nvars 1\ndomain 0 2\nbogus 1\n");     // unknown keyword
  expect_throw("dcsp 1\nvars 1\ndomain 0 2\nnogood 0 x\n");  // garbage token
  expect_throw("dcsp 1\nvars 1\ndomain 0 2\nnogood 0 7\n");  // value out of domain
  expect_throw("dcsp 1\nvars 2\ndomain 0 2\nnogood 0 0\n");  // x1 lacks a domain
  expect_throw("dcsp 1\nvars 1\ndomain 5 2\n");              // domain for unknown var
}

// A nogood binding x0 to both 0 and 1 is a model error, not a syntax one:
// the parser must refuse it rather than hand the engines a constraint that
// can never be violated.
TEST(Serialize, RefusesANogoodBindingOneVariableTwice) {
  std::istringstream in("dcsp 1\nvars 2\ndomain 0 2\ndomain 1 2\nnogood 0 0 0 1\n");
  try {
    (void)read_distributed(in);
    FAIL() << "a nogood binding x0 twice was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("binds x0 twice"), std::string::npos) << e.what();
  }
}

// The same problem inside a JobSpec, the text a coordinator hands every
// worker, is refused too.
TEST(Serialize, JobSpecRefusesANogoodBindingOneVariableTwice) {
  Problem p;
  p.add_variables(2, 2);
  p.add_nogood({{0, 0}, {1, 1}});
  net::JobSpec spec;
  spec.bundle.instance = DistributedProblem::one_var_per_agent(std::move(p));
  spec.bundle.initial.assign(2, 0);
  std::string text = net::serialize_jobspec(spec);
  ASSERT_NO_THROW((void)net::parse_jobspec(text));
  // Swap in the hostile nogood and drop the digest line, so that only the
  // model check can refuse the text.
  const std::size_t at = text.find("nogood 0 0 1 1\n");
  ASSERT_NE(at, std::string::npos) << text;
  text.replace(at, 15, "nogood 0 0 0 1\n");
  const std::size_t check = text.find("check ");
  ASSERT_NE(check, std::string::npos) << text;
  text.erase(check, text.find('\n', check) + 1 - check);
  try {
    (void)net::parse_jobspec(text);
    FAIL() << "a JobSpec with a nogood binding x0 twice was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("binds x0 twice"), std::string::npos) << e.what();
  }
}

TEST(Serialize, FileRoundTrip) {
  const auto path = std::filesystem::temp_directory_path() / "discsp_serialize_test.dcsp";
  write_problem_file(path.string(), sample_problem(), "file test");
  const Problem parsed = read_problem_file(path.string());
  EXPECT_EQ(parsed.num_nogoods(), 3u);
  std::filesystem::remove(path);
  EXPECT_THROW(read_problem_file(path.string()), std::runtime_error);
}

}  // namespace
}  // namespace discsp
