// Seeded mutation fuzz of every text parser that reads untrusted input:
// .dcsp problems, repro bundles, JobSpecs, DIMACS and the coordinator
// journal replay. Each mutant (byte flips, cuts, duplicated lines, huge and
// negative numbers) must either parse or be rejected with a typed
// exception; a crash, a sanitizer report, or an allocation failure from an
// unchecked size is a failure. The corpus is small enough to run in a few
// seconds in Debug under ASan+UBSan.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/repro.h"
#include "common/rng.h"
#include "csp/serialize.h"
#include "gen/coloring_gen.h"
#include "gen/sat_gen.h"
#include "net/coord_journal.h"
#include "net/jobspec.h"
#include "sat/dimacs.h"

namespace discsp {
namespace {

constexpr int kMutantsPerParser = 1500;

const char* const kHugeOrNegative[] = {
    "2147483648",          "4294967296",  "9223372036854775808",
    "99999999999999999999", "-1",         "-2147483649",
    "-9223372036854775809", "0",          "18446744073709551616"};

/// One random edit of `text`.
void mutate_once(std::string& text, Rng& rng) {
  if (text.empty()) {
    text = "x";
    return;
  }
  switch (rng.index(4)) {
    case 0: {  // byte flip
      text[rng.index(text.size())] = static_cast<char>(rng.index(256));
      break;
    }
    case 1: {  // cut: truncate, or drop a span
      const std::size_t at = rng.index(text.size());
      if (rng.chance(0.5)) {
        text.resize(at);
      } else {
        text.erase(at, 1 + rng.index(32));
      }
      break;
    }
    case 2: {  // duplicate one line in place
      const std::size_t at = rng.index(text.size());
      const std::size_t begin = text.rfind('\n', at) == std::string::npos
                                    ? 0
                                    : text.rfind('\n', at) + 1;
      std::size_t end = text.find('\n', at);
      end = end == std::string::npos ? text.size() : end + 1;
      text.insert(begin, text.substr(begin, end - begin));
      break;
    }
    default: {  // swap one number for a huge or negative one
      const std::size_t at = text.find_first_of("0123456789", rng.index(text.size()));
      if (at == std::string::npos) break;
      const std::size_t end = text.find_first_not_of("0123456789", at);
      const std::size_t len = (end == std::string::npos ? text.size() : end) - at;
      text.replace(at, len, kHugeOrNegative[rng.index(std::size(kHugeOrNegative))]);
      break;
    }
  }
}

/// Mutate `seed` kMutantsPerParser times (1-3 edits each) and hand each
/// mutant to `parse`: it must return or throw a std::exception other than
/// an allocation failure.
void fuzz(const std::string& name, const std::string& seed, std::uint64_t rng_seed,
          const std::function<void(const std::string&)>& parse) {
  ASSERT_NO_THROW(parse(seed)) << name << ": the unmutated seed must parse";
  Rng rng(rng_seed);
  int rejected = 0;
  for (int i = 0; i < kMutantsPerParser; ++i) {
    std::string text = seed;
    const int edits = 1 + static_cast<int>(rng.index(3));
    for (int e = 0; e < edits; ++e) mutate_once(text, rng);
    try {
      parse(text);
    } catch (const std::bad_alloc&) {
      FAIL() << name << " mutant " << i << ": allocation failure";
    } catch (const std::length_error& e) {
      FAIL() << name << " mutant " << i << ": unchecked size: " << e.what();
    } catch (const std::exception&) {
      ++rejected;
    }
  }
  // The mutations must reach the parsers' error paths, not only benign text.
  EXPECT_GT(rejected, kMutantsPerParser / 10) << name;
}

TEST(ParserFuzz, DcspProblems) {
  Rng rng(11);
  std::ostringstream out;
  write_distributed(out, gen::distribute(gen::generate_coloring3(12, rng)));
  fuzz("dcsp", out.str(), 0xd05, [](const std::string& text) {
    std::istringstream in(text);
    (void)read_distributed(in);
  });
}

TEST(ParserFuzz, ReproBundles) {
  Rng rng(12);
  const auto instance = gen::generate_coloring3(12, rng);
  analysis::ReproBundle bundle;
  bundle.faults.drop_rate = 0.1;
  bundle.faults.partition_interval = 300;
  bundle.faults.partition_duration = 100;
  bundle.retransmit.ack_timeout = 40;
  bundle.monitor = true;
  bundle.planted = instance.planted;
  bundle.initial.assign(12, 1);
  bundle.instance = gen::distribute(instance);
  bundle.observed = analysis::ObservedOutcome{true, 321, 0, 7};
  std::ostringstream out;
  analysis::write_bundle(out, bundle);
  fuzz("repro", out.str(), 0x4e9, [](const std::string& text) {
    std::istringstream in(text);
    (void)analysis::read_bundle(in);
  });
}

TEST(ParserFuzz, JobSpecs) {
  Rng rng(13);
  const auto instance = gen::generate_coloring3(12, rng);
  net::JobSpec spec;
  spec.bundle.instance = gen::distribute(instance);
  spec.bundle.initial.assign(12, 0);
  spec.bundle.retransmit.ack_timeout = 25;
  spec.num_workers = 3;
  spec.migrate = true;
  spec.seq_floors = {{1, 40}, {5, 7}};
  spec.owners = {{2, 0}, {7, 1}};
  fuzz("jobspec", net::serialize_jobspec(spec), 0x10b,
       [](const std::string& text) { (void)net::parse_jobspec(text); });
}

TEST(ParserFuzz, Dimacs) {
  Rng rng(14);
  std::ostringstream out;
  sat::write_dimacs(out, gen::generate_sat3(20, rng).cnf, "fuzz seed");
  fuzz("dimacs", out.str(), 0xd1a, [](const std::string& text) {
    std::istringstream in(text);
    (void)sat::read_dimacs(in);
  });
}

TEST(ParserFuzz, CoordJournalReplay) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "discsp_parser_fuzz.journal")
          .string();
  net::CoordState state;
  state.digest = 0xabc;
  state.values = {{0, 1}, {3, 2}};
  state.seq_floors = {{1, 64}};
  state.owners = {{4, 1}};
  state.slots.resize(2);
  state.slots[0].incarnation = 2;
  state.slots[1].prior_words = {5, 6, 7};
  state.solved = true;
  state.solution = {{0, 1}, {1, 2}};
  {
    net::CoordJournalConfig config;
    config.path = path;
    net::CoordJournal journal(config);
    std::string error;
    ASSERT_TRUE(journal.start(state, &error)) << error;
    journal.record_value(2, 1);
    journal.record_attach(1, 3, true);
    journal.record_fold(1, 40, {1, 2, 3});
    journal.record_best(1, {{0, 1}, {1, 0}});
    journal.record_assign(5, 0);
    journal.ensure_seq(3, 200);
    journal.record_solved({{0, 1}, {1, 0}, {2, 1}});
    journal.record_insoluble(2);
  }
  std::ifstream in(path);
  const std::string seed((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  // load() reports a rejected journal as nullopt + error; count that as
  // the typed rejection.
  fuzz("coord-journal", seed, 0xc0d, [&path](const std::string& text) {
    {
      std::ofstream out(path, std::ios::trunc);
      out << text;
    }
    std::string error;
    if (!net::CoordJournal::load(path, &error)) throw std::runtime_error(error);
  });
  std::remove(path.c_str());
}

}  // namespace
}  // namespace discsp
