#include "csp/serialize.h"

#include <fstream>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "common/hash.h"

namespace discsp {

namespace {

/// Digest of the parsed structure; `owner` empty = plain (non-distributed)
/// file. Field-order sensitive by design: any structural change changes it.
std::uint64_t structure_digest(const Problem& problem,
                               const std::vector<AgentId>& owner) {
  std::uint64_t h = fnv1a64_word(kFnvOffsetBasis, 0xdc59ULL);  // format tag
  h = fnv1a64_word(h, static_cast<std::uint64_t>(problem.num_variables()));
  for (VarId v = 0; v < problem.num_variables(); ++v) {
    h = fnv1a64_word(h, static_cast<std::uint64_t>(problem.domain_size(v)));
  }
  h = fnv1a64_word(h, owner.empty() ? 0 : 1);
  for (AgentId a : owner) h = fnv1a64_word(h, static_cast<std::uint64_t>(a));
  h = fnv1a64_word(h, static_cast<std::uint64_t>(problem.num_nogoods()));
  for (NogoodView ng : problem.nogoods()) {
    h = fnv1a64_word(h, static_cast<std::uint64_t>(ng.size()));
    for (const Assignment& a : ng) {
      h = fnv1a64_word(h, static_cast<std::uint64_t>(a.var));
      h = fnv1a64_word(h, static_cast<std::uint64_t>(a.value));
    }
  }
  return h;
}

[[noreturn]] void fail(int line, const std::string& what) {
  throw std::runtime_error("dcsp parse error at line " + std::to_string(line) + ": " + what);
}

struct Parsed {
  Problem problem;
  std::vector<AgentId> owner;
  bool has_owner = false;
};

Parsed parse(std::istream& in) {
  Parsed out;
  std::string line;
  int lineno = 0;
  bool header_seen = false;
  int declared_vars = -1;
  std::vector<int> domain_sizes;
  std::optional<std::uint64_t> expected_check;

  auto ensure_vars_built = [&]() {
    if (out.problem.num_variables() == 0 && declared_vars > 0) {
      for (int v = 0; v < declared_vars; ++v) {
        if (domain_sizes[static_cast<std::size_t>(v)] <= 0) {
          throw std::runtime_error("dcsp parse error: x" + std::to_string(v) +
                                   " has no domain declaration");
        }
        out.problem.add_variable(domain_sizes[static_cast<std::size_t>(v)]);
      }
    }
  };

  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream body(line);
    std::string keyword;
    if (!(body >> keyword)) continue;  // blank / comment-only line

    if (keyword == "dcsp") {
      int version = 0;
      if (!(body >> version) || version != 1) fail(lineno, "unsupported dcsp version");
      header_seen = true;
    } else if (!header_seen) {
      fail(lineno, "missing 'dcsp 1' header");
    } else if (keyword == "vars") {
      if (declared_vars >= 0) fail(lineno, "duplicate vars line");
      if (!(body >> declared_vars) || declared_vars < 0) fail(lineno, "bad vars count");
      domain_sizes.assign(static_cast<std::size_t>(declared_vars), 0);
      out.owner.resize(static_cast<std::size_t>(declared_vars));
      std::iota(out.owner.begin(), out.owner.end(), 0);
    } else if (keyword == "domain") {
      long var = 0, size = 0;
      if (!(body >> var >> size) || var < 0 || var >= declared_vars || size <= 0) {
        fail(lineno, "bad domain line");
      }
      if (out.problem.num_variables() != 0) fail(lineno, "domain after nogoods");
      domain_sizes[static_cast<std::size_t>(var)] = static_cast<int>(size);
    } else if (keyword == "owner") {
      long var = 0, agent = 0;
      if (!(body >> var >> agent) || var < 0 || var >= declared_vars || agent < 0) {
        fail(lineno, "bad owner line");
      }
      out.owner[static_cast<std::size_t>(var)] = static_cast<AgentId>(agent);
      out.has_owner = true;
    } else if (keyword == "nogood") {
      ensure_vars_built();
      std::vector<Assignment> items;
      long var = 0, value = 0;
      while (body >> var >> value) {
        items.push_back({static_cast<VarId>(var), static_cast<Value>(value)});
      }
      if (!body.eof()) fail(lineno, "non-numeric token in nogood");
      try {
        out.problem.add_nogood(items);
      } catch (const std::exception& e) {
        fail(lineno, e.what());
      }
    } else if (keyword == "check") {
      std::string hex;
      if (!(body >> hex)) fail(lineno, "bad check line");
      std::istringstream digits(hex);
      std::uint64_t value = 0;
      if (!(digits >> std::hex >> value) || !digits.eof()) {
        fail(lineno, "bad check digest '" + hex + "'");
      }
      expected_check = value;
    } else {
      fail(lineno, "unknown keyword '" + keyword + "'");
    }
  }
  if (!header_seen) throw std::runtime_error("dcsp parse error: empty input");
  if (declared_vars < 0) throw std::runtime_error("dcsp parse error: missing vars line");
  ensure_vars_built();
  if (expected_check.has_value()) {
    const std::uint64_t actual = structure_digest(
        out.problem, out.has_owner ? out.owner : std::vector<AgentId>{});
    if (actual != *expected_check) {
      std::ostringstream msg;
      msg << "dcsp checksum mismatch: file declares " << std::hex
          << *expected_check << " but the parsed structure digests to "
          << actual << " (corrupted or hand-edited file)";
      throw std::runtime_error(msg.str());
    }
  }
  return out;
}

void write_header(std::ostream& out, const Problem& problem, const std::string& comment) {
  if (!comment.empty()) {
    std::istringstream lines(comment);
    std::string l;
    while (std::getline(lines, l)) out << "# " << l << '\n';
  }
  out << "dcsp 1\n";
  out << "vars " << problem.num_variables() << '\n';
  for (VarId v = 0; v < problem.num_variables(); ++v) {
    out << "domain " << v << ' ' << problem.domain_size(v) << '\n';
  }
}

void write_nogoods(std::ostream& out, const Problem& problem) {
  for (NogoodView ng : problem.nogoods()) {
    out << "nogood";
    for (const Assignment& a : ng) out << ' ' << a.var << ' ' << a.value;
    out << '\n';
  }
}

void write_check(std::ostream& out, std::uint64_t digest) {
  std::ostringstream hex;
  hex << std::hex << digest;
  out << "check " << hex.str() << '\n';
}

}  // namespace

std::uint64_t problem_digest(const Problem& problem) {
  return structure_digest(problem, {});
}

std::uint64_t distributed_digest(const DistributedProblem& problem) {
  std::vector<AgentId> owner;
  owner.reserve(static_cast<std::size_t>(problem.problem().num_variables()));
  for (VarId v = 0; v < problem.problem().num_variables(); ++v) {
    owner.push_back(problem.owner_of(v));
  }
  return structure_digest(problem.problem(), owner);
}

void write_problem(std::ostream& out, const Problem& problem, const std::string& comment) {
  write_header(out, problem, comment);
  write_nogoods(out, problem);
  write_check(out, problem_digest(problem));
}

Problem read_problem(std::istream& in) { return parse(in).problem; }

void write_distributed(std::ostream& out, const DistributedProblem& problem,
                       const std::string& comment) {
  write_header(out, problem.problem(), comment);
  for (VarId v = 0; v < problem.problem().num_variables(); ++v) {
    out << "owner " << v << ' ' << problem.owner_of(v) << '\n';
  }
  write_nogoods(out, problem.problem());
  write_check(out, distributed_digest(problem));
}

DistributedProblem read_distributed(std::istream& in) {
  Parsed parsed = parse(in);
  return DistributedProblem(std::move(parsed.problem), std::move(parsed.owner));
}

void write_problem_file(const std::string& path, const Problem& problem,
                        const std::string& comment) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  write_problem(out, problem, comment);
}

Problem read_problem_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open dcsp file: " + path);
  return read_problem(in);
}

void write_distributed_file(const std::string& path, const DistributedProblem& problem,
                            const std::string& comment) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  write_distributed(out, problem, comment);
}

DistributedProblem read_distributed_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open dcsp file: " + path);
  return read_distributed(in);
}

}  // namespace discsp
