#include "sat/dimacs.h"

#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace discsp::sat {

namespace {
[[noreturn]] void fail(int line, const std::string& what) {
  throw std::runtime_error("DIMACS parse error at line " + std::to_string(line) + ": " + what);
}
}  // namespace

Cnf read_dimacs(std::istream& in) {
  Cnf cnf;
  bool header_seen = false;
  long declared_clauses = 0;
  std::vector<Lit> pending;
  std::string line;
  int lineno = 0;

  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    if (line[0] == 'c' || line[0] == 'C') continue;
    if (line[0] == '%') break;  // SATLIB archive terminator
    if (line[0] == 'p') {
      std::istringstream hdr(line);
      std::string p, fmt;
      long nv = 0, nc = 0;
      if (!(hdr >> p >> fmt >> nv >> nc) || fmt != "cnf" || nv < 0 || nc < 0) {
        fail(lineno, "bad problem line '" + line + "'");
      }
      constexpr long kMaxCount = std::numeric_limits<int>::max();
      if (nv > kMaxCount || nc > kMaxCount) {
        fail(lineno, "count in '" + line + "' exceeds " + std::to_string(kMaxCount));
      }
      if (header_seen) fail(lineno, "duplicate problem line");
      header_seen = true;
      cnf.set_num_vars(static_cast<int>(nv));
      declared_clauses = nc;
      continue;
    }
    if (!header_seen) fail(lineno, "clause before 'p cnf' header");
    std::istringstream body(line);
    long raw = 0;
    while (body >> raw) {
      if (raw == 0) {
        cnf.add_clause(pending);
        pending.clear();
      } else {
        // Range-check before negating: -LONG_MIN overflows.
        if (raw > cnf.num_vars() || raw < -static_cast<long>(cnf.num_vars())) {
          fail(lineno, "literal " + std::to_string(raw) + " out of range");
        }
        pending.emplace_back(static_cast<VarId>((raw > 0 ? raw : -raw) - 1), raw > 0);
      }
    }
    if (!body.eof()) fail(lineno, "non-numeric token in clause data");
  }

  if (!header_seen) throw std::runtime_error("DIMACS parse error: missing 'p cnf' header");
  if (!pending.empty()) {
    // Tolerate a final clause without the trailing 0, as some archives do.
    cnf.add_clause(pending);
  }
  // Duplicate clauses are silently merged by Cnf, so the declared count is a
  // sanity upper bound, not an equality.
  if (static_cast<long>(cnf.num_clauses()) > declared_clauses && declared_clauses > 0) {
    throw std::runtime_error("DIMACS parse error: more clauses than declared");
  }
  return cnf;
}

Cnf read_dimacs_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open DIMACS file: " + path);
  return read_dimacs(in);
}

void write_dimacs(std::ostream& out, const Cnf& cnf, const std::string& comment) {
  if (!comment.empty()) {
    std::istringstream lines(comment);
    std::string l;
    while (std::getline(lines, l)) out << "c " << l << '\n';
  }
  out << "p cnf " << cnf.num_vars() << ' ' << cnf.num_clauses() << '\n';
  for (ClauseView c : cnf.clauses()) {
    for (Lit l : c) {
      out << (l.positive() ? l.var() + 1 : -(l.var() + 1)) << ' ';
    }
    out << "0\n";
  }
}

void write_dimacs_file(const std::string& path, const Cnf& cnf, const std::string& comment) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open file for writing: " + path);
  write_dimacs(out, cnf, comment);
}

}  // namespace discsp::sat
