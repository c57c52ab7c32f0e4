#include "net/coord_journal.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/hash.h"

namespace discsp::net {
namespace {

/// FNV-1a over the line body, the same platform-stable hash as the wire
/// checksum, appended to every line as " ~<16 hex digits>".
std::uint64_t line_checksum(const std::string& body) {
  return fnv1a64(kFnvOffsetBasis,
                 std::as_bytes(std::span<const char>(body.data(), body.size())));
}

std::string sealed_line(const std::string& body) {
  char suffix[24];
  std::snprintf(suffix, sizeof suffix, " ~%016" PRIx64, line_checksum(body));
  return body + suffix + "\n";
}

/// Strip and verify the checksum suffix; nullopt on a torn/corrupt line.
std::optional<std::string> unseal_line(const std::string& line) {
  const std::size_t mark = line.rfind(" ~");
  if (mark == std::string::npos || line.size() - mark != 18) return std::nullopt;
  const std::string body = line.substr(0, mark);
  std::uint64_t claimed = 0;
  if (std::sscanf(line.c_str() + mark + 2, "%16" SCNx64, &claimed) != 1) {
    return std::nullopt;
  }
  if (claimed != line_checksum(body)) return std::nullopt;
  return body;
}

void upsert(std::vector<std::pair<AgentId, std::uint64_t>>& table, AgentId key,
            std::uint64_t value) {
  for (auto& entry : table) {
    if (entry.first == key) {
      if (value > entry.second) entry.second = value;
      return;
    }
  }
  table.emplace_back(key, value);
}

void upsert(std::vector<std::pair<AgentId, Value>>& table, AgentId key,
            Value value) {
  for (auto& entry : table) {
    if (entry.first == key) {
      entry.second = value;
      return;
    }
  }
  table.emplace_back(key, value);
}

/// "<count> <agent> <value> ..." after `head`.
std::string format_pairs(const std::string& head,
                         const std::vector<std::pair<AgentId, Value>>& pairs) {
  std::ostringstream line;
  line << head << ' ' << pairs.size();
  for (const auto& [agent, value] : pairs) line << ' ' << agent << ' ' << value;
  return line.str();
}

bool parse_pairs(std::istringstream& in, std::vector<std::pair<AgentId, Value>>& pairs) {
  std::size_t count = 0;
  if (!(in >> count)) return false;
  pairs.clear();
  for (std::size_t i = 0; i < count; ++i) {
    AgentId agent = kNoAgent;
    Value value = 0;
    if (!(in >> agent >> value)) return false;
    pairs.emplace_back(agent, value);
  }
  return true;
}

std::string format_best(const char* tag, int violations,
                        const std::vector<std::pair<AgentId, Value>>& best) {
  return format_pairs(std::string(tag) + ' ' + std::to_string(violations), best);
}

bool parse_best(std::istringstream& in, int& violations,
                std::vector<std::pair<AgentId, Value>>& best) {
  return (in >> violations) && parse_pairs(in, best);
}

bool parse_words(std::istringstream& in, std::vector<std::uint64_t>& words) {
  std::size_t count = 0;
  if (!(in >> count)) return false;
  words.clear();
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t word = 0;
    if (!(in >> word)) return false;
    words.push_back(word);
  }
  return true;
}

CoordSlotState& slot_at(CoordState& state, std::size_t shard) {
  if (state.slots.size() <= shard) state.slots.resize(shard + 1);
  return state.slots[shard];
}

/// Apply one record-tail line to `state`. False = unknown/garbled record.
bool replay_record(const std::string& body, CoordState& state) {
  std::istringstream in(body);
  std::string tag;
  if (!(in >> tag)) return false;
  if (tag == "r-seq") {
    AgentId agent = kNoAgent;
    std::uint64_t limit = 0;
    if (!(in >> agent >> limit)) return false;
    upsert(state.seq_floors, agent, limit);
    return true;
  }
  if (tag == "r-value") {
    AgentId agent = kNoAgent;
    Value value = 0;
    if (!(in >> agent >> value)) return false;
    upsert(state.values, agent, value);
    return true;
  }
  if (tag == "r-attach") {
    std::size_t shard = 0;
    std::uint64_t incarnation = 0;
    int restart = 0;
    if (!(in >> shard >> incarnation >> restart)) return false;
    slot_at(state, shard).incarnation = incarnation;
    if (restart != 0) ++state.restarts;
    return true;
  }
  if (tag == "r-fold") {
    std::size_t shard = 0;
    std::uint64_t processed = 0;
    std::vector<std::uint64_t> words;
    if (!(in >> shard >> processed) || !parse_words(in, words)) return false;
    CoordSlotState& slot = slot_at(state, shard);
    slot.prior_processed = processed;
    slot.prior_words = std::move(words);
    return true;
  }
  if (tag == "r-best") {
    if (!parse_best(in, state.best_violations, state.best)) return false;
    state.have_best = true;
    return true;
  }
  if (tag == "r-solved") {
    if (!parse_pairs(in, state.solution)) return false;
    state.solved = true;
    return true;
  }
  if (tag == "r-insoluble") {
    AgentId agent = kNoAgent;
    if (!(in >> agent)) return false;
    state.insoluble = true;
    state.insoluble_agent = agent;
    return true;
  }
  if (tag == "r-assign") {
    AgentId agent = kNoAgent;
    int shard = -1;
    if (!(in >> agent >> shard) || shard < 0) return false;
    upsert(state.owners, agent, shard);
    return true;
  }
  return false;
}

}  // namespace

void CoordJournalConfig::validate() const {
  if (path.empty()) {
    throw std::invalid_argument("coordinator journal path must not be empty");
  }
  if (checkpoint_interval < 0) {
    throw std::invalid_argument(
        "coordinator journal checkpoint interval must be >= 0");
  }
  if (seq_reserve < 1) {
    throw std::invalid_argument("coordinator journal seq reserve must be >= 1");
  }
}

CoordJournal::CoordJournal(CoordJournalConfig config)
    : config_(std::move(config)) {
  config_.validate();
}

CoordJournal::~CoordJournal() {
  if (file_ != nullptr) std::fclose(file_);
}

bool CoordJournal::write_snapshot(const std::string& path,
                                  const CoordState& state,
                                  std::string* error) const {
  std::ostringstream out;
  const auto emit = [&out](const std::string& body) {
    out << sealed_line(body);
  };
  emit("coordjournal 1");
  emit("digest " + std::to_string(state.digest));
  emit("incarnation " + std::to_string(state.incarnation));
  emit("restarts " + std::to_string(state.restarts));
  emit("checkpoint-begin");
  for (const auto& [agent, seq] : state.seq_floors) {
    emit("floor " + std::to_string(agent) + ' ' + std::to_string(seq));
  }
  for (const auto& [agent, value] : state.values) {
    emit("value " + std::to_string(agent) + ' ' + std::to_string(value));
  }
  emit("slots " + std::to_string(state.slots.size()));
  for (std::size_t shard = 0; shard < state.slots.size(); ++shard) {
    const CoordSlotState& slot = state.slots[shard];
    std::ostringstream line;
    line << "slot " << shard << ' ' << slot.incarnation << ' '
         << slot.prior_processed << ' ' << slot.prior_words.size();
    for (std::uint64_t word : slot.prior_words) line << ' ' << word;
    emit(line.str());
  }
  if (state.have_best) {
    emit(format_best("best", state.best_violations, state.best));
  }
  if (state.solved) emit(format_pairs("solved", state.solution));
  if (state.insoluble) {
    emit("insoluble " + std::to_string(state.insoluble_agent));
  }
  for (const auto& [agent, shard] : state.owners) {
    emit("owner " + std::to_string(agent) + ' ' + std::to_string(shard));
  }
  emit("checkpoint-end");

  // Atomic publication: a reader (or a crash) sees either the previous
  // complete journal or this one, never a half-written checkpoint.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot write " + tmp;
    return false;
  }
  const std::string text = out.str();
  const bool wrote =
      std::fwrite(text.data(), 1, text.size(), f) == text.size() &&
      std::fflush(f) == 0;
  std::fclose(f);
  if (!wrote || std::rename(tmp.c_str(), path.c_str()) != 0) {
    if (error != nullptr) *error = "cannot publish " + path;
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

bool CoordJournal::start(const CoordState& state, std::string* error) {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  if (!write_snapshot(config_.path, state, error)) return false;
  file_ = std::fopen(config_.path.c_str(), "ab");
  if (file_ == nullptr) {
    if (error != nullptr) *error = "cannot append to " + config_.path;
    return false;
  }
  reserved_ = state.seq_floors;
  tail_records_ = 0;
  return true;
}

bool CoordJournal::checkpoint(const CoordState& state, std::string* error) {
  if (!start(state, error)) return false;
  ++checkpoints_;
  return true;
}

void CoordJournal::append_line(const std::string& body) {
  if (file_ == nullptr) return;
  const std::string line = sealed_line(body);
  std::fwrite(line.data(), 1, line.size(), file_);
  // Flush to the OS: data written here survives SIGKILL of this process
  // (only a kernel/power failure can lose it, which is outside the model).
  std::fflush(file_);
  ++tail_records_;
  ++appends_;
}

void CoordJournal::record_value(AgentId agent, Value value) {
  append_line("r-value " + std::to_string(agent) + ' ' + std::to_string(value));
}

void CoordJournal::record_attach(int shard, std::uint64_t incarnation,
                                 bool restart) {
  append_line("r-attach " + std::to_string(shard) + ' ' +
              std::to_string(incarnation) + (restart ? " 1" : " 0"));
}

void CoordJournal::record_fold(int shard, std::uint64_t prior_processed,
                               const std::vector<std::uint64_t>& prior_words) {
  std::ostringstream line;
  line << "r-fold " << shard << ' ' << prior_processed << ' '
       << prior_words.size();
  for (std::uint64_t word : prior_words) line << ' ' << word;
  append_line(line.str());
}

void CoordJournal::record_best(
    int violations, const std::vector<std::pair<AgentId, Value>>& best) {
  append_line(format_best("r-best", violations, best));
}

void CoordJournal::record_solved(const std::vector<std::pair<AgentId, Value>>& solution) {
  append_line(format_pairs("r-solved", solution));
}

void CoordJournal::record_insoluble(AgentId agent) {
  append_line("r-insoluble " + std::to_string(agent));
}

void CoordJournal::record_assign(AgentId agent, int shard) {
  append_line("r-assign " + std::to_string(agent) + ' ' +
              std::to_string(shard));
}

void CoordJournal::ensure_seq(AgentId agent, std::uint64_t seq) {
  for (auto& [known, limit] : reserved_) {
    if (known != agent) continue;
    if (seq <= limit) return;
    limit = seq + static_cast<std::uint64_t>(config_.seq_reserve);
    append_line("r-seq " + std::to_string(agent) + ' ' +
                std::to_string(limit));
    return;
  }
  const std::uint64_t limit =
      seq + static_cast<std::uint64_t>(config_.seq_reserve);
  reserved_.emplace_back(agent, limit);
  append_line("r-seq " + std::to_string(agent) + ' ' + std::to_string(limit));
}

std::optional<CoordState> CoordJournal::load(const std::string& path,
                                             std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot read " + path;
    return std::nullopt;
  }
  const auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };

  std::vector<std::string> lines;
  std::string raw;
  while (std::getline(in, raw)) lines.push_back(raw);
  std::size_t next = 0;
  // Header + checkpoint region: every line must verify (the snapshot is
  // published atomically, so damage here is real corruption).
  const auto strict = [&]() -> std::optional<std::string> {
    if (next >= lines.size()) return std::nullopt;
    return unseal_line(lines[next++]);
  };

  CoordState state;
  const auto expect_scalar = [&](const char* tag,
                                 std::uint64_t& into) -> bool {
    const auto body = strict();
    if (!body) return false;
    std::istringstream fields(*body);
    std::string seen;
    return (fields >> seen >> into) && seen == tag;
  };

  {
    const auto header = strict();
    if (!header || *header != "coordjournal 1") {
      return fail("not a coordinator journal: " + path);
    }
  }
  if (!expect_scalar("digest", state.digest)) return fail("bad digest line");
  if (!expect_scalar("incarnation", state.incarnation)) {
    return fail("bad incarnation line");
  }
  if (!expect_scalar("restarts", state.restarts)) {
    return fail("bad restarts line");
  }
  {
    const auto body = strict();
    if (!body || *body != "checkpoint-begin") {
      return fail("missing checkpoint-begin");
    }
  }
  bool closed = false;
  while (!closed) {
    const auto body = strict();
    if (!body) return fail("corrupt checkpoint region");
    std::istringstream fields(*body);
    std::string tag;
    fields >> tag;
    if (tag == "checkpoint-end") {
      closed = true;
    } else if (tag == "floor") {
      AgentId agent = kNoAgent;
      std::uint64_t seq = 0;
      if (!(fields >> agent >> seq)) return fail("bad floor line");
      state.seq_floors.emplace_back(agent, seq);
    } else if (tag == "value") {
      AgentId agent = kNoAgent;
      Value value = 0;
      if (!(fields >> agent >> value)) return fail("bad value line");
      state.values.emplace_back(agent, value);
    } else if (tag == "slots") {
      std::size_t count = 0;
      if (!(fields >> count) || count > 1u << 20) return fail("bad slots line");
      state.slots.resize(count);
    } else if (tag == "slot") {
      std::size_t shard = 0;
      CoordSlotState slot;
      if (!(fields >> shard >> slot.incarnation >> slot.prior_processed) ||
          !parse_words(fields, slot.prior_words)) {
        return fail("bad slot line");
      }
      slot_at(state, shard) = std::move(slot);
    } else if (tag == "best") {
      if (!parse_best(fields, state.best_violations, state.best)) {
        return fail("bad best line");
      }
      state.have_best = true;
    } else if (tag == "solved") {
      if (!parse_pairs(fields, state.solution)) return fail("bad solved line");
      state.solved = true;
    } else if (tag == "insoluble") {
      AgentId agent = kNoAgent;
      if (!(fields >> agent)) return fail("bad insoluble line");
      state.insoluble = true;
      state.insoluble_agent = agent;
    } else if (tag == "owner") {
      AgentId agent = kNoAgent;
      int shard = -1;
      if (!(fields >> agent >> shard) || shard < 0) return fail("bad owner line");
      state.owners.emplace_back(agent, shard);
    } else {
      return fail("unknown checkpoint line: " + *body);
    }
  }

  // Record tail: replay in order, stop quietly at the first torn line
  // (SIGKILL mid-append leaves exactly one).
  while (next < lines.size()) {
    const auto body = unseal_line(lines[next]);
    if (!body || !replay_record(*body, state)) break;
    ++next;
  }
  return state;
}

}  // namespace discsp::net
