// Coordinator control-plane journal: snapshot + record replay must rebuild
// the attach table, per-agent seq floors, and best-partial snapshot exactly,
// and a SIGKILL-torn record tail must truncate cleanly instead of failing
// the load (docs/FAULT_MODEL.md, coordinator-recovery state machine).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "net/coord_journal.h"

namespace discsp::net {
namespace {

std::string temp_journal(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

CoordJournalConfig config_for(const std::string& path) {
  CoordJournalConfig config;
  config.path = path;
  config.seq_reserve = 8;
  return config;
}

CoordState seed_state() {
  CoordState state;
  state.digest = 0xabcdef12345ULL;
  state.incarnation = 1;
  state.slots.resize(3);
  return state;
}

std::uint64_t floor_of(const CoordState& state, AgentId agent) {
  for (const auto& [known, seq] : state.seq_floors) {
    if (known == agent) return seq;
  }
  return 0;
}

TEST(CoordJournal, ReplayRebuildsControlPlaneStateExactly) {
  const std::string path = temp_journal("discsp_coord_journal_replay.wal");
  {
    CoordJournal journal(config_for(path));
    std::string error;
    ASSERT_TRUE(journal.start(seed_state(), &error)) << error;

    journal.record_attach(0, 1, false);
    journal.record_attach(1, 1, false);
    journal.record_attach(2, 1, false);
    journal.ensure_seq(3, 5);
    journal.ensure_seq(4, 2);
    journal.record_value(3, 1);
    journal.record_value(4, 0);
    journal.record_value(3, 2);  // later record wins
    journal.record_best(2, {{3, 2}, {4, 0}});
    journal.record_best(1, {{3, 1}, {4, 0}});  // improved snapshot replaces
    // Shard 1's worker died and a replacement attached: incarnation bump,
    // restart counted, dead-incarnation counters folded absolutely.
    journal.record_fold(1, 17, {9, 8, 7});
    journal.record_attach(1, 2, true);
  }

  std::string error;
  const auto loaded = CoordJournal::load(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->digest, 0xabcdef12345ULL);
  EXPECT_EQ(loaded->incarnation, 1u);
  EXPECT_EQ(loaded->restarts, 1u);

  // Attach table.
  ASSERT_EQ(loaded->slots.size(), 3u);
  EXPECT_EQ(loaded->slots[0].incarnation, 1u);
  EXPECT_EQ(loaded->slots[1].incarnation, 2u);
  EXPECT_EQ(loaded->slots[2].incarnation, 1u);
  EXPECT_EQ(loaded->slots[1].prior_processed, 17u);
  EXPECT_EQ(loaded->slots[1].prior_words, (std::vector<std::uint64_t>{9, 8, 7}));
  EXPECT_TRUE(loaded->slots[0].prior_words.empty());

  // Seq floors carry the block reservation (seq + seq_reserve).
  EXPECT_EQ(floor_of(*loaded, 3), 13u);
  EXPECT_EQ(floor_of(*loaded, 4), 10u);

  // Values and the best-partial snapshot: latest record wins, verbatim.
  EXPECT_EQ(loaded->values,
            (std::vector<std::pair<AgentId, Value>>{{3, 2}, {4, 0}}));
  EXPECT_TRUE(loaded->have_best);
  EXPECT_EQ(loaded->best_violations, 1);
  EXPECT_EQ(loaded->best,
            (std::vector<std::pair<AgentId, Value>>{{3, 1}, {4, 0}}));
  EXPECT_FALSE(loaded->insoluble);
  std::filesystem::remove(path);
}

TEST(CoordJournal, AssignRecordsReplayOwnershipExactly) {
  // Shard-migration ownership flips (r-assign) must replay bit-identically:
  // a resumed coordinator routes by the exact journaled owner map, which is
  // what makes failover and migration compose.
  const std::string path = temp_journal("discsp_coord_journal_assign.wal");
  {
    CoordJournal journal(config_for(path));
    std::string error;
    ASSERT_TRUE(journal.start(seed_state(), &error)) << error;
    journal.record_assign(3, 1);
    journal.record_assign(5, 0);
    journal.record_assign(3, 2);  // later flip wins (handback)
  }
  std::string error;
  const auto loaded = CoordJournal::load(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->owners,
            (std::vector<std::pair<AgentId, int>>{{3, 2}, {5, 0}}));

  // Checkpoint compaction carries the owner map through the snapshot region.
  {
    CoordJournal journal(config_for(path));
    ASSERT_TRUE(journal.start(seed_state(), &error)) << error;
    CoordState state = seed_state();
    state.owners = {{7, 2}};
    ASSERT_TRUE(journal.checkpoint(state, &error)) << error;
    journal.record_assign(8, 1);
  }
  const auto reloaded = CoordJournal::load(path, &error);
  ASSERT_TRUE(reloaded.has_value()) << error;
  EXPECT_EQ(reloaded->owners,
            (std::vector<std::pair<AgentId, int>>{{7, 2}, {8, 1}}));
  std::filesystem::remove(path);
}

TEST(CoordJournal, SeqBlocksMakeRoutineRoutingAppendFree) {
  const std::string path = temp_journal("discsp_coord_journal_blocks.wal");
  CoordJournal journal(config_for(path));
  std::string error;
  ASSERT_TRUE(journal.start(seed_state(), &error)) << error;

  journal.ensure_seq(0, 1);
  const std::uint64_t after_first = journal.appends();
  for (std::uint64_t seq = 2; seq <= 9; ++seq) journal.ensure_seq(0, seq);
  EXPECT_EQ(journal.appends(), after_first);  // covered by the reserved block
  journal.ensure_seq(0, 10);                  // crosses the limit: one append
  EXPECT_EQ(journal.appends(), after_first + 1);
  std::filesystem::remove(path);
}

TEST(CoordJournal, CheckpointCompactsAndSurvivesReload) {
  const std::string path = temp_journal("discsp_coord_journal_ckpt.wal");
  CoordJournal journal(config_for(path));
  std::string error;
  ASSERT_TRUE(journal.start(seed_state(), &error)) << error;
  for (int i = 0; i < 300; ++i) journal.record_value(0, i % 3);
  EXPECT_TRUE(journal.should_checkpoint());

  // The coordinator folds its live state into the snapshot; the record tail
  // resets and later appends replay on top of the new checkpoint.
  CoordState live = seed_state();
  live.incarnation = 2;
  live.restarts = 1;
  live.values = {{0, 2}};
  live.seq_floors = {{0, 640}};
  live.have_best = true;
  live.best_violations = 0;
  live.best = {{0, 2}};
  live.slots[2].incarnation = 3;
  ASSERT_TRUE(journal.checkpoint(live, &error)) << error;
  EXPECT_FALSE(journal.should_checkpoint());
  EXPECT_EQ(journal.checkpoints(), 1u);
  journal.record_value(0, 1);
  journal.record_insoluble(5);

  const auto loaded = CoordJournal::load(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->incarnation, 2u);
  EXPECT_EQ(loaded->restarts, 1u);
  EXPECT_EQ(floor_of(*loaded, 0), 640u);
  EXPECT_EQ(loaded->values, (std::vector<std::pair<AgentId, Value>>{{0, 1}}));
  EXPECT_EQ(loaded->slots[2].incarnation, 3u);
  EXPECT_TRUE(loaded->insoluble);
  EXPECT_EQ(loaded->insoluble_agent, 5);
  std::filesystem::remove(path);
}

TEST(CoordJournal, SolvedWitnessReplaysFromTheTailAndTheCheckpoint) {
  const std::string path = temp_journal("discsp_coord_journal_solved.wal");
  const std::vector<std::pair<AgentId, Value>> witness = {{0, 2}, {1, 0}, {2, 1}};
  CoordJournal journal(config_for(path));
  std::string error;
  ASSERT_TRUE(journal.start(seed_state(), &error)) << error;
  journal.record_solved(witness);
  journal.record_value(1, 2);  // a late report after the solve
  auto loaded = CoordJournal::load(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_TRUE(loaded->solved);
  EXPECT_EQ(loaded->solution, witness);

  // A checkpoint of that state carries the witness over the compaction.
  ASSERT_TRUE(journal.checkpoint(*loaded, &error)) << error;
  loaded = CoordJournal::load(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_TRUE(loaded->solved);
  EXPECT_EQ(loaded->solution, witness);
  EXPECT_FALSE(CoordJournal::load(path, &error)->insoluble);
  std::filesystem::remove(path);
}

TEST(CoordJournal, TornTailTruncatesReplayInsteadOfFailing) {
  const std::string path = temp_journal("discsp_coord_journal_torn.wal");
  {
    CoordJournal journal(config_for(path));
    std::string error;
    ASSERT_TRUE(journal.start(seed_state(), &error)) << error;
    journal.record_value(1, 1);
    journal.record_value(2, 2);
  }
  // Simulate SIGKILL mid-append: chop the file mid-way through its last line.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 5);

  std::string error;
  const auto loaded = CoordJournal::load(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->values, (std::vector<std::pair<AgentId, Value>>{{1, 1}}));
  std::filesystem::remove(path);
}

TEST(CoordJournal, CorruptCheckpointRegionFailsTheLoad) {
  const std::string path = temp_journal("discsp_coord_journal_corrupt.wal");
  {
    CoordJournal journal(config_for(path));
    std::string error;
    ASSERT_TRUE(journal.start(seed_state(), &error)) << error;
  }
  // Flip a byte inside the atomically-published snapshot region.
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(20);
  f.put('!');
  f.close();

  std::string error;
  EXPECT_FALSE(CoordJournal::load(path, &error).has_value());
  EXPECT_FALSE(error.empty());
  std::filesystem::remove(path);

  EXPECT_FALSE(CoordJournal::load(path, &error).has_value());  // missing file
}

TEST(CoordJournal, ConfigValidationRejectsBadKnobs) {
  CoordJournalConfig config;
  EXPECT_THROW(config.validate(), std::invalid_argument);  // empty path
  config.path = "x.wal";
  config.seq_reserve = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.seq_reserve = 1;
  config.checkpoint_interval = -1;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.checkpoint_interval = 0;
  EXPECT_NO_THROW(config.validate());
}

}  // namespace
}  // namespace discsp::net
