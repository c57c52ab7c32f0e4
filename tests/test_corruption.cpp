// Checksummed wire format (sim/message.h), corruption fuzzing, .dcsp
// integrity digests (csp/serialize.h), and end-to-end corruption chaos.
//
// Key properties:
//  - every payload type round-trips encode -> decode bit-exactly;
//  - fuzz: every corruption mode over many seeds yields a frame that
//    decode_frame REJECTS and never crashes on — including kRewrite, whose
//    checksum verifies and which only semantic validation can catch;
//  - random garbage frames never crash the decoder;
//  - the ChannelGuard quarantines a channel that exceeds its malformed
//    budget and readmits it after the window;
//  - .dcsp files carry a structural digest: tampering is detected, clean
//    files round-trip, legacy files without the trailer still load;
//  - the ISSUE acceptance bar end to end: partitions + 1% corruption + 10%
//    drop + 5% duplication, AWC still solves >= 95% with zero monitor
//    violations, and corrupted frames show up as rejected malformed frames;
#include <gtest/gtest.h>

#include <sstream>

#include "awc/awc_solver.h"
#include "csp/distributed_problem.h"
#include "csp/serialize.h"
#include "csp/validate.h"
#include "gen/coloring_gen.h"
#include "learning/resolvent.h"
#include "sim/async_engine.h"
#include "sim/fault.h"
#include "sim/message.h"

namespace discsp {
namespace {

sim::WireLimits small_limits() {
  sim::WireLimits limits;
  limits.num_agents = 5;
  limits.domain_sizes = {3, 3, 4, 2, 3};
  return limits;
}

std::vector<sim::MessagePayload> sample_payloads() {
  return {
      sim::OkMessage{2, 2, 3, 4, 17},
      sim::OkMessage{0, 0, 0, 0, 0},
      sim::NogoodMessage{1, Nogood{{0, 1}, {2, 3}}},
      sim::NogoodMessage{4, Nogood{}},  // empty nogood (insolubility proof)
      sim::AddLinkMessage{3, 1},
      sim::AddLinkMessage{0, kNoVar},  // crash-recovery wildcard link request
      sim::ImproveMessage{4, 4, -12, 99, 3},
  };
}

TEST(WireFormat, AllPayloadTypesRoundTrip) {
  const sim::WireLimits limits = small_limits();
  for (const sim::MessagePayload& payload : sample_payloads()) {
    const sim::WireFrame frame = sim::encode_frame(payload);
    const sim::DecodeResult decoded = sim::decode_frame(frame, limits);
    ASSERT_TRUE(decoded.ok())
        << to_string(payload) << " rejected: " << to_string(decoded.error);
    EXPECT_EQ(to_string(*decoded.payload), to_string(payload));
    EXPECT_EQ(decoded.payload->index(), payload.index());
  }
}

TEST(WireFormat, RejectsOutOfBoundsFields) {
  const sim::WireLimits limits = small_limits();
  // Sender beyond num_agents.
  auto reject = [&](const sim::MessagePayload& payload, sim::DecodeError want) {
    const sim::WireFrame frame = sim::encode_frame(payload);
    const sim::DecodeResult decoded = sim::decode_frame(frame, limits);
    EXPECT_FALSE(decoded.ok()) << to_string(payload) << " was accepted";
    EXPECT_EQ(decoded.error, want) << to_string(payload);
  };
  reject(sim::OkMessage{9, 0, 0, 0, 1}, sim::DecodeError::kBadAgent);
  reject(sim::OkMessage{1, 7, 0, 0, 1}, sim::DecodeError::kBadVar);
  reject(sim::OkMessage{1, 3, 2, 0, 1}, sim::DecodeError::kBadValue);  // dom(3)=2
  reject(sim::OkMessage{1, 0, 0, 0, sim::WireLimits::kMaxSeq + 1},
         sim::DecodeError::kBadBounds);
  reject(sim::NogoodMessage{1, Nogood{{0, 1}, {6, 0}}}, sim::DecodeError::kBadVar);
  reject(sim::NogoodMessage{1, Nogood{{3, 1}, {2, 9}}}, sim::DecodeError::kBadValue);
  reject(sim::AddLinkMessage{1, 12}, sim::DecodeError::kBadVar);
  reject(sim::ImproveMessage{1, 1, sim::WireLimits::kMaxMagnitude + 1, 0, 1},
         sim::DecodeError::kBadBounds);
}

TEST(WireFormat, FuzzedCorruptionIsAlwaysRejected) {
  // The detection guarantee behind the chaos suites: for every payload type,
  // every corruption mode, and many operand seeds, the mutated frame must be
  // rejected — and must never crash the decoder. kRewrite fixes the checksum
  // up, so this also proves semantic validation pulls its weight.
  const sim::WireLimits limits = small_limits();
  int rewrites_passing_checksum = 0;
  for (const sim::MessagePayload& payload : sample_payloads()) {
    const sim::WireFrame original = sim::encode_frame(payload);
    for (const sim::CorruptMode mode :
         {sim::CorruptMode::kBitFlip, sim::CorruptMode::kTruncate,
          sim::CorruptMode::kRewrite}) {
      for (std::uint64_t r = 0; r < 500; ++r) {
        sim::WireFrame frame = original;
        sim::apply_corruption(frame, mode, r * 0x9e3779b97f4a7c15ULL + 1, r + 7);
        ASSERT_NE(frame, original) << "corruption must change the frame";
        const sim::DecodeResult decoded = sim::decode_frame(frame, limits);
        ASSERT_FALSE(decoded.ok())
            << "corrupted frame accepted (mode " << static_cast<int>(mode)
            << ", r=" << r << ", payload " << to_string(payload) << ")";
        if (mode == sim::CorruptMode::kRewrite &&
            decoded.error != sim::DecodeError::kChecksum) {
          ++rewrites_passing_checksum;
        }
      }
    }
  }
  EXPECT_GT(rewrites_passing_checksum, 0)
      << "kRewrite never exercised semantic validation";
}

TEST(WireFormat, FaultLayerCorruptFrameIsAlwaysRejected) {
  // corrupt_frame is what the engines actually apply (mode and operands
  // derived from the verdict's seed); same guarantee, one level up.
  const sim::WireLimits limits = small_limits();
  for (const sim::MessagePayload& payload : sample_payloads()) {
    const sim::WireFrame original = sim::encode_frame(payload);
    for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
      sim::WireFrame frame = original;
      sim::corrupt_frame(frame, seed);
      ASSERT_NE(frame, original);
      ASSERT_FALSE(sim::decode_frame(frame, limits).ok())
          << "seed " << seed << " produced an accepted corruption of "
          << to_string(payload);
    }
  }
}

TEST(WireFormat, RandomGarbageNeverCrashesTheDecoder) {
  const sim::WireLimits limits = small_limits();
  Rng rng(0xfeed);
  for (int i = 0; i < 2000; ++i) {
    sim::WireFrame frame(rng.index(12));
    for (auto& w : frame) w = rng.next();
    const sim::DecodeResult decoded = sim::decode_frame(frame, limits);
    if (decoded.ok()) {
      // Astronomically unlikely (the checksum must verify), but if it ever
      // happens the payload must at least be semantically valid.
      EXPECT_TRUE(decoded.payload.has_value());
    }
  }
}

TEST(ChannelGuardPolicy, QuarantinesOverBudgetAndReadmits) {
  sim::ChannelGuard guard(/*num_agents=*/3, /*budget=*/2, /*duration=*/100);
  EXPECT_FALSE(guard.is_quarantined(0, 1, 0));
  EXPECT_FALSE(guard.record_malformed(0, 1, 10));  // 1 <= budget
  EXPECT_FALSE(guard.record_malformed(0, 1, 11));  // 2 <= budget
  EXPECT_TRUE(guard.record_malformed(0, 1, 12));   // 3 > budget -> quarantine
  EXPECT_TRUE(guard.is_quarantined(0, 1, 12));
  EXPECT_TRUE(guard.is_quarantined(0, 1, 111));
  EXPECT_FALSE(guard.is_quarantined(1, 0, 12)) << "channels are directional";
  EXPECT_FALSE(guard.is_quarantined(0, 2, 12));
  // Window elapses: readmitted, budget reset.
  EXPECT_FALSE(guard.is_quarantined(0, 1, 112));
  EXPECT_FALSE(guard.record_malformed(0, 1, 113));
  EXPECT_EQ(guard.malformed_frames(), 4u);
  EXPECT_EQ(guard.quarantines(), 1u);
}

TEST(ChannelGuardPolicy, ZeroBudgetCountsButNeverQuarantines) {
  sim::ChannelGuard guard(2, /*budget=*/0, /*duration=*/100);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(guard.record_malformed(0, 1, i));
  }
  EXPECT_FALSE(guard.is_quarantined(0, 1, 20));
  EXPECT_EQ(guard.malformed_frames(), 20u);
  EXPECT_EQ(guard.quarantines(), 0u);
}

TEST(DcspDigest, TamperedFileIsRejected) {
  Rng rng(31337);
  const auto instance = gen::generate_coloring3(12, rng);
  const auto dp = gen::distribute(instance);

  std::stringstream clean;
  write_distributed(clean, dp);
  const std::string text = clean.str();
  ASSERT_NE(text.find("check "), std::string::npos) << "writer must emit a digest";

  // Clean round trip, digest intact.
  {
    std::istringstream in(text);
    const DistributedProblem back = read_distributed(in);
    EXPECT_EQ(distributed_digest(back), distributed_digest(dp));
  }
  // Flip one nogood value: structural digest mismatch must throw.
  {
    std::string tampered = text;
    const auto pos = tampered.find("nogood ");
    ASSERT_NE(pos, std::string::npos);
    const auto line_end = tampered.find('\n', pos);
    std::string line = tampered.substr(pos, line_end - pos);
    // "nogood <var> <val> <var> <val>": bump the last value within domain.
    const auto last_space = line.rfind(' ');
    const int old_value = std::stoi(line.substr(last_space + 1));
    line = line.substr(0, last_space + 1) + std::to_string((old_value + 1) % 3);
    tampered = tampered.substr(0, pos) + line + tampered.substr(line_end);
    std::istringstream in(tampered);
    EXPECT_THROW(read_distributed(in), std::runtime_error);
  }
  // Garbage digest line.
  {
    std::istringstream in("dcsp 1\nvars 1\ndomain 0 2\ncheck zzzz\n");
    EXPECT_THROW(read_distributed(in), std::runtime_error);
  }
  // Legacy file without a trailer still loads.
  {
    std::string legacy = text;
    const auto pos = legacy.find("check ");
    legacy.resize(pos);
    std::istringstream in(legacy);
    const DistributedProblem back = read_distributed(in);
    EXPECT_EQ(distributed_digest(back), distributed_digest(dp));
  }
}

TEST(CorruptionChaos, AcceptanceBarPartitionsPlusCorruption) {
  // ISSUE acceptance bar: 1% corruption + 10% drop + 5% duplication + 2-way
  // partition episodes, ack/retransmit armed. AWC/resolvent must solve
  // >= 95% of n=30 trials, every solution validates, every corrupted frame
  // that reached a receiver was rejected (malformed counter moves, no
  // monitor violation ever fires), and no trial crashes.
  constexpr int kTrials = 20;
  int solved = 0;
  std::uint64_t corrupted = 0, malformed = 0, violations = 0;
  for (int t = 0; t < kTrials; ++t) {
    const std::uint64_t seed = 5200 + static_cast<std::uint64_t>(t);
    Rng rng(seed);
    const auto instance = gen::generate_coloring3(30, rng);
    const auto dp = gen::distribute(instance);
    FullAssignment initial(30);
    for (auto& v : initial) v = static_cast<Value>(rng.index(3));

    awc::AwcSolver solver(dp, learning::ResolventLearning{});
    sim::AsyncConfig config;
    config.faults.drop_rate = 0.10;
    config.faults.duplicate_rate = 0.05;
    config.faults.corrupt_rate = 0.01;
    config.faults.partition_interval = 400;
    config.faults.partition_duration = 150;
    config.faults.refresh_interval = 50;
    config.faults.seed = seed * 17 + 1;
    config.retransmit.ack_timeout = 40;
    config.monitor.enabled = true;
    config.monitor.planted = instance.planted;

    Rng run_rng(seed);
    sim::AsyncEngine engine(dp.problem(),
                            solver.make_agents(initial, run_rng.derive(1)),
                            config, run_rng.derive(2));
    const sim::RunResult result = engine.run();
    EXPECT_FALSE(result.metrics.insoluble) << "trial " << t;
    corrupted += result.metrics.faults.corrupted;
    malformed += result.metrics.malformed_frames;
    violations += result.metrics.monitor.violations;
    if (result.metrics.solved) {
      ++solved;
      EXPECT_TRUE(validate_solution(instance.problem, result.assignment).ok)
          << "trial " << t;
    }
  }
  EXPECT_GE(solved, (kTrials * 95 + 99) / 100)
      << "solve rate under corruption + partitions fell below 95%";
  EXPECT_GT(corrupted, 0u) << "corruption never fired";
  EXPECT_GT(malformed, 0u) << "no corrupted frame was ever rejected";
  // Delivered corruptions are all rejected; frames still in flight at run end
  // or on corrupted-and-dropped acks account for the remainder.
  EXPECT_LE(malformed, corrupted);
  EXPECT_EQ(violations, 0u)
      << "corruption slipped past validation into protocol state";
}

TEST(CorruptionChaos, QuarantineEngagesUnderHeavyCorruption) {
  // With a tiny budget and heavy corruption some channel must trip the
  // guard; the protocol still must not report false insolubility.
  Rng rng(888);
  const auto instance = gen::generate_coloring3(12, rng);
  const auto dp = gen::distribute(instance);
  FullAssignment initial(12);
  for (auto& v : initial) v = static_cast<Value>(rng.index(3));

  awc::AwcSolver solver(dp, learning::ResolventLearning{});
  sim::AsyncConfig config;
  config.faults.corrupt_rate = 0.30;
  config.faults.quarantine_budget = 1;
  config.faults.quarantine_duration = 100;
  config.faults.refresh_interval = 30;
  config.faults.seed = 1212;
  config.retransmit.ack_timeout = 40;
  config.max_activations = 300'000;

  sim::AsyncEngine engine(dp.problem(), solver.make_agents(initial, rng.derive(1)),
                          config, rng.derive(2));
  const sim::RunResult result = engine.run();
  EXPECT_FALSE(result.metrics.insoluble);
  EXPECT_GT(result.metrics.malformed_frames, 0u);
  EXPECT_GT(result.metrics.quarantines, 0u) << "guard never tripped";
  // Every readmission ends a quarantine, and the guard's readmissions must
  // reach the run's metrics.
  EXPECT_GT(result.metrics.quarantine_readmissions, 0u);
  EXPECT_LE(result.metrics.quarantine_readmissions, result.metrics.quarantines);
  if (result.metrics.solved) {
    EXPECT_TRUE(validate_solution(instance.problem, result.assignment).ok);
  }
}

TEST(CorruptionChaos, ZeroCorruptRateKeepsHistoricalStreams) {
  // The conditional-draw guarantee: corrupt_rate == 0 must not consume any
  // channel stream state, so a lossy config behaves exactly as it did before
  // the corruption model existed.
  Rng rng(246);
  const auto instance = gen::generate_coloring3(14, rng);
  const auto dp = gen::distribute(instance);
  awc::AwcSolver solver(dp, learning::ResolventLearning{});
  const FullAssignment initial = solver.random_initial(rng);

  sim::AsyncConfig lossy;
  lossy.faults.drop_rate = 0.1;
  lossy.faults.duplicate_rate = 0.05;
  lossy.faults.refresh_interval = 40;
  lossy.faults.seed = 5050;

  sim::AsyncConfig lossy_with_zero_corrupt = lossy;
  lossy_with_zero_corrupt.faults.corrupt_rate = 0.0;  // explicit but inert

  const auto run = [&](const sim::AsyncConfig& config) {
    awc::AwcSolver s(dp, learning::ResolventLearning{});
    Rng r(1357);
    sim::AsyncEngine engine(dp.problem(), s.make_agents(initial, r.derive(1)),
                            config, r.derive(2));
    return engine.run();
  };
  const sim::RunResult a = run(lossy);
  const sim::RunResult b = run(lossy_with_zero_corrupt);
  EXPECT_EQ(a.metrics.cycles, b.metrics.cycles);
  EXPECT_EQ(a.metrics.messages, b.metrics.messages);
  EXPECT_EQ(a.metrics.faults.dropped, b.metrics.faults.dropped);
  EXPECT_EQ(a.metrics.faults.duplicated, b.metrics.faults.duplicated);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(b.metrics.faults.corrupted, 0u);
  EXPECT_EQ(b.metrics.malformed_frames, 0u);
}

}  // namespace
}  // namespace discsp
