// Net control-frame codec tests (net/netframe.h):
//  - every frame kind round-trips through encode_net_frame/decode_net_frame;
//  - hostile input never decodes: truncation, checksum damage, unknown
//    kinds, out-of-bounds fields and ACK batches whose count overflows or
//    disagrees with the length are rejected with the right error;
//  - the RunMetrics counter table (sim::for_each_counter): every counter
//    round-trips through encode_metrics_words/decode_metrics_words, word i
//    is still the i-th counter of the first 32-word format (stats frames
//    and coordinator journals depend on it), short (older-worker) lists
//    leave trailing counters untouched, long (newer-worker) lists are cut,
//    and sim::merge_metrics sums every counter but the peak gauge.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "net/netframe.h"
#include "sim/message.h"

namespace discsp {
namespace {

using net::decode_net_frame;
using net::encode_net_frame;
using net::NetAck;
using net::NetDecodeError;
using net::NetError;
using net::NetErrorCode;
using net::NetFrame;
using net::NetHello;
using net::NetJob;
using net::NetPing;
using net::NetPong;
using net::NetRoute;
using net::NetStats;
using net::NetStop;
using net::NetWelcome;
using net::StopReason;
using sim::WireFrame;

WireFrame sealed_payload() {
  // A plausible payload frame; the route codec treats it as an opaque blob.
  sim::OkMessage ok;
  ok.sender = 2;
  ok.var = 2;
  ok.value = 1;
  ok.priority = 3;
  ok.seq = 7;
  return sim::encode_frame(ok);
}

TEST(NetFrame, HelloRoundTrip) {
  NetHello hello;
  hello.shard = 2;
  hello.digest = 0xfeedULL;
  hello.coord_incarnation = 3;
  auto decoded = decode_net_frame(encode_net_frame(hello));
  ASSERT_TRUE(decoded.ok());
  const auto& got = std::get<NetHello>(*decoded.frame);
  EXPECT_EQ(got.proto, net::kNetProtoVersion);
  EXPECT_EQ(got.shard, 2u);
  EXPECT_EQ(got.digest, 0xfeedULL);
  EXPECT_EQ(got.coord_incarnation, 3u);
}

TEST(NetFrame, WelcomeRoundTrip) {
  NetWelcome welcome;
  welcome.shard = 1;
  welcome.num_workers = 3;
  welcome.digest = 42;
  welcome.incarnation = 4;
  welcome.restart = true;
  welcome.coord_incarnation = 2;
  auto decoded = decode_net_frame(encode_net_frame(welcome));
  ASSERT_TRUE(decoded.ok());
  const auto& got = std::get<NetWelcome>(*decoded.frame);
  EXPECT_EQ(got.shard, 1u);
  EXPECT_EQ(got.num_workers, 3u);
  EXPECT_EQ(got.digest, 42u);
  EXPECT_EQ(got.incarnation, 4u);
  EXPECT_TRUE(got.restart);
  EXPECT_EQ(got.coord_incarnation, 2u);
}

TEST(NetFrame, JobRoundTripIncludingNulBytes) {
  NetJob job;
  job.text = std::string("job 1\nline\0with nul\n", 20);
  auto decoded = decode_net_frame(encode_net_frame(job));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(std::get<NetJob>(*decoded.frame).text, job.text);
}

TEST(NetFrame, RouteRoundTripPreservesEmbeddedFrameVerbatim) {
  NetRoute route;
  route.from = 2;
  route.to = 5;
  route.track_seq = 9;
  route.frame = sealed_payload();
  // Mangle the embedded frame: the route codec must carry it verbatim (the
  // receiving worker's decode_frame is the validator, not the router).
  route.frame[1] ^= 0xff;
  auto decoded = decode_net_frame(encode_net_frame(route));
  ASSERT_TRUE(decoded.ok());
  const auto& got = std::get<NetRoute>(*decoded.frame);
  EXPECT_EQ(got.from, 2);
  EXPECT_EQ(got.to, 5);
  EXPECT_EQ(got.track_seq, 9u);
  EXPECT_EQ(got.frame, route.frame);
}

TEST(NetFrame, AckRoundTrip) {
  NetAck ack;
  ack.entries.push_back({3, 1, 77});
  auto decoded = decode_net_frame(encode_net_frame(ack));
  ASSERT_TRUE(decoded.ok());
  const auto& got = std::get<NetAck>(*decoded.frame);
  ASSERT_EQ(got.entries.size(), 1u);
  EXPECT_EQ(got.entries[0].from, 3);
  EXPECT_EQ(got.entries[0].to, 1);
  EXPECT_EQ(got.entries[0].seq, 77u);
}

TEST(NetFrame, AckBatchRoundTrips) {
  // One entry and a full batch: [kind, n, (from, to, seq) x n, checksum].
  for (const std::size_t n : {std::size_t{1}, net::kAckBatchCap}) {
    NetAck ack;
    for (std::size_t i = 0; i < n; ++i) {
      ack.entries.push_back({static_cast<AgentId>(i % 5),
                             static_cast<AgentId>(40 + i),
                             (std::uint64_t{1} << 40) + i});
    }
    const WireFrame wire = encode_net_frame(ack);
    EXPECT_EQ(wire.size(), 3 + 3 * n);
    auto decoded = decode_net_frame(wire);
    ASSERT_TRUE(decoded.ok()) << "n=" << n;
    const auto& got = std::get<NetAck>(*decoded.frame);
    ASSERT_EQ(got.entries.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(got.entries[i].from, ack.entries[i].from);
      EXPECT_EQ(got.entries[i].to, ack.entries[i].to);
      EXPECT_EQ(got.entries[i].seq, ack.entries[i].seq);
    }
  }
}

/// An ACK frame whose words after the kind are `body`, sealed so only the
/// semantic checks can object.
WireFrame sealed_ack(std::vector<std::uint64_t> body) {
  WireFrame frame{104};
  frame.insert(frame.end(), body.begin(), body.end());
  sim::seal_frame(frame);
  return frame;
}

TEST(NetFrame, HostileAckFramesGetTypedErrors) {
  // A count whose 3n wraps to 3: a naive `count == 2 + 3n` check would
  // accept the one triple that follows.
  const std::uint64_t wraps = 0x5555555555555556ULL;  // 3 * wraps == 2 mod 2^64
  EXPECT_EQ(decode_net_frame(sealed_ack({wraps, 1, 2, 3})).error,
            NetDecodeError::kBadBounds);
  // The count disagrees with the frame length, both ways.
  EXPECT_EQ(decode_net_frame(sealed_ack({2, 1, 2, 3})).error,
            NetDecodeError::kTruncated);
  EXPECT_EQ(decode_net_frame(sealed_ack({1, 1, 2, 3, 4, 5, 6})).error,
            NetDecodeError::kTruncated);
  // An empty batch is never sent.
  EXPECT_EQ(decode_net_frame(sealed_ack({0})).error, NetDecodeError::kBadBounds);
  // One out-of-range agent inside the second triple poisons the frame.
  EXPECT_EQ(decode_net_frame(sealed_ack({2, 1, 2, 3, 1ULL << 31, 2, 4})).error,
            NetDecodeError::kBadBounds);
  EXPECT_EQ(decode_net_frame(sealed_ack({2, 1, 2, 3, 4, ~0ULL, 4})).error,
            NetDecodeError::kBadBounds);
}

TEST(NetFrame, StatsRoundTrip) {
  NetStats stats;
  stats.shard = 2;
  stats.incarnation = 3;
  stats.idle = true;
  stats.insoluble = true;
  stats.final_report = true;
  stats.insoluble_agent = 4;
  stats.sent = 100;
  stats.processed = 99;
  stats.metrics_words = {1, 2, 3, 4, 5};
  stats.values = {{0, -2}, {3, 1}, {6, 0}};
  auto decoded = decode_net_frame(encode_net_frame(stats));
  ASSERT_TRUE(decoded.ok());
  const auto& got = std::get<NetStats>(*decoded.frame);
  EXPECT_EQ(got.shard, 2u);
  EXPECT_EQ(got.incarnation, 3u);
  EXPECT_TRUE(got.idle);
  EXPECT_TRUE(got.insoluble);
  EXPECT_TRUE(got.final_report);
  EXPECT_EQ(got.insoluble_agent, 4);
  EXPECT_EQ(got.sent, 100u);
  EXPECT_EQ(got.processed, 99u);
  EXPECT_EQ(got.metrics_words, stats.metrics_words);
  EXPECT_EQ(got.values, stats.values);
}

TEST(NetFrame, StopPingPongErrorRoundTrip) {
  {
    auto decoded = decode_net_frame(
        encode_net_frame(NetStop{StopReason::kDeadline}));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(std::get<NetStop>(*decoded.frame).reason, StopReason::kDeadline);
  }
  {
    NetPing ping;
    ping.nonce = 11;
    ping.sent_ms = -5;
    auto decoded = decode_net_frame(encode_net_frame(ping));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(std::get<NetPing>(*decoded.frame).nonce, 11u);
    EXPECT_EQ(std::get<NetPing>(*decoded.frame).sent_ms, -5);
  }
  {
    NetPong pong;
    pong.nonce = 12;
    pong.sent_ms = 333;
    auto decoded = decode_net_frame(encode_net_frame(pong));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(std::get<NetPong>(*decoded.frame).nonce, 12u);
    EXPECT_EQ(std::get<NetPong>(*decoded.frame).sent_ms, 333);
  }
  {
    auto decoded = decode_net_frame(
        encode_net_frame(NetError{NetErrorCode::kDigestMismatch}));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(std::get<NetError>(*decoded.frame).code,
              NetErrorCode::kDigestMismatch);
  }
  {
    // The failover refusal code added with protocol v2.
    auto decoded = decode_net_frame(
        encode_net_frame(NetError{NetErrorCode::kStaleCoordinator}));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(std::get<NetError>(*decoded.frame).code,
              NetErrorCode::kStaleCoordinator);
  }
}

TEST(NetFrame, MigrationFramesRoundTrip) {
  // The protocol v3 shard-migration quartet: MIGRATE (capsule upload /
  // handback), ADOPT (takeover order), ADOPT_ACK, RELEASE.
  {
    net::NetMigrate migrate;
    migrate.agent = 5;
    migrate.seq = 77;
    migrate.release = true;
    migrate.capsule = {1, 2, 3, 4};
    auto decoded = decode_net_frame(encode_net_frame(migrate));
    ASSERT_TRUE(decoded.ok());
    const auto& got = std::get<net::NetMigrate>(*decoded.frame);
    EXPECT_EQ(got.agent, 5);
    EXPECT_EQ(got.seq, 77u);
    EXPECT_TRUE(got.release);
    EXPECT_EQ(got.capsule, (std::vector<std::uint64_t>{1, 2, 3, 4}));
  }
  {
    net::NetAdopt adopt;
    adopt.agent = 9;
    adopt.seq_floor = 1234;
    adopt.have_capsule = true;
    adopt.capsule = {42};
    auto decoded = decode_net_frame(encode_net_frame(adopt));
    ASSERT_TRUE(decoded.ok());
    const auto& got = std::get<net::NetAdopt>(*decoded.frame);
    EXPECT_EQ(got.agent, 9);
    EXPECT_EQ(got.seq_floor, 1234u);
    EXPECT_TRUE(got.have_capsule);
    EXPECT_EQ(got.capsule, (std::vector<std::uint64_t>{42}));
  }
  {
    // Capsule-less ADOPT: the adopter falls back to crash_restart.
    net::NetAdopt adopt;
    adopt.agent = 0;
    adopt.seq_floor = 1;
    auto decoded = decode_net_frame(encode_net_frame(adopt));
    ASSERT_TRUE(decoded.ok());
    EXPECT_FALSE(std::get<net::NetAdopt>(*decoded.frame).have_capsule);
    EXPECT_TRUE(std::get<net::NetAdopt>(*decoded.frame).capsule.empty());
  }
  {
    net::NetAdoptAck ack;
    ack.agent = 3;
    ack.learned = 17;
    ack.seq_floor = 1234;
    auto decoded = decode_net_frame(encode_net_frame(ack));
    ASSERT_TRUE(decoded.ok());
    const auto& got = std::get<net::NetAdoptAck>(*decoded.frame);
    EXPECT_EQ(got.agent, 3);
    EXPECT_EQ(got.learned, 17u);
    EXPECT_EQ(got.seq_floor, 1234u);
  }
  {
    auto decoded = decode_net_frame(encode_net_frame(net::NetRelease{21}));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(std::get<net::NetRelease>(*decoded.frame).agent, 21);
  }
}

TEST(NetFrame, MigrationFramesRejectBadBounds) {
  {
    net::NetMigrate migrate;
    migrate.agent = -1;
    EXPECT_EQ(decode_net_frame(encode_net_frame(migrate)).error,
              NetDecodeError::kBadBounds);
  }
  {
    // A capsule-less ADOPT must not smuggle capsule words.
    net::NetAdopt adopt;
    adopt.agent = 1;
    adopt.have_capsule = false;
    adopt.capsule = {1, 2};
    EXPECT_EQ(decode_net_frame(encode_net_frame(adopt)).error,
              NetDecodeError::kBadBounds);
  }
  {
    net::NetAdoptAck ack;
    ack.agent = -2;
    EXPECT_EQ(decode_net_frame(encode_net_frame(ack)).error,
              NetDecodeError::kBadBounds);
  }
  {
    net::NetRelease release;
    release.agent = -1;
    EXPECT_EQ(decode_net_frame(encode_net_frame(release)).error,
              NetDecodeError::kBadBounds);
  }
}

TEST(NetFrame, RejectsTruncation) {
  // Losing the trailing word breaks the seal (or the length, whichever the
  // decoder checks first) — either way the frame must not decode.
  auto frame = encode_net_frame(NetHello{});
  frame.pop_back();
  EXPECT_FALSE(decode_net_frame(frame).ok());
  EXPECT_EQ(decode_net_frame(WireFrame{}).error, NetDecodeError::kTruncated);
}

TEST(NetFrame, RejectsChecksumDamage) {
  auto frame = encode_net_frame(NetAck{{{1, 2, 3}}});
  frame[2] ^= 1;  // single bit flip, length preserved
  EXPECT_EQ(decode_net_frame(frame).error, NetDecodeError::kChecksum);
}

TEST(NetFrame, RejectsUnknownKind) {
  // Re-seal after the kind rewrite so only the kind check can object.
  auto frame = encode_net_frame(NetPing{});
  WireFrame words(frame.begin(), frame.end() - 1);
  words[0] = 999;
  WireFrame resealed = words;
  sim::seal_frame(resealed);
  EXPECT_EQ(decode_net_frame(resealed).error, NetDecodeError::kBadKind);
  // Payload kinds (< 100) must never decode as net frames.
  words[0] = 0;
  resealed = words;
  sim::seal_frame(resealed);
  EXPECT_EQ(decode_net_frame(resealed).error, NetDecodeError::kBadKind);
}

TEST(NetFrame, RejectsOutOfBoundsFields) {
  {
    NetHello hello;
    hello.shard = net::kMaxWorkers;  // valid shards are < kMaxWorkers
    EXPECT_EQ(decode_net_frame(encode_net_frame(hello)).error,
              NetDecodeError::kBadBounds);
  }
  {
    NetWelcome welcome;
    welcome.num_workers = net::kMaxWorkers + 1;
    EXPECT_EQ(decode_net_frame(encode_net_frame(welcome)).error,
              NetDecodeError::kBadBounds);
  }
  {
    // Coordinator incarnations count from 1; a zero on the wire is bogus.
    NetWelcome welcome;
    welcome.coord_incarnation = 0;
    EXPECT_EQ(decode_net_frame(encode_net_frame(welcome)).error,
              NetDecodeError::kBadBounds);
  }
  {
    NetStop stop;
    stop.reason = static_cast<StopReason>(99);
    EXPECT_EQ(decode_net_frame(encode_net_frame(stop)).error,
              NetDecodeError::kBadBounds);
  }
  {
    NetError error;
    error.code = static_cast<NetErrorCode>(99);
    EXPECT_EQ(decode_net_frame(encode_net_frame(error)).error,
              NetDecodeError::kBadBounds);
  }
  {
    // A route carries a sealed payload frame; the receiving worker admits
    // only a non-empty one, so an empty frame is refused here.
    NetRoute route;
    route.from = 0;
    route.to = 1;
    EXPECT_EQ(decode_net_frame(encode_net_frame(route)).error,
              NetDecodeError::kBadBounds);
  }
}

TEST(NetFrame, FuzzTruncatedPrefixesNeverDecode) {
  // Every strict prefix of a valid frame must be rejected, never crash.
  NetStats stats;
  stats.metrics_words = {7, 8, 9};
  stats.values = {{1, 2}, {3, 4}};
  const auto frame = encode_net_frame(stats);
  for (std::size_t len = 0; len < frame.size(); ++len) {
    WireFrame prefix(frame.begin(), frame.begin() + len);
    EXPECT_FALSE(decode_net_frame(prefix).ok()) << "prefix length " << len;
  }
}

/// One encoding of every control frame, incarnation fields populated, plus
/// multi-entry and hostile ACK batches — the corpus the mutation fuzz below
/// walks.
std::vector<WireFrame> fuzz_corpus() {
  NetHello hello;
  hello.shard = 1;
  hello.digest = 0xabcULL;
  hello.coord_incarnation = 5;
  NetWelcome welcome;
  welcome.shard = 2;
  welcome.num_workers = 4;
  welcome.digest = 0xabcULL;
  welcome.incarnation = 3;
  welcome.restart = true;
  welcome.coord_incarnation = 2;
  NetRoute route;
  route.from = 1;
  route.to = 2;
  route.track_seq = 9;
  route.frame = sealed_payload();
  NetStats stats;
  stats.shard = 1;
  stats.incarnation = 2;
  stats.metrics_words = {1, 2, 3};
  stats.values = {{0, 1}, {2, -1}};
  net::NetMigrate migrate;
  migrate.agent = 4;
  migrate.seq = 11;
  migrate.capsule = {5, 6, 7};
  net::NetAdopt adopt;
  adopt.agent = 4;
  adopt.seq_floor = 12;
  adopt.have_capsule = true;
  adopt.capsule = {5, 6, 7};
  return {encode_net_frame(hello),
          encode_net_frame(welcome),
          encode_net_frame(NetJob{"job 1\n"}),
          encode_net_frame(route),
          encode_net_frame(NetAck{{{1, 2, 3}}}),
          encode_net_frame(NetAck{{{1, 2, 3}, {4, 5, 6}, {0, 7, 8}}}),
          sealed_ack({0x5555555555555556ULL, 1, 2, 3}),
          sealed_ack({2, 1, 2, 3}),
          sealed_ack({2, 1, 2, 3, 1ULL << 31, 2, 4}),
          encode_net_frame(stats),
          encode_net_frame(NetStop{StopReason::kSolved}),
          encode_net_frame(NetPing{7, 8}),
          encode_net_frame(NetPong{7, 8}),
          encode_net_frame(NetError{NetErrorCode::kStaleCoordinator}),
          encode_net_frame(migrate),
          encode_net_frame(adopt),
          encode_net_frame(net::NetAdoptAck{4, 2, 12}),
          encode_net_frame(net::NetRelease{4})};
}

TEST(NetFrame, FuzzTruncatedPrefixesOfEveryKindNeverDecode) {
  for (const WireFrame& frame : fuzz_corpus()) {
    for (std::size_t len = 0; len < frame.size(); ++len) {
      WireFrame prefix(frame.begin(), frame.begin() + len);
      EXPECT_FALSE(decode_net_frame(prefix).ok())
          << "kind " << frame[0] << " prefix length " << len;
    }
  }
}

TEST(NetFrame, FuzzBitFlipsNeverDecodeOrCrash) {
  // Single bit flips across every word of every control frame: the seal
  // catches them all (decode may also reject on length/bounds first, but a
  // flipped frame must never decode as valid).
  for (const WireFrame& frame : fuzz_corpus()) {
    for (std::size_t w = 0; w < frame.size(); ++w) {
      for (int bit = 0; bit < 64; bit += 7) {
        WireFrame mutated = frame;
        mutated[w] ^= 1ULL << bit;
        EXPECT_FALSE(decode_net_frame(mutated).ok())
            << "kind " << frame[0] << " word " << w << " bit " << bit;
      }
    }
  }
}

TEST(NetFrame, FuzzRandomWordsNeverCrash) {
  // Hostile streams: seeded random word salads, some resealed so they pass
  // the checksum and exercise the semantic validators. Nothing may throw.
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (int trial = 0; trial < 2000; ++trial) {
    WireFrame frame(static_cast<std::size_t>(next() % 24), 0);
    for (auto& word : frame) word = next();
    if (!frame.empty()) {
      // Half the trials target real control kinds with garbage fields.
      if (trial % 2 == 0) frame[0] = 100 + next() % 14;
      if (trial % 4 < 2 && frame.size() >= 2) sim::seal_frame(frame);
    }
    (void)decode_net_frame(frame);  // must not crash; result irrelevant
  }
}

/// The stats-word order as first shipped, 32 counters long. Workers and
/// coordinator journals written in it must keep decoding, so the counter
/// table may only grow at the end; so may this list.
std::vector<std::uint64_t*> pinned_wire_order(sim::RunMetrics& m) {
  return {
      &m.messages,
      &m.total_checks,
      &m.work_ops,
      &m.nogoods_generated,
      &m.redundant_generations,
      &m.refresh_messages,
      &m.heartbeats,
      &m.retransmissions,
      &m.detector_false_positives,
      &m.malformed_frames,
      &m.quarantines,
      &m.quarantine_drops,
      &m.store_evictions,
      &m.peak_learned_nogoods,
      &m.journal_appends,
      &m.journal_checkpoints,
      &m.journal_replays,
      &m.faults.dropped,
      &m.faults.duplicated,
      &m.faults.reordered,
      &m.faults.delay_spikes,
      &m.faults.crashes,
      &m.faults.amnesia,
      &m.faults.partition_drops,
      &m.faults.corrupted,
      &m.monitor.violations,
      &m.monitor.checks,
      &m.monitor.seq_regressions,
      &m.backpressure_drops,
      &m.agent_migrations,
      &m.migration_fenced,
      &m.quarantine_readmissions,
  };
}

/// Give every counter of the table a distinct nonzero value.
sim::RunMetrics distinct_counters() {
  sim::RunMetrics m;
  std::uint64_t next = 1;
  sim::for_each_counter(
      [&](sim::Fold, std::uint64_t& field) { field = 1000 * next++; }, m);
  return m;
}

TEST(NetFrame, MetricsWordsRoundTrip) {
  const sim::RunMetrics metrics = distinct_counters();
  sim::RunMetrics out;
  net::decode_metrics_words(net::encode_metrics_words(metrics), out);
  std::size_t index = 0;
  sim::for_each_counter(
      [&](sim::Fold, std::uint64_t sent, std::uint64_t got) {
        EXPECT_EQ(got, sent) << "counter " << index;
        ++index;
      },
      metrics, out);
  EXPECT_GE(index, pinned_wire_order(out).size());
}

TEST(NetFrame, MetricsWordsKeepTheirWireOrder) {
  sim::RunMetrics metrics;
  const std::vector<std::uint64_t*> fields = pinned_wire_order(metrics);
  for (std::size_t i = 0; i < fields.size(); ++i) *fields[i] = 7000 + i;
  const std::vector<std::uint64_t> words = net::encode_metrics_words(metrics);
  ASSERT_GE(words.size(), fields.size());
  for (std::size_t i = 0; i < fields.size(); ++i) {
    EXPECT_EQ(words[i], 7000 + i) << "word " << i;
  }
}

TEST(NetFrame, ShortMetricsWordsLeaveTrailingCountersUntouched) {
  // An older worker reporting fewer counters must not zero the rest.
  sim::RunMetrics out;
  out.monitor.violations = 5;
  net::decode_metrics_words({1, 2}, out);
  EXPECT_EQ(out.messages, 1u);
  EXPECT_EQ(out.total_checks, 2u);
  EXPECT_EQ(out.monitor.violations, 5u);

  // A newer worker's extra trailing words are ignored: every known counter
  // takes its word and nothing outside the table changes.
  std::vector<std::uint64_t> words =
      net::encode_metrics_words(distinct_counters());
  const std::size_t known = words.size();
  words.insert(words.end(), {11, 12, 13});
  sim::RunMetrics newer;
  newer.cycles = 3;
  newer.maxcck = 4;
  net::decode_metrics_words(words, newer);
  words.resize(known);
  EXPECT_EQ(net::encode_metrics_words(newer), words);
  EXPECT_EQ(newer.cycles, 3);
  EXPECT_EQ(newer.maxcck, 4u);
}

TEST(NetFrame, MergeSumsCountersAndKeepsThePeakMax) {
  sim::RunMetrics into;
  sim::RunMetrics add;
  const std::vector<std::uint64_t*> a = pinned_wire_order(into);
  const std::vector<std::uint64_t*> b = pinned_wire_order(add);
  for (std::size_t i = 0; i < a.size(); ++i) {
    *a[i] = i + 1;
    *b[i] = 100 * (i + 1);
  }
  into.peak_learned_nogoods = 500;
  add.peak_learned_nogoods = 7;
  into.cycles = 9;
  add.cycles = 90;

  sim::merge_metrics(into, add);
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] == &into.peak_learned_nogoods) continue;
    EXPECT_EQ(*a[i], 101 * (i + 1)) << "word " << i;
  }
  EXPECT_EQ(into.peak_learned_nogoods, 500u);  // max, not 507
  EXPECT_EQ(into.cycles, 9);  // outcome fields are not counters

  add.peak_learned_nogoods = 800;
  sim::merge_metrics(into, add);
  EXPECT_EQ(into.peak_learned_nogoods, 800u);
}

}  // namespace
}  // namespace discsp
