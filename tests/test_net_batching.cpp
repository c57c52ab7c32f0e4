// Tests of the frame carriers: the in-proc ring pipe and TCP's coalescing
// (net/transport.h BatchConfig). Carriers must be invisible to the logical
// frame stream:
//  - bit-identity: a seeded stream of sealed net frames — including
//    deliberately corrupted ones, which the carrier must haul verbatim for
//    the receiver-side guard to judge — arrives with identical content and
//    order through the in-proc ring pipe, and over TCP loopback at batch 1
//    (the seed-equivalent path) and batch 64;
//  - a batched TCP close() still flushes deferred frames: terminal
//    ERROR/STOP delivery (coordinator refuse()/request_stop()) depends on
//    the bounded final drain;
//  - end-to-end: a fixed-seed chaos run (drop + duplication + corruption)
//    solves with a validated assignment and zero monitor violations in-proc
//    and over TCP at batch 1 and batch 64 — paper metrics cannot depend on
//    how frames are carried.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "gen/coloring_gen.h"
#include "net/coordinator.h"
#include "net/jobspec.h"
#include "net/netframe.h"
#include "net/tcp_transport.h"
#include "net/transport.h"
#include "net/worker.h"
#include "sim/message.h"

namespace discsp {
namespace {

using net::JobSpec;
using net::ServeConfig;
using net::ServeResult;
using net::StopReason;
using net::WorkerConfig;
using net::WorkerResult;
using sim::WireFrame;

net::BatchConfig batched64() {
  net::BatchConfig batch;
  batch.max_frames = 64;
  return batch;
}

/// A deterministic mix of control and routed frames shaped like real runs:
/// small acks/pings interleaved with variable-size route frames, a slice of
/// them corrupted in flight.
std::vector<WireFrame> make_stream(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<WireFrame> stream;
  stream.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    WireFrame frame;
    switch (rng.index(4)) {
      case 0: {
        net::NetAck ack;
        const std::size_t entries = 1 + rng.index(net::kAckBatchCap);
        for (std::size_t e = 0; e < entries; ++e) {
          ack.entries.push_back({static_cast<AgentId>(rng.index(64)),
                                 static_cast<AgentId>(rng.index(64)),
                                 rng.next()});
        }
        frame = net::encode_net_frame(net::NetFrame{std::move(ack)});
        break;
      }
      case 1: {
        net::NetPing ping;
        ping.nonce = rng.next();
        ping.sent_ms = static_cast<std::int64_t>(rng.index(1000000));
        frame = net::encode_net_frame(net::NetFrame{ping});
        break;
      }
      default: {
        net::NetRoute route;
        route.from = static_cast<AgentId>(rng.index(64));
        route.to = static_cast<AgentId>(rng.index(64));
        route.track_seq = rng.next();
        route.frame.resize(1 + rng.index(40));
        for (auto& word : route.frame) word = rng.next();
        frame = net::encode_net_frame(net::NetFrame{std::move(route)});
        break;
      }
    }
    if (rng.index(8) == 0) sim::corrupt_frame(frame, rng.next());
    stream.push_back(std::move(frame));
  }
  return stream;
}

/// Push `stream` through an in-proc connection pair and return what arrived.
/// Single-threaded on purpose: all frames are queued before any is popped,
/// so a stream longer than the SPSC ring exercises the overflow-spill FIFO
/// invariant.
std::vector<WireFrame> roundtrip_inproc(const std::vector<WireFrame>& stream) {
  net::InProcTransport transport;
  auto listener = transport.listen("carrier");
  auto client = transport.connect("carrier", 1000);
  auto server = listener->accept();
  EXPECT_NE(client, nullptr);
  EXPECT_NE(server, nullptr);
  if (client == nullptr || server == nullptr) return {};
  for (const auto& frame : stream) EXPECT_TRUE(client->send(frame));
  std::vector<WireFrame> got;
  got.reserve(stream.size());
  WireFrame frame;
  while (server->recv(frame)) got.push_back(frame);
  return got;
}

/// Push `stream` through a TCP loopback pair (ephemeral port) and return
/// what arrived, in order. The receiver runs on its own thread; the sender
/// keeps pumping until everything is acknowledged as received so flush
/// deadlines and POLLOUT backpressure both get exercised.
std::vector<WireFrame> roundtrip_tcp(const net::BatchConfig& batch,
                                     const std::vector<WireFrame>& stream) {
  net::TcpTransport transport(batch);
  auto listener = transport.listen("127.0.0.1:0");
  const std::string endpoint = "127.0.0.1:" + std::to_string(listener->port());

  std::vector<WireFrame> got;
  got.reserve(stream.size());
  std::atomic<std::size_t> received{0};
  std::atomic<bool> accept_failed{false};
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  std::thread server_thread([&] {
    std::unique_ptr<net::Connection> server;
    while (server == nullptr && std::chrono::steady_clock::now() < deadline) {
      server = listener->accept();
      if (server == nullptr) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    if (server == nullptr) {
      accept_failed.store(true);
      return;
    }
    WireFrame frame;
    while (received.load(std::memory_order_relaxed) < stream.size() &&
           server->open() && std::chrono::steady_clock::now() < deadline) {
      server->pump(5);
      while (server->recv(frame)) {
        got.push_back(frame);
        received.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  auto client = transport.connect(endpoint, 5000);
  EXPECT_NE(client, nullptr);
  if (client != nullptr) {
    for (const auto& frame : stream) {
      EXPECT_TRUE(client->send(frame));
      client->pump(0);
    }
    while (received.load() < stream.size() &&
           std::chrono::steady_clock::now() < deadline) {
      client->pump(1);
    }
    client->close();
  }
  server_thread.join();
  EXPECT_FALSE(accept_failed.load());
  return got;
}

TEST(NetBatching, InProcRingPipeIsBitIdentical) {
  // 6000 frames > the 4096-slot ring: the pipe must spill to the overflow
  // deque and drain back without reordering or loss.
  const auto stream = make_stream(6000, 0xba7c4);
  const auto got = roundtrip_inproc(stream);
  ASSERT_EQ(got.size(), stream.size());
  EXPECT_EQ(got, stream);
}

TEST(NetBatching, TcpCarrierIsBitIdenticalAcrossBatchSettings) {
  const auto stream = make_stream(2000, 0x7c9);
  const auto unbatched = roundtrip_tcp(net::BatchConfig::unbatched(), stream);
  const auto batched = roundtrip_tcp(batched64(), stream);
  ASSERT_EQ(unbatched.size(), stream.size());
  ASSERT_EQ(batched.size(), stream.size());
  EXPECT_EQ(unbatched, stream);
  EXPECT_EQ(batched, stream);
}

TEST(NetBatching, TcpCloseFlushesDeferredFrames) {
  // The coordinator's refuse()/request_stop() queue a terminal frame and
  // drop the connection right after. With coalescing the frame may still be
  // inside its batching window when close() runs; the bounded final drain
  // must deliver it. A far-away flush deadline guarantees only close() can
  // be the flusher here.
  net::BatchConfig batch = batched64();
  batch.flush_us = 1000000;
  const auto stream = make_stream(3, 0xc105e);

  net::TcpTransport transport(batch);
  auto listener = transport.listen("127.0.0.1:0");
  const std::string endpoint = "127.0.0.1:" + std::to_string(listener->port());

  std::vector<WireFrame> got;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  std::thread server_thread([&] {
    std::unique_ptr<net::Connection> server;
    while (server == nullptr && std::chrono::steady_clock::now() < deadline) {
      server = listener->accept();
      if (server == nullptr) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    ASSERT_NE(server, nullptr);
    WireFrame frame;
    while (server->open() && std::chrono::steady_clock::now() < deadline) {
      server->pump(5);
      while (server->recv(frame)) got.push_back(frame);
    }
    while (server->recv(frame)) got.push_back(frame);
  });

  auto client = transport.connect(endpoint, 5000);
  ASSERT_NE(client, nullptr);
  for (const auto& frame : stream) ASSERT_TRUE(client->send(frame));
  client->close();  // frames are still deferred: only the final drain sends
  server_thread.join();
  EXPECT_EQ(got, stream);
}

// --- End-to-end: the chaos acceptance run on every carrier ---------------

JobSpec make_job(int n, std::uint64_t seed, int num_workers) {
  Rng rng(seed);
  const auto instance = gen::generate_coloring3(n, rng);
  JobSpec spec;
  spec.bundle.algo = "awc";
  spec.bundle.strategy = "Rslv";
  spec.bundle.seed = seed;
  spec.bundle.instance = gen::distribute(instance);
  spec.bundle.planted = instance.planted;
  spec.bundle.initial.resize(static_cast<std::size_t>(n));
  for (auto& v : spec.bundle.initial) v = static_cast<Value>(rng.index(3));
  spec.bundle.monitor = true;
  spec.bundle.retransmit.ack_timeout = 25;
  spec.num_workers = num_workers;
  spec.report_interval_ms = 5;
  // The standard chaos mix of the acceptance bar: drops force repair
  // round-trips, duplicates hit the dedup window, corruption exercises the
  // checksum + retransmit path under whichever carrier batching is active.
  spec.bundle.faults.drop_rate = 0.10;
  spec.bundle.faults.duplicate_rate = 0.05;
  spec.bundle.faults.corrupt_rate = 0.05;
  spec.bundle.faults.refresh_interval = 25;
  return spec;
}

WorkerConfig worker_config(const std::string& endpoint, int index) {
  WorkerConfig config;
  config.endpoint = endpoint;
  config.reconnect_seed = 0x5eed + static_cast<std::uint64_t>(index);
  config.max_connect_attempts = 20;
  return config;
}

void expect_chaos_run_clean(const ServeConfig& config,
                            const ServeResult& result) {
  ASSERT_TRUE(result.error.empty()) << result.error;
  EXPECT_EQ(result.reason, StopReason::kSolved);
  EXPECT_TRUE(config.job.bundle.instance.problem().is_solution(
      result.run.assignment));
  EXPECT_EQ(result.run.metrics.monitor.violations, 0u);
  EXPECT_GT(result.run.metrics.faults.dropped, 0u);
  EXPECT_GT(result.run.metrics.faults.corrupted, 0u);
}

void run_tcp_chaos(const net::BatchConfig& batch) {
  net::TcpTransport transport(batch);
  auto listener = transport.listen("127.0.0.1:0");
  const std::string endpoint = "127.0.0.1:" + std::to_string(listener->port());

  ServeConfig config;
  config.job = make_job(12, 21, 2);
  config.deadline_ms = 60000;
  config.transport = "tcp";

  std::vector<WorkerResult> results(2);
  std::vector<std::thread> threads;
  for (int i = 0; i < 2; ++i) {
    threads.emplace_back([&transport, &results, endpoint, i] {
      results[static_cast<std::size_t>(i)] =
          net::run_worker(transport, worker_config(endpoint, i));
    });
  }
  const ServeResult result = net::serve(*listener, config);
  for (auto& t : threads) t.join();
  expect_chaos_run_clean(config, result);
}

TEST(NetBatchingChaos, InProcChaosSolvesBatched) {
  net::InProcTransport transport;
  ServeConfig config;
  config.job = make_job(24, 41, 3);
  config.deadline_ms = 60000;

  std::vector<WorkerConfig> workers;
  for (int i = 0; i < 3; ++i) workers.push_back(worker_config("chaos", i));

  auto listener = transport.listen("chaos");
  std::vector<std::thread> threads;
  threads.reserve(workers.size());
  std::vector<WorkerResult> results(workers.size());
  for (std::size_t i = 0; i < workers.size(); ++i) {
    threads.emplace_back([&transport, &workers, &results, i] {
      results[i] = net::run_worker(transport, workers[i]);
    });
  }
  const ServeResult result = net::serve(*listener, config);
  for (auto& t : threads) t.join();
  expect_chaos_run_clean(config, result);
}

TEST(NetBatchingChaos, TcpChaosSolvesUnbatched) {
  run_tcp_chaos(net::BatchConfig::unbatched());
}

TEST(NetBatchingChaos, TcpChaosSolvesBatched) {
  run_tcp_chaos(batched64());
}

}  // namespace
}  // namespace discsp
