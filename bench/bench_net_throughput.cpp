// Carrier throughput probe: how fast can sealed NetRoute frames move
// between two threads over the in-proc ring pipe, and over loopback TCP
// batched (net/transport.h BatchConfig) vs the seed-equivalent unbatched
// carrier?
//
// Each scenario runs one sender and one receiver over a single connection
// pair. The frame mix is shaped like an n=64-agent chaos run: mostly routed
// payload frames of 10..40 words plus a slice of 4-entry ack batches — the
// same shape the coordinator star moves at steady state. Results go to stdout
// and, with --json FILE (default BENCH_net.json), to a JSON blob gated by
// tools/bench_check.py against tools/bench_net_baseline.json.
//
//   --frames N       frames per in-proc scenario (default 400000)
//   --tcp-frames N   frames per TCP scenario (default 120000)
//   --json FILE      output path ("" = skip)
//
// The interesting numbers are ns/frame per carrier and the TCP
// batched-over-unbatched speedup; frames/sec is the same datum in marketing
// units. In-proc has a single carrier, so it has no speedup to report.
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/options.h"
#include "common/rng.h"
#include "net/netframe.h"
#include "net/tcp_transport.h"
#include "net/transport.h"

namespace discsp {
namespace {

using net::BatchConfig;
using sim::WireFrame;

std::int64_t mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Pre-encoded frame templates shaped like n=64-agent steady-state traffic.
std::vector<WireFrame> make_templates() {
  Rng rng(0xbe7a);
  std::vector<WireFrame> templates;
  templates.reserve(64);
  for (int i = 0; i < 64; ++i) {
    if (i % 8 == 0) {
      // One drain's batch of acks, several entries per frame.
      net::NetAck ack;
      for (int e = 0; e < 4; ++e) {
        ack.entries.push_back({static_cast<AgentId>(rng.index(64)),
                               static_cast<AgentId>(rng.index(64)), rng.next()});
      }
      templates.push_back(net::encode_net_frame(net::NetFrame{std::move(ack)}));
      continue;
    }
    net::NetRoute route;
    route.from = static_cast<AgentId>(rng.index(64));
    route.to = static_cast<AgentId>(rng.index(64));
    route.track_seq = rng.next();
    route.frame.resize(10 + rng.index(31));
    for (auto& word : route.frame) word = rng.next();
    templates.push_back(net::encode_net_frame(net::NetFrame{std::move(route)}));
  }
  return templates;
}

struct ScenarioResult {
  double ns_per_frame = 0.0;
  double frames_per_sec = 0.0;
};

/// Move `total` frames from tx to rx in bursts, single-threaded: send a
/// burst, drain it, repeat. This measures the per-frame CPU cost of the
/// full carrier round (encode + carry + decode) directly; a two-thread
/// pair on a small CI container measures scheduler quanta instead of the
/// transport. The burst is a multiple of every batch budget so the batched
/// path flushes on budget, never on the latency deadline.
ScenarioResult drive(net::Connection& tx, net::Connection& rx,
                     const std::vector<WireFrame>& templates,
                     std::size_t total) {
  constexpr std::size_t kBurst = 256;
  WireFrame frame;
  std::size_t sent = 0;
  std::size_t received = 0;
  const std::int64_t t0 = mono_ns();
  while (received < total) {
    const std::size_t target = std::min(total, sent + kBurst);
    for (; sent < target; ++sent) {
      while (!tx.send(templates[sent % templates.size()])) tx.pump(0);
    }
    while (received < sent) {
      rx.pump(0);
      bool any = false;
      while (rx.recv(frame)) {
        ++received;
        any = true;
      }
      // Nothing arrived: drive the sender (kernel backpressure, deferred
      // flushes) until the burst lands.
      if (!any) tx.pump(0);
    }
  }
  const double ns = static_cast<double>(mono_ns() - t0);
  ScenarioResult result;
  result.ns_per_frame = ns / static_cast<double>(total);
  result.frames_per_sec = 1e9 * static_cast<double>(total) / ns;
  return result;
}

ScenarioResult run_inproc(const std::vector<WireFrame>& templates,
                          std::size_t total) {
  net::InProcTransport transport;
  auto listener = transport.listen("bench");
  auto client = transport.connect("bench", 1000);
  auto server = listener->accept();
  if (client == nullptr || server == nullptr) {
    std::cerr << "in-proc rendezvous failed\n";
    std::exit(1);
  }
  return drive(*client, *server, templates, total);
}

ScenarioResult run_tcp(const BatchConfig& batch,
                       const std::vector<WireFrame>& templates,
                       std::size_t total) {
  net::TcpTransport transport(batch);
  auto listener = transport.listen("127.0.0.1:0");
  const std::string endpoint = "127.0.0.1:" + std::to_string(listener->port());
  auto client = transport.connect(endpoint, 5000);
  std::unique_ptr<net::Connection> server;
  for (int i = 0; i < 5000 && server == nullptr; ++i) {
    server = listener->accept();
    if (server == nullptr) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  if (client == nullptr || server == nullptr) {
    std::cerr << "tcp loopback rendezvous failed\n";
    std::exit(1);
  }
  const ScenarioResult result = drive(*client, *server, templates, total);
  client->close();
  return result;
}

void report(const char* name, const ScenarioResult& r) {
  std::cout << name << ": " << static_cast<std::int64_t>(r.frames_per_sec)
            << " frames/s (" << r.ns_per_frame << " ns/frame)\n";
}

}  // namespace
}  // namespace discsp

int main(int argc, char** argv) {
  using namespace discsp;
  const Options opts(argc, argv);
  const auto frames =
      static_cast<std::size_t>(opts.get_int("frames", 400000));
  const auto tcp_frames =
      static_cast<std::size_t>(opts.get_int("tcp-frames", 120000));
  const std::string json = opts.get_string("json", "BENCH_net.json");

  const auto templates = make_templates();
  const BatchConfig unbatched = BatchConfig::unbatched();
  const BatchConfig batched;  // TCP defaults: 64 frames / 64 KiB / 200 us

  // Warm-up pass absorbs first-touch costs (pool population, socket setup)
  // so the measured runs compare carriers, not allocators.
  run_inproc(templates, frames / 10 + 1);
  run_tcp(batched, templates, tcp_frames / 10 + 1);

  const ScenarioResult inproc = run_inproc(templates, frames);
  const ScenarioResult tcp_un = run_tcp(unbatched, templates, tcp_frames);
  const ScenarioResult tcp_ba = run_tcp(batched, templates, tcp_frames);

  report("inproc ring     ", inproc);
  report("tcp    unbatched", tcp_un);
  report("tcp    batched  ", tcp_ba);
  const double tcp_speedup = tcp_un.ns_per_frame / tcp_ba.ns_per_frame;
  std::cout << "tcp speedup: " << tcp_speedup << "x\n";

  if (!json.empty()) {
    std::ofstream out(json);
    if (!out) {
      std::cerr << "cannot write " << json << '\n';
      return 1;
    }
    out << "{\n"
        << "  \"probe\": \"net_carrier_throughput\",\n"
        << "  \"frames\": " << frames << ",\n"
        << "  \"tcp_frames\": " << tcp_frames << ",\n"
        << "  \"inproc_batched_ns_per_frame\": " << inproc.ns_per_frame
        << ",\n"
        << "  \"inproc_batched_frames_per_sec\": " << inproc.frames_per_sec
        << ",\n"
        << "  \"tcp_unbatched_ns_per_frame\": " << tcp_un.ns_per_frame << ",\n"
        << "  \"tcp_batched_ns_per_frame\": " << tcp_ba.ns_per_frame << ",\n"
        << "  \"tcp_batched_frames_per_sec\": " << tcp_ba.frames_per_sec
        << ",\n"
        << "  \"tcp_speedup\": " << tcp_speedup << "\n"
        << "}\n";
    std::cout << "wrote " << json << '\n';
  }
  return 0;
}
