// TCP implementation of the frame transport (net/transport.h).
//
// Endpoints are "host:port" with IPv4 dotted-quad hosts ("localhost" maps
// to 127.0.0.1; port 0 binds an ephemeral port reported by
// Listener::port()). Sockets are nonblocking throughout; Connection::pump
// polls the descriptor, flushes buffered writes and drains reads.
//
// Stream framing: each WireFrame travels as a 4-byte little-endian word
// count followed by that many 8-byte little-endian words. The frame payload
// is still a sealed WireFrame, so the stream framing carries no checksum of
// its own — a mangled stream either desynchronizes (caught by the word-count
// sanity cap, which closes the connection) or delivers a frame that fails
// its seal. TCP_NODELAY is set: the protocol is request/response-heavy and
// latency-bound, not throughput-bound.
//
// Send path: each frame is encoded in place into a pooled buffer
// (net/frame_arena.h) and coalesced with its neighbours per BatchConfig —
// a flush is one scatter-gather sendmsg over every queued buffer. With
// max_frames == 1 every send flushes immediately (the seed behaviour).
// BatchConfig tunes this transport only: the in-proc carrier is always the
// ring pipe of net/transport.cpp.
#pragma once

#include "net/transport.h"

namespace discsp::net {

class TcpTransport final : public Transport {
 public:
  explicit TcpTransport(BatchConfig batch = {});

  std::unique_ptr<Listener> listen(const std::string& endpoint) override;
  std::unique_ptr<Connection> connect(const std::string& endpoint,
                                      int timeout_ms) override;

 private:
  BatchConfig batch_;
};

}  // namespace discsp::net
