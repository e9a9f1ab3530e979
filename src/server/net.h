// POSIX TCP plumbing for the streaming query server: socket setup plus the
// length-prefixed frame transport of docs/PROTOCOL.md.
//
// Framing: every frame is a 4-byte big-endian unsigned payload length
// followed by exactly that many bytes of UTF-8 JSON. The length covers the
// payload only. Frames larger than kMaxFrameBytes are a protocol violation:
// readers reject them without consuming the payload, after which the stream
// is unsynchronized and the connection must be closed.
#ifndef BLINKDB_SERVER_NET_H_
#define BLINKDB_SERVER_NET_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "src/util/status.h"

namespace blink {

// Upper bound on one frame's payload (16 MiB) — generous next to the largest
// FINAL frame a grouped query produces, small enough to bound a malicious
// length word.
constexpr uint32_t kMaxFrameBytes = 16u * 1024 * 1024;

// An owned file descriptor (closes on destruction; movable, not copyable).
class OwnedFd {
 public:
  OwnedFd() = default;
  explicit OwnedFd(int fd) : fd_(fd) {}
  OwnedFd(OwnedFd&& other) noexcept : fd_(other.Release()) {}
  OwnedFd& operator=(OwnedFd&& other) noexcept;
  OwnedFd(const OwnedFd&) = delete;
  OwnedFd& operator=(const OwnedFd&) = delete;
  ~OwnedFd() { Close(); }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int Release();
  void Close();

 private:
  int fd_ = -1;
};

// Binds and listens on `host:port` (port 0 picks an ephemeral port). On
// success returns the listening fd; `*bound_port` receives the actual port.
Result<OwnedFd> ListenTcp(const std::string& host, uint16_t port,
                          uint16_t* bound_port);

// Send timeout (SO_SNDTIMEO) on every accepted session socket: a client that
// stops reading (its TCP window full) fails the blocked frame write after
// this long instead of pinning the writing thread, and whatever it holds,
// forever. The failed write cancels the session's query, which unwinds at its
// next round boundary.
constexpr int kSessionSendTimeoutSeconds = 30;

// The one accept path of every server: accepts the next connection on
// `listener` and gives it the options each session socket carries —
// TCP_NODELAY (frames are small and latency-bound; Nagle's algorithm would
// hold one back for the peer's delayed ACK) and the
// kSessionSendTimeoutSeconds send timeout. Transient accept errors retry at
// once; persistent ones (EMFILE/ENFILE under fd pressure) back off instead of
// spinning a core. Returns an error only once `running` reads false, i.e.
// when the server shut the listener down to stop.
Result<OwnedFd> AcceptTcp(int listener, const std::atomic<bool>& running);

// Connects to `host:port` (blocking) with TCP_NODELAY set.
Result<OwnedFd> ConnectTcp(const std::string& host, uint16_t port);

// Arms (or, with seconds <= 0, disarms) a receive timeout on `fd` via
// SO_RCVTIMEO. While armed, a blocked ReadFrame returns
// StatusCode::kDeadlineExceeded instead of waiting forever. Sub-second
// granularity is supported (the fraction maps to microseconds).
Status SetRecvTimeout(int fd, double seconds);

// Writes one length-prefixed frame. The header and the payload go to the
// kernel in one call, so a frame leaves as one segment whatever the socket's
// options; only a short write (a send timeout or signal partway through)
// loops. EPIPE and friends surface as a Status error, never a signal.
Status WriteFrame(int fd, std::string_view payload);

// Reads one length-prefixed frame. Returns nullopt on clean EOF at a frame
// boundary (the peer hung up); any other shortfall or a length above
// `max_bytes` is an error.
Result<std::optional<std::string>> ReadFrame(int fd, uint32_t max_bytes = kMaxFrameBytes);

}  // namespace blink

#endif  // BLINKDB_SERVER_NET_H_
