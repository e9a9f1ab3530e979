#include "src/server/net.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/types.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

namespace blink {
namespace {

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

// Full read with EINTR retry. Returns the byte count read, which is short
// only at EOF. A receive timeout armed via SetRecvTimeout surfaces as
// kDeadlineExceeded. A timeout while blocked on the FIRST byte of a frame
// leaves the stream synchronized (nothing was consumed) and reading may
// resume; one that fires mid-frame loses the consumed bytes, so callers that
// keep reading afterwards will see the remainder as garbage frames.
Result<size_t> ReadAll(int fd, char* data, size_t len) {
  size_t got = 0;
  while (got < len) {
    const ssize_t n = ::recv(fd, data + got, len - got, 0);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::DeadlineExceeded("recv timed out");
      }
      return Status::Internal(Errno("recv"));
    }
    if (n == 0) {
      break;  // EOF
    }
    got += static_cast<size_t>(n);
  }
  return got;
}

}  // namespace

OwnedFd& OwnedFd::operator=(OwnedFd&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.Release();
  }
  return *this;
}

int OwnedFd::Release() {
  const int fd = fd_;
  fd_ = -1;
  return fd;
}

void OwnedFd::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<OwnedFd> ListenTcp(const std::string& host, uint16_t port,
                          uint16_t* bound_port) {
  OwnedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) {
    return Status::Internal(Errno("socket"));
  }
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (host.empty() || host == "0.0.0.0") {
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
  } else if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad listen address '" + host + "'");
  }
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Status::Internal(Errno("bind " + host + ":" + std::to_string(port)));
  }
  if (::listen(fd.get(), 64) != 0) {
    return Status::Internal(Errno("listen"));
  }
  if (bound_port != nullptr) {
    sockaddr_in actual{};
    socklen_t len = sizeof(actual);
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&actual), &len) != 0) {
      return Status::Internal(Errno("getsockname"));
    }
    *bound_port = ntohs(actual.sin_port);
  }
  return fd;
}

Result<OwnedFd> AcceptTcp(int listener, const std::atomic<bool>& running) {
  for (;;) {
    OwnedFd fd(::accept(listener, nullptr, nullptr));
    if (fd.valid()) {
      const int one = 1;
      ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      timeval timeout{};
      timeout.tv_sec = kSessionSendTimeoutSeconds;
      ::setsockopt(fd.get(), SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
      return fd;
    }
    const int error = errno;
    if (!running.load()) {
      return Status::FailedPrecondition("listener shut down");
    }
    if (error != EINTR && error != ECONNABORTED) {
      // EMFILE/ENFILE and the like: wait for descriptors to free up.
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
}

Result<OwnedFd> ConnectTcp(const std::string& host, uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* found = nullptr;
  const int rc =
      ::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints, &found);
  if (rc != 0) {
    return Status::NotFound("resolve '" + host + "': " + gai_strerror(rc));
  }
  Status last = Status::Internal("no addresses for '" + host + "'");
  for (addrinfo* ai = found; ai != nullptr; ai = ai->ai_next) {
    OwnedFd fd(::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol));
    if (!fd.valid()) {
      last = Status::Internal(Errno("socket"));
      continue;
    }
    if (::connect(fd.get(), ai->ai_addr, ai->ai_addrlen) == 0) {
      const int one = 1;
      // PARTIAL frames are small and latency-sensitive; don't batch them.
      ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      ::freeaddrinfo(found);
      return fd;
    }
    last = Status::Internal(Errno("connect " + host + ":" + std::to_string(port)));
  }
  ::freeaddrinfo(found);
  return last;
}

Status SetRecvTimeout(int fd, double seconds) {
  timeval tv{};
  if (seconds > 0) {
    tv.tv_sec = static_cast<time_t>(seconds);
    tv.tv_usec = static_cast<suseconds_t>((seconds - static_cast<double>(tv.tv_sec)) * 1e6);
    if (tv.tv_sec == 0 && tv.tv_usec == 0) {
      tv.tv_usec = 1;  // "tiny but armed", not "disabled"
    }
  }
  if (::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
    return Status::Internal(Errno("setsockopt(SO_RCVTIMEO)"));
  }
  return Status::Ok();
}

Status WriteFrame(int fd, std::string_view payload) {
  if (payload.size() > kMaxFrameBytes) {
    return Status::InvalidArgument("frame payload exceeds kMaxFrameBytes");
  }
  const uint32_t n = static_cast<uint32_t>(payload.size());
  char header[4] = {static_cast<char>((n >> 24) & 0xFF),
                    static_cast<char>((n >> 16) & 0xFF),
                    static_cast<char>((n >> 8) & 0xFF), static_cast<char>(n & 0xFF)};
  iovec parts[2] = {{header, sizeof(header)},
                    {const_cast<char*>(payload.data()), payload.size()}};
  msghdr msg{};
  msg.msg_iov = parts;
  msg.msg_iovlen = 2;
  while (msg.msg_iovlen > 0) {
    // MSG_NOSIGNAL keeps a dead peer from raising SIGPIPE in a
    // multi-session server.
    const ssize_t sent = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Status::Internal(Errno("sendmsg"));
    }
    // Short write: skip the parts sent in full, then trim the one cut.
    size_t left = static_cast<size_t>(sent);
    while (msg.msg_iovlen > 0 && left >= msg.msg_iov->iov_len) {
      left -= msg.msg_iov->iov_len;
      ++msg.msg_iov;
      --msg.msg_iovlen;
    }
    if (left > 0) {
      msg.msg_iov->iov_base = static_cast<char*>(msg.msg_iov->iov_base) + left;
      msg.msg_iov->iov_len -= left;
    }
  }
  return Status::Ok();
}

Result<std::optional<std::string>> ReadFrame(int fd, uint32_t max_bytes) {
  char header[4];
  auto got = ReadAll(fd, header, sizeof(header));
  if (!got.ok()) {
    return got.status();
  }
  if (*got == 0) {
    return std::optional<std::string>{};  // clean EOF between frames
  }
  if (*got < sizeof(header)) {
    return Status::DataLoss("truncated frame: connection closed mid-frame header");
  }
  const uint32_t n = (static_cast<uint32_t>(static_cast<unsigned char>(header[0])) << 24) |
                     (static_cast<uint32_t>(static_cast<unsigned char>(header[1])) << 16) |
                     (static_cast<uint32_t>(static_cast<unsigned char>(header[2])) << 8) |
                     static_cast<uint32_t>(static_cast<unsigned char>(header[3]));
  if (n > max_bytes) {
    return Status::ResourceExhausted("frame of " + std::to_string(n) +
                                     " bytes exceeds the " +
                                     std::to_string(max_bytes) + "-byte limit");
  }
  std::string payload(n, '\0');
  got = ReadAll(fd, payload.data(), n);
  if (!got.ok()) {
    return got.status();
  }
  if (*got < n) {
    return Status::DataLoss("truncated frame: connection closed mid-frame payload");
  }
  return std::optional<std::string>(std::move(payload));
}

}  // namespace blink
