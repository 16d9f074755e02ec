// Thin POSIX TCP helpers shared by the server event loop and the blocking
// client: EINTR-looping send/recv, nonblocking mode, Nagle off (the
// protocol is request/response with small frames — coalescing is done
// above the socket, on purpose), and listener/connect construction with
// errno context on every failure. IPv4 only: the serving tier fronts the
// store on loopback or a private interface; anything fancier belongs in a
// real proxy.

#pragma once

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>

#include "common/assert.hpp"

namespace neats::net {

/// Throws a kIo neats::Error carrying `what` plus strerror(errno).
[[noreturn]] inline void ThrowErrno(const std::string& what) {
  throw Error(what + ": " + std::strerror(errno), StatusCode::kIo);
}

inline void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    ThrowErrno("fcntl(O_NONBLOCK)");
  }
}

inline void SetNoDelay(int fd) {
  const int one = 1;
  // Best-effort: a socketpair-backed test double may not speak TCP.
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Parses "a.b.c.d" into a sockaddr_in with the given port.
inline sockaddr_in MakeAddr(const std::string& host, uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  NEATS_REQUIRE(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1,
                "not an IPv4 address");
  return addr;
}

/// Creates, binds, and listens a TCP socket; returns the fd. With port 0
/// the kernel picks an ephemeral port — read it back with BoundPort().
inline int CreateListener(const std::string& host, uint16_t port,
                          int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) ThrowErrno("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = MakeAddr(host, port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int e = errno;
    ::close(fd);
    errno = e;
    ThrowErrno("bind " + host + ":" + std::to_string(port));
  }
  if (::listen(fd, backlog) < 0) {
    const int e = errno;
    ::close(fd);
    errno = e;
    ThrowErrno("listen");
  }
  return fd;
}

/// The port a bound socket actually listens on.
inline uint16_t BoundPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    ThrowErrno("getsockname");
  }
  return ntohs(addr.sin_port);
}

/// Blocking connect; returns the connected fd.
inline int ConnectTo(const std::string& host, uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) ThrowErrno("socket");
  sockaddr_in addr = MakeAddr(host, port);
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    const int e = errno;
    ::close(fd);
    errno = e;
    ThrowErrno("connect " + host + ":" + std::to_string(port));
  }
  SetNoDelay(fd);
  return fd;
}

/// Writes the whole span to a blocking socket (EINTR-looping).
inline void SendAll(int fd, std::span<const uint8_t> bytes) {
  size_t at = 0;
  while (at < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + at, bytes.size() - at, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      ThrowErrno("send");
    }
    at += static_cast<size_t>(n);
  }
}

/// Reads exactly bytes.size() bytes from a blocking socket. Returns false
/// on a clean EOF before the first byte; throws on errors and on EOF
/// mid-message (a torn response).
inline bool RecvAll(int fd, std::span<uint8_t> bytes) {
  size_t at = 0;
  while (at < bytes.size()) {
    const ssize_t n = ::recv(fd, bytes.data() + at, bytes.size() - at, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      ThrowErrno("recv");
    }
    if (n == 0) {
      if (at == 0) return false;
      throw Error("connection closed mid-message", StatusCode::kIo);
    }
    at += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace neats::net
