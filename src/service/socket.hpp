#pragma once

#include <cstdint>
#include <iostream>
#include <memory>
#include <streambuf>
#include <string>

namespace ao::service {

/// Buffered std::streambuf over a connected socket — what lets the campaign
/// service speak its line protocol identically over a unix socket and over
/// the stringstreams the tests drive it with.
class FdStreamBuf : public std::streambuf {
 public:
  explicit FdStreamBuf(int fd);
  ~FdStreamBuf() override;
  FdStreamBuf(const FdStreamBuf&) = delete;
  FdStreamBuf& operator=(const FdStreamBuf&) = delete;

 protected:
  int_type underflow() override;
  int_type overflow(int_type ch) override;
  int sync() override;

 private:
  bool flush_out();

  static constexpr std::size_t kBufferSize = 4096;
  int fd_;
  char in_buf_[kBufferSize];
  char out_buf_[kBufferSize];
};

/// iostream over a connected socket fd; closes the fd on destruction.
class SocketStream : public std::iostream {
 public:
  explicit SocketStream(int fd);
  ~SocketStream() override = default;

 private:
  FdStreamBuf buf_;
};

/// Listening unix-domain socket. The constructor unlinks any stale socket
/// file at `path`, binds and listens; the destructor closes and unlinks.
class UnixServerSocket {
 public:
  explicit UnixServerSocket(const std::string& path);
  ~UnixServerSocket();
  UnixServerSocket(const UnixServerSocket&) = delete;
  UnixServerSocket& operator=(const UnixServerSocket&) = delete;

  /// Blocks for the next client; returns a connected fd, or -1 when the
  /// socket was shut down or accept failed.
  int accept_fd();

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  int fd_;
};

/// Connects to a unix-domain socket; returns the fd or -1 on failure.
int connect_unix(const std::string& path);

/// Listening TCP socket on 0.0.0.0:<port> (SO_REUSEADDR) — what lets
/// `ao_worker --connect host:port` processes on *other machines* join a
/// campaign daemon. Accepted connections get TCP_NODELAY: the protocol is
/// small request/reply lines and frames, so latency beats batching.
class TcpServerSocket {
 public:
  explicit TcpServerSocket(std::uint16_t port);
  ~TcpServerSocket();
  TcpServerSocket(const TcpServerSocket&) = delete;
  TcpServerSocket& operator=(const TcpServerSocket&) = delete;

  /// Blocks for the next client; returns a connected fd, or -1 when the
  /// socket was shut down or accept failed.
  int accept_fd();

  std::uint16_t port() const { return port_; }

 private:
  std::uint16_t port_;
  int fd_;
};

/// Connects to host:port (name resolution via getaddrinfo, TCP_NODELAY
/// set); returns the fd or -1 on failure.
int connect_tcp(const std::string& host, std::uint16_t port);

/// Splits "host:port" at the LAST colon (IPv6 literals aside, a unix path
/// containing a colon is addressed by prefixing "./"). Returns false when
/// the tail is not a valid port number or the host is empty.
bool parse_host_port(const std::string& spec, std::string* host,
                     std::uint16_t* port);

/// Connects to an endpoint spec: "host:port" → TCP, anything else → unix
/// socket path. Returns the fd or -1 on failure.
int connect_endpoint(const std::string& spec);

}  // namespace ao::service
