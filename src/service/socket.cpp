#include "service/socket.hpp"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "service/protocol.hpp"
#include "util/error.hpp"

namespace ao::service {
namespace {

// Every socket the service opens is close-on-exec: a spawned shard worker
// must not inherit the daemon's listeners or client connections.
int make_unix_socket() {
  return ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
}

bool fill_address(const std::string& path, sockaddr_un& addr) {
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    return false;
  }
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return true;
}

}  // namespace

FdStreamBuf::FdStreamBuf(int fd) : fd_(fd) {
  setg(in_buf_, in_buf_, in_buf_);
  setp(out_buf_, out_buf_ + kBufferSize);
}

FdStreamBuf::~FdStreamBuf() {
  flush_out();
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

FdStreamBuf::int_type FdStreamBuf::underflow() {
  if (gptr() < egptr()) {
    return traits_type::to_int_type(*gptr());
  }
  // A request/reply protocol: everything written must be on the wire before
  // blocking for the peer's next line.
  flush_out();
  ssize_t got;
  do {
    got = ::read(fd_, in_buf_, kBufferSize);
  } while (got < 0 && errno == EINTR);
  if (got <= 0) {
    return traits_type::eof();
  }
  setg(in_buf_, in_buf_, in_buf_ + got);
  return traits_type::to_int_type(*gptr());
}

bool FdStreamBuf::flush_out() {
  const char* begin = pbase();
  const char* end = pptr();
  while (begin < end) {
    ssize_t wrote;
    do {
      // MSG_NOSIGNAL: a peer that shut the connection down is a failed
      // write (EPIPE), never a SIGPIPE that kills the whole process.
      wrote = ::send(fd_, begin, static_cast<std::size_t>(end - begin),
                     MSG_NOSIGNAL);
    } while (wrote < 0 && errno == EINTR);
    if (wrote <= 0) {
      setp(out_buf_, out_buf_ + kBufferSize);
      return false;  // peer gone; the stream goes bad on the next sync
    }
    begin += wrote;
  }
  setp(out_buf_, out_buf_ + kBufferSize);
  return true;
}

FdStreamBuf::int_type FdStreamBuf::overflow(int_type ch) {
  if (!flush_out()) {
    return traits_type::eof();
  }
  if (!traits_type::eq_int_type(ch, traits_type::eof())) {
    *pptr() = traits_type::to_char_type(ch);
    pbump(1);
  }
  return traits_type::not_eof(ch);
}

int FdStreamBuf::sync() { return flush_out() ? 0 : -1; }

SocketStream::SocketStream(int fd) : std::iostream(nullptr), buf_(fd) {
  rdbuf(&buf_);
}

UnixServerSocket::UnixServerSocket(const std::string& path)
    : path_(path), fd_(make_unix_socket()) {
  if (fd_ < 0) {
    throw util::Error("cannot create unix socket");
  }
  sockaddr_un addr{};
  if (!fill_address(path_, addr)) {
    ::close(fd_);
    throw util::InvalidArgument("bad unix socket path: " + path_);
  }
  ::unlink(path_.c_str());  // a stale socket file from a dead server
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd_, 8) != 0) {
    ::close(fd_);
    throw util::Error("cannot bind/listen on unix socket: " + path_);
  }
}

UnixServerSocket::~UnixServerSocket() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
  ::unlink(path_.c_str());
}

int UnixServerSocket::accept_fd() {
  ssize_t fd;
  do {
    fd = ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
  } while (fd < 0 && errno == EINTR);
  return static_cast<int>(fd);
}

namespace {

void set_nodelay(int fd) {
  // Request/reply lines and flushed frames: send immediately, don't Nagle.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

TcpServerSocket::TcpServerSocket(std::uint16_t port)
    : port_(port), fd_(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0)) {
  if (fd_ < 0) {
    throw util::Error("cannot create TCP socket");
  }
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd_, 8) != 0) {
    ::close(fd_);
    throw util::Error("cannot bind/listen on TCP port " +
                      std::to_string(port));
  }
}

TcpServerSocket::~TcpServerSocket() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

int TcpServerSocket::accept_fd() {
  ssize_t fd;
  do {
    fd = ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
  } while (fd < 0 && errno == EINTR);
  if (fd >= 0) {
    set_nodelay(static_cast<int>(fd));
  }
  return static_cast<int>(fd);
}

int connect_tcp(const std::string& host, std::uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* results = nullptr;
  if (::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                    &results) != 0) {
    return -1;
  }
  int fd = -1;
  for (const addrinfo* it = results; it != nullptr; it = it->ai_next) {
    fd = ::socket(it->ai_family, it->ai_socktype | SOCK_CLOEXEC,
                  it->ai_protocol);
    if (fd < 0) {
      continue;
    }
    if (::connect(fd, it->ai_addr, it->ai_addrlen) == 0) {
      set_nodelay(fd);
      break;
    }
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(results);
  return fd;
}

bool parse_host_port(const std::string& spec, std::string* host,
                     std::uint16_t* port) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == spec.size()) {
    return false;
  }
  std::uint64_t value = 0;
  if (!parse_u64_token(spec.substr(colon + 1), value) || value == 0 ||
      value > 65535) {
    return false;
  }
  if (host != nullptr) {
    *host = spec.substr(0, colon);
  }
  if (port != nullptr) {
    *port = static_cast<std::uint16_t>(value);
  }
  return true;
}

int connect_endpoint(const std::string& spec) {
  std::string host;
  std::uint16_t port = 0;
  // A unix path that happens to contain ":<digits>" can be disambiguated by
  // writing it as "./name:123".
  if (spec.find('/') == std::string::npos &&
      parse_host_port(spec, &host, &port)) {
    return connect_tcp(host, port);
  }
  return connect_unix(spec);
}

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  if (!fill_address(path, addr)) {
    return -1;
  }
  const int fd = make_unix_socket();
  if (fd < 0) {
    return -1;
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace ao::service
