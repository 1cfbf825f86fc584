// Line transports for the dbred protocol: stdio streams (tests, inetd-
// style deployment) and TCP sockets (the daemon proper).
//
// A `LineChannel` frames the protocol: blocking one-line reads and writes.
// `ServeChannel` pumps one client connection against a Server until EOF or
// server shutdown. The TCP listener is the epoll event loop
// (cluster/service_transport.h); this file holds its clients' side.
#ifndef DBRE_SERVICE_TRANSPORT_H_
#define DBRE_SERVICE_TRANSPORT_H_

#include <cstdint>
#include <istream>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>

#include "common/status.h"
#include "service/server.h"

namespace dbre::service {

class LineChannel {
 public:
  virtual ~LineChannel() = default;

  // Blocks for the next newline-terminated line (returned without the
  // newline). kNotFound signals clean EOF; kIoError a broken transport.
  virtual Result<std::string> ReadLine() = 0;

  // Writes `line` plus a newline, atomically with respect to other
  // WriteLine calls on this channel.
  virtual Status WriteLine(const std::string& line) = 0;
};

// Wraps caller-owned streams; the stdio transport is
// StreamChannel(&std::cin, &std::cout).
class StreamChannel : public LineChannel {
 public:
  StreamChannel(std::istream* in, std::ostream* out) : in_(in), out_(out) {}

  Result<std::string> ReadLine() override;
  Status WriteLine(const std::string& line) override;

 private:
  std::istream* in_;
  std::ostream* out_;
  std::mutex write_mutex_;
};

// A connected socket. Takes ownership of the descriptor.
class SocketChannel : public LineChannel {
 public:
  explicit SocketChannel(int fd) : fd_(fd) {}
  ~SocketChannel() override;

  Result<std::string> ReadLine() override;
  Status WriteLine(const std::string& line) override;

  int fd() const { return fd_; }

 private:
  int fd_;
  std::string buffer_;  // bytes read past the last newline
  std::mutex write_mutex_;
};

// Connects to host:port (numeric IPv4 or a name resolvable to one).
Result<std::unique_ptr<SocketChannel>> TcpConnect(const std::string& host,
                                                  uint16_t port);

// TcpConnect with capped-backoff retries (10→250 ms) until `deadline_ms`
// elapses: a refused or unreachable port usually means the server is still
// starting (or restarting), so callers that race a daemon's bind — CLI
// clients, the router reconnecting to a respawned worker — wait it out
// instead of dying on the first ECONNREFUSED. Unresolvable hostnames fail
// immediately. `recv_timeout_ms` > 0 arms SO_RCVTIMEO on the socket so a
// hung peer surfaces as a read error instead of a forever-blocked caller.
Result<std::unique_ptr<SocketChannel>> TcpConnectWithRetry(
    const std::string& host, uint16_t port, int64_t deadline_ms,
    int64_t recv_timeout_ms = 0);

// Pumps `channel` against `server`: one response line per request line,
// until EOF, a write failure, or server shutdown. Returns the number of
// requests handled.
size_t ServeChannel(Server* server, LineChannel* channel);

}  // namespace dbre::service

#endif  // DBRE_SERVICE_TRANSPORT_H_
