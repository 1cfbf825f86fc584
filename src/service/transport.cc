#include "service/transport.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <thread>
#include <utility>

#include "common/failpoint.h"

namespace dbre::service {
namespace {

Status ErrnoStatus(const char* what) {
  return IoError(std::string(what) + ": " + std::strerror(errno));
}

// A write to a closed socket must surface as an error status, not SIGPIPE.
void IgnoreSigpipeOnce() {
  static std::once_flag once;
  std::call_once(once, [] { std::signal(SIGPIPE, SIG_IGN); });
}

}  // namespace

Result<std::string> StreamChannel::ReadLine() {
  std::string line;
  if (!std::getline(*in_, line)) return NotFoundError("eof");
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return line;
}

Status StreamChannel::WriteLine(const std::string& line) {
  std::lock_guard<std::mutex> lock(write_mutex_);
  (*out_) << line << '\n';
  out_->flush();
  if (!out_->good()) return IoError("output stream failed");
  return Status::Ok();
}

SocketChannel::~SocketChannel() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::string> SocketChannel::ReadLine() {
  while (true) {
    size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      std::string line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    DBRE_RETURN_IF_ERROR(FailpointError("socket.recv"));
    char chunk[4096];
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0) {
      if (!buffer_.empty()) {
        // Final unterminated line.
        std::string line = std::move(buffer_);
        buffer_.clear();
        return line;
      }
      return NotFoundError("eof");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("recv");
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

Status SocketChannel::WriteLine(const std::string& line) {
  IgnoreSigpipeOnce();
  std::lock_guard<std::mutex> lock(write_mutex_);
  std::string framed = line;
  framed.push_back('\n');
  size_t limit = framed.size();
  bool injected = false;
  FailpointHit hit = Failpoints::Check("socket.send");
  if (hit.action == FailpointHit::Action::kError) {
    limit = 0;
    injected = true;
  } else if (hit.action == FailpointHit::Action::kTorn) {
    // Simulate the peer vanishing mid-frame: part of the line reaches the
    // wire, then the send fails.
    limit = std::min(limit, hit.torn_bytes);
    injected = true;
  }
  size_t sent = 0;
  while (sent < limit) {
    ssize_t n = ::send(fd_, framed.data() + sent, limit - sent,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("send");
    }
    sent += static_cast<size_t>(n);
  }
  if (injected) {
    return IoError("send: injected failure (failpoint socket.send)");
  }
  return Status::Ok();
}

Result<std::unique_ptr<SocketChannel>> TcpConnect(const std::string& host,
                                                  uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    hostent* resolved = ::gethostbyname(host.c_str());
    if (resolved == nullptr || resolved->h_addrtype != AF_INET) {
      ::close(fd);
      return NotFoundError("cannot resolve host " + host);
    }
    std::memcpy(&addr.sin_addr, resolved->h_addr_list[0],
                sizeof(addr.sin_addr));
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status status = ErrnoStatus("connect");
    ::close(fd);
    return status;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::make_unique<SocketChannel>(fd);
}

Result<std::unique_ptr<SocketChannel>> TcpConnectWithRetry(
    const std::string& host, uint16_t port, int64_t deadline_ms,
    int64_t recv_timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_ms);
  int64_t backoff_ms = 10;
  while (true) {
    Result<std::unique_ptr<SocketChannel>> channel = TcpConnect(host, port);
    if (channel.ok()) {
      if (recv_timeout_ms > 0) {
        timeval tv{};
        tv.tv_sec = recv_timeout_ms / 1000;
        tv.tv_usec = (recv_timeout_ms % 1000) * 1000;
        ::setsockopt((*channel)->fd(), SOL_SOCKET, SO_RCVTIMEO, &tv,
                     sizeof(tv));
      }
      return channel;
    }
    // Resolution failures are permanent; refused/unreachable means the
    // server is (re)starting — those are worth waiting out.
    if (channel.status().code() == StatusCode::kNotFound) return channel;
    if (std::chrono::steady_clock::now() >= deadline) {
      return Status(channel.status().code(),
                    channel.status().message() + " (gave up after " +
                        std::to_string(deadline_ms) + " ms of retries)");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    backoff_ms = std::min<int64_t>(backoff_ms * 2, 250);
  }
}

size_t ServeChannel(Server* server, LineChannel* channel) {
  size_t handled = 0;
  while (!server->shutdown_requested()) {
    auto line = channel->ReadLine();
    if (!line.ok()) break;  // EOF or broken transport
    if (line->empty()) continue;
    std::string response = server->HandleLine(*line);
    ++handled;
    if (!channel->WriteLine(response).ok()) break;
  }
  return handled;
}

}  // namespace dbre::service
