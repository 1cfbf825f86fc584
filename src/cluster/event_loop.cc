#include "cluster/event_loop.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/failpoint.h"
#include "obs/metrics.h"

namespace dbre::cluster {
namespace {

// epoll user-data ids 0 and 1 are the wake eventfd and the listener;
// connections start at 2.
constexpr uint64_t kWakeId = 0;
constexpr uint64_t kListenId = 1;
constexpr uint64_t kFirstConnId = 2;

struct LoopMetrics {
  obs::Counter* accepted;
  obs::Counter* accept_errors;
  obs::Counter* requests;
  obs::Counter* pauses;
};

const LoopMetrics& Metrics() {
  static const LoopMetrics metrics = [] {
    obs::Registry& registry = obs::Registry::Default();
    return LoopMetrics{
        registry.GetCounter("dbre_eventloop_accepted_total", {},
                            "Connections accepted by the epoll transport"),
        registry.GetCounter("dbre_accept_errors_total", {},
                            "Transient accept() failures retried by the "
                            "listener"),
        registry.GetCounter("dbre_eventloop_requests_total", {},
                            "Request lines read by the epoll transport"),
        registry.GetCounter(
            "dbre_eventloop_backpressure_pauses_total", {},
            "Connection reads paused by pipelining/write-buffer bounds"),
    };
  }();
  return metrics;
}

Status ErrnoStatus(const char* what) {
  return IoError(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

// ---------------------------------------------------------------------------
// Connection state. The loop thread owns everything except `queue`/
// `running` (shared with the handler pool under `mutex`) and the sticky
// `closed` flag handler threads read to stop draining a dead connection.
struct EventLoopServer::Conn {
  int fd = -1;
  uint64_t id = 0;

  std::string in;        // bytes read past the last complete line
  std::string out;       // response bytes not yet accepted by the kernel
  size_t out_off = 0;    // consumed prefix of `out`
  uint32_t interest = 0; // epoll mask currently registered
  bool paused = false;   // reads suspended by backpressure
  bool read_closed = false;  // peer sent EOF; flush then close
  size_t inflight = 0;   // requests read whose response is not yet in `out`

  std::atomic<bool> closed{false};
  std::mutex mutex;
  std::deque<std::string> queue;  // request lines awaiting a handler
  bool running = false;           // a pool task is draining `queue`
};

// ---------------------------------------------------------------------------
// Grow-on-demand handler pool: a new thread is spawned only when a task
// arrives and no thread is idle (so sleeping `wait` handlers grow the pool
// instead of starving other connections), up to the cap; beyond it tasks
// queue. Threads park until StopAndJoin, which drains the queue first so
// already-read requests still get their responses.
class EventLoopServer::HandlerPool {
 public:
  explicit HandlerPool(size_t max_threads)
      : max_threads_(max_threads > 0 ? max_threads : 1) {}
  ~HandlerPool() { StopAndJoin(); }

  void Submit(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stop_) return;
      tasks_.push_back(std::move(task));
      if (idle_ == 0 && threads_.size() < max_threads_) {
        threads_.emplace_back([this] { Worker(); });
        ++created_;
      }
    }
    cv_.notify_one();
  }

  void StopAndJoin() {
    std::vector<std::thread> threads;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
      threads.swap(threads_);
    }
    cv_.notify_all();
    for (std::thread& thread : threads) thread.join();
  }

  size_t threads_created() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return created_;
  }

 private:
  void Worker() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
      while (tasks_.empty() && !stop_) {
        ++idle_;
        cv_.wait(lock);
        --idle_;
      }
      if (tasks_.empty()) return;  // stopping and drained
      std::function<void()> task = std::move(tasks_.front());
      tasks_.pop_front();
      lock.unlock();
      task();
      lock.lock();
    }
  }

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  std::vector<std::thread> threads_;
  size_t idle_ = 0;
  size_t created_ = 0;
  bool stop_ = false;
  const size_t max_threads_;
};

// ---------------------------------------------------------------------------

EventLoopServer::EventLoopServer(Handler handler, EventLoopOptions options)
    : handler_(std::move(handler)), options_(options) {}

EventLoopServer::~EventLoopServer() { Stop(); }

Status EventLoopServer::Start(uint16_t port) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return ErrnoStatus("epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) return ErrnoStatus("eventfd");
  listen_fd_ =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return ErrnoStatus("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return ErrnoStatus("bind");
  }
  if (::listen(listen_fd_, 256) != 0) return ErrnoStatus("listen");
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) != 0) {
    return ErrnoStatus("getsockname");
  }
  port_ = ntohs(addr.sin_port);

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeId;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    return ErrnoStatus("epoll_ctl wake");
  }
  ev.data.u64 = kListenId;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
    return ErrnoStatus("epoll_ctl listen");
  }

  pool_ = std::make_unique<HandlerPool>(options_.max_handler_threads);
  next_conn_id_ = kFirstConnId;
  loop_thread_ = std::thread([this] { LoopMain(); });
  return Status::Ok();
}

void EventLoopServer::Wake() {
  if (wake_fd_ < 0) return;
  uint64_t one = 1;
  // EAGAIN means the counter is saturated — the loop is awake already.
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void EventLoopServer::RequestStop() {
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    if (stop_requested_) return;
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
}

void EventLoopServer::WaitUntilStopRequested() {
  std::unique_lock<std::mutex> lock(stop_mutex_);
  stop_cv_.wait(lock, [this] { return stop_requested_; });
}

void EventLoopServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  RequestStop();
  // Phase 1: stop reading new requests (the listener closes, reads pause)
  // but keep the loop flushing, so responses to requests already handed to
  // the pool still reach their clients.
  reading_stopped_.store(true, std::memory_order_release);
  Wake();
  if (pool_ != nullptr) pool_->StopAndJoin();
  // Phase 2: every handler has responded; drain, final flush, tear down.
  loop_exit_.store(true, std::memory_order_release);
  Wake();
  if (loop_thread_.joinable()) loop_thread_.join();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  listen_fd_ = wake_fd_ = epoll_fd_ = -1;
}

EventLoopStats EventLoopServer::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  EventLoopStats snapshot = stats_;
  if (pool_ != nullptr) snapshot.handler_threads = pool_->threads_created();
  return snapshot;
}

void EventLoopServer::LoopMain() {
  std::vector<epoll_event> events(128);
  bool reading_stop_applied = false;
  while (!loop_exit_.load(std::memory_order_acquire)) {
    int n = ::epoll_wait(epoll_fd_, events.data(),
                         static_cast<int>(events.size()), PollTimeoutMs());
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    RearmListenerIfDue();
    for (int i = 0; i < n; ++i) {
      const epoll_event& ev = events[i];
      if (ev.data.u64 == kWakeId) {
        uint64_t drained;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      if (ev.data.u64 == kListenId) {
        AcceptReady();
        continue;
      }
      auto it = conns_.find(ev.data.u64);
      if (it == conns_.end()) continue;
      std::shared_ptr<Conn> conn = it->second;
      if (ev.events & (EPOLLHUP | EPOLLERR)) {
        CloseConn(conn);
        continue;
      }
      if (ev.events & EPOLLOUT) TryWrite(conn);
      if (!conn->closed.load(std::memory_order_relaxed) &&
          (ev.events & EPOLLIN)) {
        ReadReady(conn);
      }
      if (!conn->closed.load(std::memory_order_relaxed)) {
        UpdateInterest(conn);
        MaybeFinish(conn);
      }
    }
    DrainCompletions();
    if (reading_stopped_.load(std::memory_order_acquire) &&
        !reading_stop_applied) {
      reading_stop_applied = true;
      if (listen_fd_ >= 0) {
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
        ::close(listen_fd_);
        listen_fd_ = -1;
      }
      std::vector<std::shared_ptr<Conn>> open;
      open.reserve(conns_.size());
      for (const auto& [id, conn] : conns_) open.push_back(conn);
      for (const auto& conn : open) UpdateInterest(conn);
    }
  }
  // Final pass: responses queued between the pool joining and the loop
  // exiting (the `shutdown` bye is the common one) still flush, best
  // effort, before every socket closes.
  DrainCompletions();
  std::vector<std::shared_ptr<Conn>> open;
  open.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) open.push_back(conn);
  for (const auto& conn : open) {
    if (!conn->closed.load(std::memory_order_relaxed)) TryWrite(conn);
  }
  for (const auto& conn : open) CloseConn(conn);
}

int EventLoopServer::PollTimeoutMs() const {
  if (listen_armed_ || listen_fd_ < 0) return -1;
  const auto wait = std::chrono::ceil<std::chrono::milliseconds>(
      listen_rearm_at_ - std::chrono::steady_clock::now());
  return static_cast<int>(std::max<int64_t>(wait.count(), 0));
}

void EventLoopServer::RearmListenerIfDue() {
  if (listen_armed_ || listen_fd_ < 0 ||
      std::chrono::steady_clock::now() < listen_rearm_at_) {
    return;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenId;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) == 0) {
    listen_armed_ = true;
  }
}

void EventLoopServer::AcceptReady() {
  while (listen_fd_ >= 0) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // drained
      // The connection is still queued (typically EMFILE/ENFILE/ENOBUFS/
      // ENOMEM): back off rather than let the listener fire again at once.
      Metrics().accept_errors->Add(1);
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
      listen_armed_ = false;
      listen_rearm_at_ = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(accept_backoff_ms_);
      accept_backoff_ms_ = std::min<int64_t>(accept_backoff_ms_ * 2, 100);
      return;
    }
    accept_backoff_ms_ = 1;
    if (Failpoints::Check("service.accept").action !=
        FailpointHit::Action::kNone) {
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = conn->id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    conn->interest = EPOLLIN;
    conns_.emplace(conn->id, conn);
    Metrics().accepted->Add(1);
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.accepted;
    ++stats_.connections;
  }
}

void EventLoopServer::ReadReady(const std::shared_ptr<Conn>& conn) {
  if (!FailpointError("socket.recv").ok()) {
    CloseConn(conn);
    return;
  }
  char buf[64 << 10];
  while (true) {
    ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->in.append(buf, static_cast<size_t>(n));
      ExtractLines(conn);
      if (conn->closed.load(std::memory_order_relaxed)) return;
      // Paused (backpressure) or a short read (socket drained): let the
      // loop service other connections; level-triggered epoll re-fires.
      if (conn->paused || n < static_cast<ssize_t>(sizeof(buf))) return;
      continue;
    }
    if (n == 0) {
      conn->read_closed = true;
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    CloseConn(conn);
    return;
  }
}

void EventLoopServer::ExtractLines(const std::shared_ptr<Conn>& conn) {
  size_t start = 0;
  size_t dispatched = 0;
  bool overlong = false;
  while (true) {
    size_t newline = conn->in.find('\n', start);
    if (newline == std::string::npos) break;
    if (newline - start > options_.max_line_bytes) {
      // A terminated line over the bound is just as hostile as an
      // unterminated one; stop dispatching and drop the connection below.
      overlong = true;
      break;
    }
    std::string line = conn->in.substr(start, newline - start);
    start = newline + 1;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    ++conn->inflight;
    ++dispatched;
    bool need_task = false;
    {
      std::lock_guard<std::mutex> lock(conn->mutex);
      conn->queue.push_back(std::move(line));
      if (!conn->running) {
        conn->running = true;
        need_task = true;
      }
    }
    if (need_task) {
      std::shared_ptr<Conn> task_conn = conn;
      pool_->Submit([this, task_conn] { RunConn(task_conn); });
    }
  }
  if (start > 0) conn->in.erase(0, start);
  if (overlong || conn->in.size() > options_.max_line_bytes) {
    // No newline within the transport bound: drop the connection rather
    // than buffer without limit. (Lines the bound admits still get the
    // protocol parser's structured too-long error.)
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.overlong_lines;
    }
    CloseConn(conn);
    return;
  }
  if (dispatched > 0) {
    Metrics().requests->Add(dispatched);
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.requests += dispatched;
  }
  UpdateInterest(conn);
}

void EventLoopServer::RunConn(const std::shared_ptr<Conn>& conn) {
  while (true) {
    std::string line;
    {
      std::lock_guard<std::mutex> lock(conn->mutex);
      if (conn->queue.empty() ||
          conn->closed.load(std::memory_order_acquire)) {
        conn->running = false;
        return;
      }
      line = std::move(conn->queue.front());
      conn->queue.pop_front();
    }
    Respond(conn->id, handler_(conn->id, line));
  }
}

void EventLoopServer::Respond(uint64_t conn_id, std::string response) {
  {
    std::lock_guard<std::mutex> lock(completions_mutex_);
    completions_.emplace_back(conn_id, std::move(response));
  }
  Wake();
}

void EventLoopServer::DrainCompletions() {
  std::vector<std::pair<uint64_t, std::string>> batch;
  {
    std::lock_guard<std::mutex> lock(completions_mutex_);
    batch.swap(completions_);
  }
  for (auto& [conn_id, response] : batch) {
    auto it = conns_.find(conn_id);
    if (it == conns_.end()) continue;  // connection died mid-request
    std::shared_ptr<Conn> conn = it->second;
    if (conn->inflight > 0) --conn->inflight;
    conn->out += response;
    conn->out += '\n';
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.responses;
    }
    TryWrite(conn);
    if (!conn->closed.load(std::memory_order_relaxed)) {
      UpdateInterest(conn);
      MaybeFinish(conn);
    }
  }
}

void EventLoopServer::TryWrite(const std::shared_ptr<Conn>& conn) {
  if (conn->closed.load(std::memory_order_relaxed)) return;
  if (!FailpointError("socket.send").ok()) {
    CloseConn(conn);
    return;
  }
  while (conn->out_off < conn->out.size()) {
    ssize_t n = ::send(conn->fd, conn->out.data() + conn->out_off,
                       conn->out.size() - conn->out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    CloseConn(conn);
    return;
  }
  if (conn->out_off == conn->out.size()) {
    conn->out.clear();
    conn->out_off = 0;
  } else if (conn->out_off > (64u << 10)) {
    conn->out.erase(0, conn->out_off);
    conn->out_off = 0;
  }
}

void EventLoopServer::UpdateInterest(const std::shared_ptr<Conn>& conn) {
  if (conn->closed.load(std::memory_order_relaxed)) return;
  size_t backlog = conn->out.size() - conn->out_off;
  bool should_pause =
      conn->inflight >= options_.max_pipelined_requests ||
      backlog > options_.max_write_buffer_bytes;
  if (should_pause && !conn->paused) {
    conn->paused = true;
    Metrics().pauses->Add(1);
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.backpressure_pauses;
  } else if (!should_pause && conn->paused) {
    conn->paused = false;
  }
  uint32_t want = 0;
  if (!conn->paused && !conn->read_closed &&
      !reading_stopped_.load(std::memory_order_acquire)) {
    want |= EPOLLIN;
  }
  if (backlog > 0) want |= EPOLLOUT;
  if (want != conn->interest) {
    epoll_event ev{};
    ev.events = want;
    ev.data.u64 = conn->id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev) == 0) {
      conn->interest = want;
    }
  }
}

void EventLoopServer::MaybeFinish(const std::shared_ptr<Conn>& conn) {
  // EOF semantics: a client may send its last request and shut down its
  // write side; the connection closes only after every response flushed.
  if (conn->read_closed && conn->inflight == 0 &&
      conn->out_off == conn->out.size()) {
    CloseConn(conn);
  }
}

void EventLoopServer::CloseConn(const std::shared_ptr<Conn>& conn) {
  if (conn->closed.exchange(true, std::memory_order_acq_rel)) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  conns_.erase(conn->id);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    if (stats_.connections > 0) --stats_.connections;
  }
  if (close_handler_) close_handler_(conn->id);
}

}  // namespace dbre::cluster
