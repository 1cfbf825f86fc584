// Epoll event-loop transport for line-oriented NDJSON servers.
//
// One loop thread owns every socket: a non-blocking listener plus all
// accepted connections, each with its own read buffer (bytes past the last
// newline) and write buffer (responses not yet drained by the kernel).
// Request *execution* never runs on the loop thread — a request line is
// handed to a grow-on-demand handler pool, because dbred handlers may
// legitimately block for seconds (`wait` parks until a question arrives).
// The loop stays responsive to every other connection while any number of
// handlers sleep.
//
// Ordering and pipelining: a client may write many request lines without
// reading responses. Requests of one connection execute strictly serially,
// in arrival order, so responses come back one per request in request
// order — the protocol's contract — while different connections execute in
// parallel. Pipelining is bounded: once `max_pipelined_requests` are
// in flight for a connection, or its write buffer exceeds
// `max_write_buffer_bytes` (a client that sends but never reads), the loop
// stops reading that connection's socket until it drains. Backpressure
// thus propagates to the client through TCP flow control instead of
// growing unbounded queues.
//
// Accept failures: a connection aborted in the backlog is skipped. Any
// other failure — descriptors or memory exhausted (EMFILE, ENFILE,
// ENOBUFS, ENOMEM) above all — leaves the connection queued, so the
// level-triggered listener would fire again at once; instead it leaves
// the interest set, `dbre_accept_errors_total` counts the failure, and the
// epoll_wait timeout re-arms it after a capped backoff (1 ms doubling to
// 100 ms, reset by the next successful accept).
//
// The same EventLoopServer serves both the worker daemon (handler =
// Server::HandleLine, see service_transport.h) and the router front
// process (handler = Router::Handle, whose upstream calls block on worker
// sockets — exactly why handlers get pool threads, not loop time).
#ifndef DBRE_CLUSTER_EVENT_LOOP_H_
#define DBRE_CLUSTER_EVENT_LOOP_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"

namespace dbre::cluster {

struct EventLoopOptions {
  // A request line longer than this closes the connection (the protocol
  // parser's own limit produces a structured error first for anything it
  // accepts; this is the transport's memory safety net).
  size_t max_line_bytes = 64u << 20;
  // Unanswered requests per connection before its reads pause.
  size_t max_pipelined_requests = 64;
  // Buffered unsent response bytes per connection before reads pause.
  size_t max_write_buffer_bytes = 8u << 20;
  // Handler threads are created on demand (a sleeping `wait` occupies
  // one), capped here; beyond the cap requests queue for a free thread.
  size_t max_handler_threads = 128;
};

struct EventLoopStats {
  uint64_t accepted = 0;         // connections ever accepted
  uint64_t requests = 0;         // request lines read
  uint64_t responses = 0;        // response lines queued for write
  uint64_t backpressure_pauses = 0;  // read-side pauses engaged
  uint64_t overlong_lines = 0;   // connections closed for a missing newline
  size_t connections = 0;        // live now
  size_t handler_threads = 0;    // pool threads created so far
};

class EventLoopServer {
 public:
  // Maps one request line (newline stripped) to one response line; runs on
  // a handler-pool thread. `conn_id` identifies the connection for
  // handlers that keep per-connection state (the router's upstreams).
  using Handler =
      std::function<std::string(uint64_t conn_id, const std::string& line)>;
  // Observes a connection closing (loop thread; must not block).
  using CloseHandler = std::function<void(uint64_t conn_id)>;

  explicit EventLoopServer(Handler handler, EventLoopOptions options = {});
  ~EventLoopServer();

  EventLoopServer(const EventLoopServer&) = delete;
  EventLoopServer& operator=(const EventLoopServer&) = delete;

  // Set before Start.
  void set_close_handler(CloseHandler handler) {
    close_handler_ = std::move(handler);
  }

  // Binds 127.0.0.1:`port` (0 = ephemeral; see port()) and starts the
  // loop thread.
  Status Start(uint16_t port);

  uint16_t port() const { return port_; }

  // Marks the server as shutting down and wakes WaitUntilStopRequested.
  // Safe from handler threads (a `shutdown` request calls this); the loop
  // keeps flushing so the shutdown response still reaches its client.
  void RequestStop();

  // Blocks until RequestStop (typically: until some client asked for
  // shutdown); the owner then calls Stop.
  void WaitUntilStopRequested();

  // Full teardown: stops reading, drains in-flight handlers, flushes what
  // their responses can reach, closes every socket, joins all threads.
  // Idempotent; also run by the destructor. Not from a handler thread.
  void Stop();

  EventLoopStats stats() const;

 private:
  struct Conn;
  class HandlerPool;

  void LoopMain();
  void Wake();
  void AcceptReady();
  int PollTimeoutMs() const;  // -1 unless the listener is backing off
  void RearmListenerIfDue();
  void ReadReady(const std::shared_ptr<Conn>& conn);
  void ExtractLines(const std::shared_ptr<Conn>& conn);
  void DrainCompletions();
  void TryWrite(const std::shared_ptr<Conn>& conn);
  void UpdateInterest(const std::shared_ptr<Conn>& conn);
  void CloseConn(const std::shared_ptr<Conn>& conn);
  void MaybeFinish(const std::shared_ptr<Conn>& conn);
  void RunConn(const std::shared_ptr<Conn>& conn);  // handler-pool task
  void Respond(uint64_t conn_id, std::string response);

  Handler handler_;
  CloseHandler close_handler_;
  EventLoopOptions options_;

  int epoll_fd_ = -1;
  int wake_fd_ = -1;   // eventfd: completions and stop requests
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread loop_thread_;
  std::unique_ptr<HandlerPool> pool_;

  // Loop-thread state.
  uint64_t next_conn_id_ = 1;
  std::unordered_map<uint64_t, std::shared_ptr<Conn>> conns_;
  bool listen_armed_ = true;  // listener in the epoll interest set
  int64_t accept_backoff_ms_ = 1;
  std::chrono::steady_clock::time_point listen_rearm_at_;

  // Handler threads → loop thread.
  std::mutex completions_mutex_;
  std::vector<std::pair<uint64_t, std::string>> completions_;

  std::atomic<bool> reading_stopped_{false};  // phase 1 of Stop
  std::atomic<bool> loop_exit_{false};        // phase 2 of Stop
  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;
  bool stopped_ = false;

  mutable std::mutex stats_mutex_;
  EventLoopStats stats_;
};

}  // namespace dbre::cluster

#endif  // DBRE_CLUSTER_EVENT_LOOP_H_
