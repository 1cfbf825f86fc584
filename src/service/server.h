// The dbred daemon core: protocol dispatch over a SessionManager.
//
// A `Server` is transport-agnostic and connection-agnostic: it maps one
// request line to one response line, and every bit of state lives in the
// SessionManager (sessions, questions, reports) — never in the connection.
// That is what makes sessions survive disconnects: a client that drops
// mid-question can reconnect (or a different client can take over) and
// `answer` by session + question id. `HandleLine` is safe to call from any
// number of connection threads concurrently.
//
// Commands (see docs/SERVICE.md): hello, create, sessions, status,
// load_ddl, load_csv, add_joins, mutate, run, wait, watch, questions,
// answer, report, summary, export_ddl, export_eer, export_navigation,
// close, stats, metrics, trace, persist, restore, detach, lease,
// failpoint, shutdown.
//
// With a data dir (`dbre_serve --data-dir`), the constructor replays every
// journal found on disk before serving: crashed sessions come back with
// their catalogs re-interned from snapshots and their pipelines re-running
// against the journaled expert answers (docs/STORAGE.md).
#ifndef DBRE_SERVICE_SERVER_H_
#define DBRE_SERVICE_SERVER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "service/protocol.h"
#include "service/session_manager.h"

namespace dbre::service {

struct ServerOptions {
  SessionManagerOptions sessions;
  ProtocolLimits limits;
  // Upper bound a `wait` request may block server-side, even if the client
  // asks for longer (keeps connection threads reclaimable).
  int64_t max_wait_ms = 30'000;
  // When > 0, arms the process-wide slow-op log: any instrumented
  // operation (pipeline phase, expert wait, journal fsync, snapshot
  // write/load) at least this many milliseconds long is retained and
  // reported by `stats`. 0 leaves the log disabled.
  int64_t slow_op_ms = 0;
  // The `failpoint` wire command injects faults — including crash-here
  // and sticky error injection — so it is off by default: a production
  // daemon must not be crashable by any client that can reach the port.
  // Opt in with `dbre_serve --enable-failpoints`; setting DBRE_FAILPOINTS
  // in the environment also enables it (that operator already opted this
  // process into fault injection).
  bool enable_failpoints = false;
};

class Server {
 public:
  explicit Server(ServerOptions options = {});

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Handles one request line; always returns exactly one response line
  // (without trailing newline), errors included.
  std::string HandleLine(const std::string& line);

  // True once a client issued `shutdown`; transports exit their serve
  // loops when they see it.
  bool shutdown_requested() const {
    return shutdown_.load(std::memory_order_acquire);
  }

  SessionManager* sessions() { return &manager_; }
  const ServerOptions& options() const { return options_; }

  // What startup recovery did (empty report without a data dir).
  const SessionManager::RecoveryReport& recovery() const {
    return recovery_;
  }

 private:
  struct WaitHub;

  // `error_details` collects machine-readable fields merged into the error
  // object when dispatch fails (e.g. session_moved routing hints).
  Result<Json> Dispatch(const Request& request, Json* error_details);

  Result<Json> HandleHello(const Request& request);
  Result<Json> HandleCreate(const Request& request);
  Result<Json> HandleSessions();
  Result<Json> HandleStatus(const Request& request);
  Result<Json> HandleLoadDdl(const Request& request);
  Result<Json> HandleLoadCsv(const Request& request);
  Result<Json> HandleAddJoins(const Request& request);
  Result<Json> HandleMutate(const Request& request);
  Result<Json> HandleRun(const Request& request);
  Result<Json> HandleWait(const Request& request);
  Result<Json> HandleWatch(const Request& request, Json* error_details);
  Result<Json> HandleQuestions(const Request& request);
  Result<Json> HandleAnswer(const Request& request);
  Result<Json> HandleReport(const Request& request);
  Result<Json> HandleExport(const Request& request);
  Result<Json> HandleClose(const Request& request);
  Result<Json> HandleStats();
  Result<Json> HandleMetrics();
  Result<Json> HandleTrace(const Request& request);
  Result<Json> HandlePersist(const Request& request);
  Result<Json> HandleRestore(const Request& request);
  Result<Json> HandleDetach(const Request& request);
  Result<Json> HandleLease(const Request& request);
  Result<Json> HandleFailpoint(const Request& request);

  Result<std::shared_ptr<Session>> SessionParam(const Request& request);

  // Ownership fence at the protocol surface: kFailedPrecondition with
  // structured `session_moved` details when `id` has been adopted by a
  // newer-epoch owner — whether the stale copy is still live here
  // (persistence fenced) or already dropped (only the OWNER stamp left).
  // Ok when the session is genuinely ours, unowned, or simply unknown.
  Status MovedCheck(const std::string& id, Json* error_details);

  // Per-session wait rendezvous: a `wait` parks on its own session's hub,
  // so a state change on one session wakes only that session's waiters —
  // with 32 clients on a shared global hub every event woke every waiter
  // (a thundering herd that dominated tail latency under load).
  std::shared_ptr<WaitHub> HubFor(const std::string& session_id);
  void DropHub(const std::string& session_id);
  void NotifyAllHubs();

  ServerOptions options_;
  SessionManager manager_;
  SessionManager::RecoveryReport recovery_;
  std::atomic<bool> shutdown_{false};

  std::mutex hubs_mutex_;
  std::unordered_map<std::string, std::shared_ptr<WaitHub>> hubs_;
};

}  // namespace dbre::service

#endif  // DBRE_SERVICE_SERVER_H_
