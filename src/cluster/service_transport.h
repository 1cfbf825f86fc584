// EventLoopServer ↔ service::Server glue.
//
// Serves the dbred NDJSON protocol over the epoll event loop (Start / port
// / WaitUntilShutdown / Stop); everything above the socket — Server,
// SessionManager, store — is untouched. All protocol state lives in the
// Server, so a dropped connection never takes a session with it.
#ifndef DBRE_CLUSTER_SERVICE_TRANSPORT_H_
#define DBRE_CLUSTER_SERVICE_TRANSPORT_H_

#include <cstdint>
#include <memory>

#include "cluster/event_loop.h"
#include "common/status.h"
#include "service/server.h"

namespace dbre::cluster {

class EventLoopTransport {
 public:
  explicit EventLoopTransport(service::Server* server,
                              EventLoopOptions options = {});

  Status Start(uint16_t port) { return loop_.Start(port); }
  uint16_t port() const { return loop_.port(); }

  // Blocks until some client issues `shutdown`.
  void WaitUntilShutdown() { loop_.WaitUntilStopRequested(); }

  // Graceful teardown; the shutdown response still flushes first.
  void Stop() { loop_.Stop(); }

  EventLoopStats stats() const { return loop_.stats(); }

 private:
  service::Server* server_;
  EventLoopServer loop_;
};

}  // namespace dbre::cluster

#endif  // DBRE_CLUSTER_SERVICE_TRANSPORT_H_
