// Shared helpers for cluster tests: in-process dbred workers behind the
// epoll transport, and forked dbre_serve worker processes for tests that
// SIGKILL a real daemon. Builds on tests/service/paper_session_util.h for
// the paper reference session.
#ifndef DBRE_TESTS_CLUSTER_CLUSTER_TEST_UTIL_H_
#define DBRE_TESTS_CLUSTER_CLUSTER_TEST_UTIL_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/router.h"
#include "cluster/service_transport.h"
#include "paper_session_util.h"
#include "service/server.h"
#ifdef DBRE_SERVE_BINARY
#include "support/serve_process.h"
#endif

namespace dbre::cluster {

// A worker living inside the test process: a Server on the epoll
// transport, with an id and (optionally) a shared data dir.
struct InProcessWorker {
  std::unique_ptr<service::Server> server;
  std::unique_ptr<EventLoopTransport> transport;

  uint16_t port() const { return transport->port(); }

  void Stop() {
    if (transport != nullptr) transport->Stop();
    if (server != nullptr) server->sessions()->Shutdown();
  }
};

inline InProcessWorker StartInProcessWorker(const std::string& worker_id,
                                            const std::string& data_dir) {
  InProcessWorker worker;
  service::ServerOptions options;
  options.sessions.worker_id = worker_id;
  options.sessions.data_dir = data_dir;
  worker.server = std::make_unique<service::Server>(options);
  worker.transport =
      std::make_unique<EventLoopTransport>(worker.server.get());
  EXPECT_TRUE(worker.transport->Start(0).ok());
  EXPECT_GT(worker.port(), 0);
  return worker;
}

// Counts the expert questions of the paper's reference session (driven
// in-process, no sockets) so tests can pick exact interruption points.
inline size_t CountPaperQuestions(const service::PaperInputs& inputs) {
  service::Server server;
  service::LineClient client(&server);
  service::Json create = service::Command("create");
  create.Set("name", service::Json::Str("count"));
  client.MustCall(std::move(create));
  StartPaperRun(client, "count", inputs);
  auto expert = workload::PaperOracle();
  bool done = false;
  size_t total = AnswerPaperQuestions(client, "count", expert.get(),
                                      SIZE_MAX, &done);
  EXPECT_TRUE(done);
  server.sessions()->Shutdown();
  return total;
}

#ifdef DBRE_SERVE_BINARY
// Spawns `dbre_serve --worker-id <id> --data-dir <dir> --fsync-batch 1` on
// an ephemeral port (tests/support/serve_process.h).
inline ServeProcess StartServeWorker(const std::string& worker_id,
                                     const std::string& data_dir) {
  ServeOptions options;
  options.worker_id = worker_id;
  return StartServe(data_dir, options);
}
#endif  // DBRE_SERVE_BINARY

}  // namespace dbre::cluster

#endif  // DBRE_TESTS_CLUSTER_CLUSTER_TEST_UTIL_H_
