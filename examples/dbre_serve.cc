// dbre_serve — the dbred daemon: many concurrent reverse-engineering
// sessions multiplexed over newline-delimited JSON.
//
//   dbre_serve [--port N] [--stdio] [--worker-id ID] [--timeout-ms MS]
//              [--max-sessions N] [--max-inflight N] [--max-queued N]
//              [--data-dir PATH] [--fsync-batch N] [--slow-op-ms MS]
//              [--run-deadline-ms MS]
//
//   --port N        listen on 127.0.0.1:N (0 = pick an ephemeral port;
//                   the chosen port prints as the first stdout line)
//   --stdio         serve exactly one client over stdin/stdout instead
//                   of TCP (inetd-style; handy for tests and pipes)
//   --worker-id ID  identify this daemon in a multi-worker fleet behind
//                   dbre_router: sessions it owns are stamped with ID in
//                   the shared --data-dir, and on startup it recovers
//                   only unowned sessions or its own — never another
//                   live worker's (docs/CLUSTER.md)
//   --timeout-ms MS answer unanswered expert questions with the default
//                   oracle after MS milliseconds (default: wait forever)
//   --max-sessions / --max-inflight / --max-queued
//                   admission bounds (see docs/SERVICE.md)
//   --data-dir PATH durability root: extensions are snapshotted and every
//                   session is journaled there; on startup, journals found
//                   under PATH are replayed so crashed or gracefully
//                   stopped sessions resume (docs/STORAGE.md)
//   --buffer-pool-mb N
//                   serve extensions page-backed through a shared N-MiB
//                   buffer pool instead of materializing them: CSV loads
//                   are snapshotted and adopted paged, so sessions work on
//                   databases larger than memory. Requires --data-dir; the
//                   pool budget is reserved from the global memory budget
//                   (docs/STORAGE.md)
//   --fsync-batch N fsync the journal every N records (1 = every record,
//                   0 = never, default 8; expert answers always sync)
//   --segment-bytes N
//                   rotate journal segments once they exceed N bytes
//                   (default 4 MiB; tests use small values to exercise
//                   rotation)
//   --slow-op-ms MS log any instrumented operation (pipeline phase, expert
//                   wait, journal fsync, snapshot write/load) taking at
//                   least MS milliseconds; the log is reported by `stats`
//                   (default: disabled — see docs/OBSERVABILITY.md)
//   --run-deadline-ms MS
//                   abort any pipeline run that exceeds MS milliseconds of
//                   executing wall clock — the clock starts when the run
//                   leaves the queue, not at admission (the session fails
//                   with a deadline error; default: no deadline — see
//                   docs/ROBUSTNESS.md)
//   --enable-failpoints
//                   expose the `failpoint` wire command, which can inject
//                   errors, delays and crashes into this daemon; off by
//                   default so production servers cannot be degraded or
//                   crashed by a client (implied by DBRE_FAILPOINTS)
//
// Fault injection for testing: the DBRE_FAILPOINTS / DBRE_FAILPOINT_SEED
// environment variables and the `failpoint` command (gated behind
// --enable-failpoints) arm named failure sites across the store and
// service (docs/ROBUSTNESS.md).
//
// In TCP mode the daemon serves the epoll event-loop transport — one loop
// thread, an on-demand handler pool, bounded pipelining and write-side
// backpressure (docs/CLUSTER.md) — until a client sends
// {"cmd":"shutdown"}.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "cluster/service_transport.h"
#include "service/server.h"
#include "service/transport.h"

namespace {

struct ServeArgs {
  int port = 7411;
  bool stdio = false;
  std::string worker_id;
  long timeout_ms = -1;
  long max_sessions = -1;
  long max_inflight = -1;
  long max_queued = -1;
  std::string data_dir;
  long buffer_pool_mb = 0;
  long fsync_batch = -1;
  long segment_bytes = 0;
  long slow_op_ms = 0;
  long run_deadline_ms = 0;
  bool enable_failpoints = false;
  bool show_help = false;
};

bool ParseArgs(int argc, char** argv, ServeArgs* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto next_long = [&](const char* name, long* out) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", name);
        return false;
      }
      *out = std::strtol(argv[++i], nullptr, 10);
      return true;
    };
    long value = 0;
    if (flag == "--port") {
      if (!next_long("--port", &value)) return false;
      args->port = static_cast<int>(value);
    } else if (flag == "--stdio") {
      args->stdio = true;
    } else if (flag == "--worker-id") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--worker-id requires a value\n");
        return false;
      }
      args->worker_id = argv[++i];
    } else if (flag == "--timeout-ms") {
      if (!next_long("--timeout-ms", &args->timeout_ms)) return false;
    } else if (flag == "--max-sessions") {
      if (!next_long("--max-sessions", &args->max_sessions)) return false;
    } else if (flag == "--max-inflight") {
      if (!next_long("--max-inflight", &args->max_inflight)) return false;
    } else if (flag == "--max-queued") {
      if (!next_long("--max-queued", &args->max_queued)) return false;
    } else if (flag == "--data-dir") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--data-dir requires a value\n");
        return false;
      }
      args->data_dir = argv[++i];
    } else if (flag == "--buffer-pool-mb") {
      if (!next_long("--buffer-pool-mb", &args->buffer_pool_mb)) {
        return false;
      }
    } else if (flag == "--fsync-batch") {
      if (!next_long("--fsync-batch", &args->fsync_batch)) return false;
    } else if (flag == "--segment-bytes") {
      if (!next_long("--segment-bytes", &args->segment_bytes)) return false;
    } else if (flag == "--slow-op-ms") {
      if (!next_long("--slow-op-ms", &args->slow_op_ms)) return false;
    } else if (flag == "--run-deadline-ms") {
      if (!next_long("--run-deadline-ms", &args->run_deadline_ms)) {
        return false;
      }
    } else if (flag == "--enable-failpoints") {
      args->enable_failpoints = true;
    } else if (flag == "--help" || flag == "-h") {
      args->show_help = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

void PrintUsage() {
  std::printf(
      "usage: dbre_serve [--port N] [--stdio] [--worker-id ID] "
      "[--timeout-ms MS]\n"
      "                  [--max-sessions N] [--max-inflight N] "
      "[--max-queued N]\n"
      "                  [--data-dir PATH] [--buffer-pool-mb N]\n"
      "                  [--fsync-batch N] "
      "[--segment-bytes N]\n"
      "                  [--slow-op-ms MS] [--run-deadline-ms MS]\n"
      "                  [--enable-failpoints]\n");
}

}  // namespace

int main(int argc, char** argv) {
  ServeArgs args;
  if (!ParseArgs(argc, argv, &args) || args.show_help) {
    PrintUsage();
    return args.show_help ? 0 : 2;
  }

  dbre::service::ServerOptions options;
  options.sessions.question_timeout_ms = args.timeout_ms;
  if (args.max_sessions > 0) {
    options.sessions.max_sessions = static_cast<size_t>(args.max_sessions);
  }
  if (args.max_inflight > 0) {
    options.sessions.max_inflight_runs =
        static_cast<size_t>(args.max_inflight);
  }
  if (args.max_queued > 0) {
    options.sessions.max_queued_runs = static_cast<size_t>(args.max_queued);
  }
  options.sessions.data_dir = args.data_dir;
  if (args.buffer_pool_mb > 0) {
    if (args.data_dir.empty()) {
      std::fprintf(stderr,
                   "dbre_serve: --buffer-pool-mb requires --data-dir "
                   "(paged extensions live in its snapshots)\n");
      return 2;
    }
    options.sessions.buffer_pool_bytes =
        static_cast<size_t>(args.buffer_pool_mb) << 20;
  }
  if (args.fsync_batch >= 0) {
    options.sessions.journal.fsync_batch =
        static_cast<size_t>(args.fsync_batch);
  }
  if (args.segment_bytes > 0) {
    options.sessions.journal.max_segment_bytes =
        static_cast<size_t>(args.segment_bytes);
  }
  if (args.slow_op_ms > 0) options.slow_op_ms = args.slow_op_ms;
  if (args.run_deadline_ms > 0) {
    options.sessions.run_deadline_ms = args.run_deadline_ms;
  }
  options.enable_failpoints = args.enable_failpoints;
  options.sessions.worker_id = args.worker_id;
  dbre::service::Server server(options);
  if (!args.data_dir.empty()) {
    if (auto status = server.sessions()->store_status(); !status.ok()) {
      std::fprintf(stderr, "dbre_serve: cannot open --data-dir: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    const auto& recovery = server.recovery();
    std::fprintf(stderr,
                 "dbred data dir %s: %zu session(s) recovered, %zu run(s) "
                 "restored, %zu run(s) resumed, %zu torn record(s) "
                 "dropped\n",
                 args.data_dir.c_str(), recovery.sessions_recovered,
                 recovery.runs_restored, recovery.runs_resumed,
                 recovery.records_dropped);
    for (const std::string& error : recovery.errors) {
      std::fprintf(stderr, "dbre_serve: recovery: %s\n", error.c_str());
    }
  }

  if (args.stdio) {
    dbre::service::StreamChannel channel(&std::cin, &std::cout);
    size_t handled = dbre::service::ServeChannel(&server, &channel);
    std::fprintf(stderr, "dbre_serve: handled %zu requests over stdio\n",
                 handled);
    server.sessions()->Shutdown();
    return 0;
  }

  dbre::cluster::EventLoopTransport transport(&server);
  if (auto status = transport.Start(static_cast<uint16_t>(args.port));
      !status.ok()) {
    std::fprintf(stderr, "dbre_serve: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("%u\n", transport.port());
  std::fflush(stdout);
  std::fprintf(stderr, "dbred listening on 127.0.0.1:%u (epoll)\n",
               transport.port());
  transport.WaitUntilShutdown();
  transport.Stop();
  server.sessions()->Shutdown();
  return 0;
}
