// A forked dbre_serve for tests that kill, pause or restart a real daemon,
// which dies with its test.
//
// The ServeProcess destructor SIGKILLs a daemon still running, so a failed
// assertion cannot leak one (which would also wedge ctest: the daemon
// would hold the test's captured-output pipe open). A test process that
// dies without running destructors — a crash, or a ctest timeout's
// SIGKILL — cannot leak one either: before it execs, the child asks the
// kernel to SIGKILL it when its parent dies (PR_SET_PDEATHSIG), and it
// exits at once if the parent is already gone. The kernel ties that signal
// to the thread that forked, so call StartServe from the test's own
// thread, never from a helper thread that may exit first.
//
// Include with DBRE_SERVE_BINARY defined to the dbre_serve path.
#ifndef DBRE_TESTS_SUPPORT_SERVE_PROCESS_H_
#define DBRE_TESTS_SUPPORT_SERVE_PROCESS_H_

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

namespace dbre {

// Owns a forked dbre_serve.
struct ServeProcess {
  pid_t pid = -1;
  uint16_t port = 0;

  ServeProcess() = default;
  ServeProcess(ServeProcess&& other) noexcept
      : pid(other.pid), port(other.port) {
    other.pid = -1;
  }
  ServeProcess& operator=(ServeProcess&& other) noexcept {
    std::swap(pid, other.pid);
    std::swap(port, other.port);
    return *this;
  }
  ~ServeProcess() {
    if (pid > 0) {
      kill(pid, SIGKILL);  // lands on a SIGSTOPped daemon too
      waitpid(pid, nullptr, 0);
    }
  }

  // SIGSTOP and wait until the kernel reports the process stopped — the
  // moral equivalent of a network partition or a very long GC pause: the
  // daemon is alive, holds its sockets and fds, but answers nothing.
  void Pause() {
    ASSERT_GT(pid, 0);
    ASSERT_EQ(kill(pid, SIGSTOP), 0);
    int wstatus = 0;
    ASSERT_EQ(waitpid(pid, &wstatus, WUNTRACED), pid);
    ASSERT_TRUE(WIFSTOPPED(wstatus));
  }

  // SIGCONT: the partition heals and the daemon resumes exactly where it
  // was — mid-append, mid-run, holding whatever epochs it held.
  void Resume() {
    ASSERT_GT(pid, 0);
    ASSERT_EQ(kill(pid, SIGCONT), 0);
  }

  // SIGKILL + reap, asserting the daemon really died by signal (it had no
  // chance to flush or run destructors).
  void KillHard() {
    ASSERT_GT(pid, 0);
    ASSERT_EQ(kill(pid, SIGKILL), 0);
    int wstatus = 0;
    ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
    pid = -1;
    ASSERT_TRUE(WIFSIGNALED(wstatus));
    EXPECT_EQ(WTERMSIG(wstatus), SIGKILL);
  }

  // Polls for the exit of a daemon that crashed on its own; SIGKILLs it as
  // a last resort so the test never hangs on a wedged daemon. Returns the
  // wait status.
  int Reap() {
    if (pid <= 0) return 0;
    int wstatus = 0;
    for (int i = 0; i < 500; ++i) {  // up to ~5s
      if (waitpid(pid, &wstatus, WNOHANG) == pid) {
        pid = -1;
        return wstatus;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ADD_FAILURE() << "daemon did not exit after losing its connection";
    kill(pid, SIGKILL);
    waitpid(pid, &wstatus, 0);
    pid = -1;
    return wstatus;
  }

  // Reaps a daemon expected to exit on its own (after `shutdown`).
  void WaitExit() {
    if (pid <= 0) return;
    EXPECT_EQ(waitpid(pid, nullptr, 0), pid);
    pid = -1;
  }
};

// Flags beyond `--port 0 --data-dir <dir> --fsync-batch 1`.
struct ServeOptions {
  std::string worker_id;  // --worker-id, when set
  // --buffer-pool-mb 16: loads go through snapshot + page-backed adoption.
  bool paged = false;
  size_t segment_bytes = 0;  // --segment-bytes, when set
};

// Spawns dbre_serve on an ephemeral port and reads the chosen port from
// its first stdout line. The child's stderr goes to /dev/null so the
// daemon never holds the gtest output pipe open past the test. Failpoints,
// if any, ride in through the environment, which the child inherits.
inline ServeProcess StartServe(const std::string& data_dir,
                               const ServeOptions& options = {}) {
  ServeProcess process;
  // Everything the child touches is built before fork: the test may be
  // multi-threaded, so the child only makes async-signal-safe calls.
  std::vector<std::string> args = {DBRE_SERVE_BINARY, "--port", "0",
                                   "--data-dir", data_dir,
                                   "--fsync-batch", "1"};
  if (!options.worker_id.empty()) {
    args.insert(args.end(), {"--worker-id", options.worker_id});
  }
  if (options.segment_bytes != 0) {
    args.insert(args.end(),
                {"--segment-bytes", std::to_string(options.segment_bytes)});
  }
  if (options.paged) args.insert(args.end(), {"--buffer-pool-mb", "16"});
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  int out_pipe[2];
  if (pipe(out_pipe) != 0) {
    ADD_FAILURE() << "pipe() failed";
    return process;
  }
  const int devnull = open("/dev/null", O_WRONLY | O_CLOEXEC);
  const pid_t parent = getpid();
  pid_t pid = fork();
  if (pid < 0) {
    ADD_FAILURE() << "fork() failed";
    close(out_pipe[0]);
    close(out_pipe[1]);
    if (devnull >= 0) close(devnull);
    return process;
  }
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);  // the test died before prctl
    dup2(out_pipe[1], STDOUT_FILENO);
    close(out_pipe[0]);
    close(out_pipe[1]);
    if (devnull >= 0) dup2(devnull, STDERR_FILENO);
    execv(argv[0], argv.data());
    _exit(127);  // exec failed
  }
  close(out_pipe[1]);
  if (devnull >= 0) close(devnull);
  process.pid = pid;
  FILE* out = fdopen(out_pipe[0], "r");
  char line[64] = {0};
  if (out == nullptr || fgets(line, sizeof(line), out) == nullptr) {
    ADD_FAILURE() << "dbre_serve printed no port";
    if (out != nullptr) fclose(out);
    return process;
  }
  fclose(out);  // the daemon writes nothing else to stdout
  process.port = static_cast<uint16_t>(std::strtoul(line, nullptr, 10));
  EXPECT_GT(process.port, 0) << "line: " << line;
  return process;
}

}  // namespace dbre

#endif  // DBRE_TESTS_SUPPORT_SERVE_PROCESS_H_
