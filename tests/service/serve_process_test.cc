// A test process that dies without running destructors — a crash, or a
// ctest timeout's SIGKILL — must not leak the dbre_serve it forked. Here a
// helper child stands in for such a test: it starts a daemon through
// StartServe, reports the daemon's pid and is SIGKILLed. This process is a
// subreaper, so it inherits the orphaned daemon and can reap it to see how
// it died.
#include <chrono>
#include <csignal>
#include <filesystem>
#include <string>
#include <thread>

#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "support/serve_process.h"

namespace dbre {
namespace {

namespace fs = std::filesystem;

// SIGKILLs and reaps a child still running when the test ends.
struct ChildGuard {
  pid_t pid = -1;
  ~ChildGuard() {
    if (pid > 0) {
      kill(pid, SIGKILL);
      waitpid(pid, nullptr, 0);
    }
  }
};

TEST(ServeProcessTest, DaemonDiesWithTheProcessThatStartedIt) {
  ASSERT_EQ(prctl(PR_SET_CHILD_SUBREAPER, 1), 0);
  const fs::path data_dir =
      fs::temp_directory_path() /
      ("dbre_serve_process_" + std::to_string(getpid()));
  fs::remove_all(data_dir);
  int report[2];
  ASSERT_EQ(pipe(report), 0);

  ChildGuard helper{fork()};
  ASSERT_GE(helper.pid, 0);
  if (helper.pid == 0) {
    close(report[0]);
    ServeProcess started = StartServe(data_dir.string());
    const pid_t pid = started.port > 0 ? started.pid : -1;
    if (write(report[1], &pid, sizeof(pid)) != sizeof(pid)) _exit(1);
    while (true) pause();  // SIGKILLed here: no destructor runs
  }
  close(report[1]);
  ChildGuard daemon;
  const ssize_t got = read(report[0], &daemon.pid, sizeof(daemon.pid));
  close(report[0]);
  ASSERT_EQ(got, static_cast<ssize_t>(sizeof(daemon.pid)));
  ASSERT_GT(daemon.pid, 0) << "the helper could not start dbre_serve";

  ASSERT_EQ(kill(helper.pid, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(waitpid(helper.pid, &wstatus, 0), helper.pid);
  helper.pid = -1;
  ASSERT_TRUE(WIFSIGNALED(wstatus));

  // The orphaned daemon is now this process's child.
  pid_t reaped = 0;
  for (int i = 0; i < 1000; ++i) {  // up to ~10s
    reaped = waitpid(daemon.pid, &wstatus, WNOHANG);
    if (reaped != 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(reaped, daemon.pid) << "the daemon outlived its parent";
  daemon.pid = -1;
  ASSERT_TRUE(WIFSIGNALED(wstatus));
  EXPECT_EQ(WTERMSIG(wstatus), SIGKILL);
  fs::remove_all(data_dir);
}

}  // namespace
}  // namespace dbre
