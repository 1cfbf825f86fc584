#include "cluster/event_loop.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/service_transport.h"
#include "obs/metrics.h"
#include "paper_session_util.h"
#include "service/server.h"
#include "service/transport.h"

namespace dbre::cluster {
namespace {

using service::SocketChannel;
using service::TcpConnect;

std::unique_ptr<SocketChannel> Connect(uint16_t port) {
  auto channel = TcpConnect("127.0.0.1", port);
  EXPECT_TRUE(channel.ok()) << channel.status().ToString();
  return channel.ok() ? std::move(*channel) : nullptr;
}

TEST(EventLoopTest, EchoesOneLine) {
  EventLoopServer loop(
      [](uint64_t, const std::string& line) { return "echo:" + line; });
  ASSERT_TRUE(loop.Start(0).ok());
  auto channel = Connect(loop.port());
  ASSERT_NE(channel, nullptr);
  ASSERT_TRUE(channel->WriteLine("hello").ok());
  auto line = channel->ReadLine();
  ASSERT_TRUE(line.ok());
  EXPECT_EQ(*line, "echo:hello");
  loop.Stop();
}

TEST(EventLoopTest, PipelinedRequestsAnswerInOrder) {
  EventLoopServer loop(
      [](uint64_t, const std::string& line) { return line; });
  ASSERT_TRUE(loop.Start(0).ok());
  auto channel = Connect(loop.port());
  ASSERT_NE(channel, nullptr);
  const int kRequests = 200;
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(channel->WriteLine("r" + std::to_string(i)).ok());
  }
  for (int i = 0; i < kRequests; ++i) {
    auto line = channel->ReadLine();
    ASSERT_TRUE(line.ok()) << i;
    EXPECT_EQ(*line, "r" + std::to_string(i));
  }
  loop.Stop();
}

TEST(EventLoopTest, BackpressureBoundsPipelineWithoutLosingRequests) {
  // A tiny pipeline cap forces read-side pauses; every request must still
  // be answered, in order, once the client starts draining. The handler is
  // gated shut while the client floods so inflight provably exceeds the
  // cap — without the gate a fast handler could drain as lines arrive and
  // the pause would be a timing accident.
  EventLoopOptions options;
  options.max_pipelined_requests = 4;
  std::atomic<bool> release{false};
  EventLoopServer loop(
      [&](uint64_t, const std::string& line) {
        while (!release.load()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return line;
      },
      options);
  ASSERT_TRUE(loop.Start(0).ok());
  auto channel = Connect(loop.port());
  ASSERT_NE(channel, nullptr);
  const int kRequests = 64;
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(channel->WriteLine("p" + std::to_string(i)).ok());
  }
  // With the handler blocked, dispatched-but-unanswered lines accumulate
  // until the loop must pause reading this connection.
  for (int i = 0; i < 500 && loop.stats().backpressure_pauses == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GT(loop.stats().backpressure_pauses, 0u);
  release = true;
  for (int i = 0; i < kRequests; ++i) {
    auto line = channel->ReadLine();
    ASSERT_TRUE(line.ok()) << i;
    EXPECT_EQ(*line, "p" + std::to_string(i));
  }
  loop.Stop();
}

TEST(EventLoopTest, ConnectionsExecuteConcurrently) {
  // One connection parks inside its handler; another must still get
  // served — the loop thread never runs handlers itself.
  std::atomic<bool> release{false};
  EventLoopServer loop([&](uint64_t, const std::string& line) {
    if (line == "block") {
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return std::string("unblocked");
    }
    return std::string("fast");
  });
  ASSERT_TRUE(loop.Start(0).ok());
  auto blocked = Connect(loop.port());
  auto quick = Connect(loop.port());
  ASSERT_NE(blocked, nullptr);
  ASSERT_NE(quick, nullptr);
  ASSERT_TRUE(blocked->WriteLine("block").ok());
  ASSERT_TRUE(quick->WriteLine("ping").ok());
  auto fast = quick->ReadLine();
  ASSERT_TRUE(fast.ok());
  EXPECT_EQ(*fast, "fast");
  release = true;
  auto slow = blocked->ReadLine();
  ASSERT_TRUE(slow.ok());
  EXPECT_EQ(*slow, "unblocked");
  loop.Stop();
}

TEST(EventLoopTest, OverlongLineClosesTheConnection) {
  EventLoopOptions options;
  options.max_line_bytes = 128;
  EventLoopServer loop(
      [](uint64_t, const std::string& line) { return line; }, options);
  ASSERT_TRUE(loop.Start(0).ok());
  auto channel = Connect(loop.port());
  ASSERT_NE(channel, nullptr);
  ASSERT_TRUE(channel->WriteLine(std::string(4096, 'x')).ok());
  // The transport drops the connection rather than buffering without
  // bound; the client sees EOF (or a reset, depending on timing).
  auto line = channel->ReadLine();
  EXPECT_FALSE(line.ok());
  // The loop itself survives: a fresh connection still works.
  auto next = Connect(loop.port());
  ASSERT_NE(next, nullptr);
  ASSERT_TRUE(next->WriteLine("ok").ok());
  auto echoed = next->ReadLine();
  ASSERT_TRUE(echoed.ok());
  EXPECT_EQ(*echoed, "ok");
  EXPECT_GE(loop.stats().overlong_lines, 1u);
  loop.Stop();
}

TEST(EventLoopTest, CloseHandlerSeesEveryConnection) {
  std::atomic<int> closed{0};
  EventLoopServer loop(
      [](uint64_t, const std::string& line) { return line; });
  loop.set_close_handler([&](uint64_t) { closed.fetch_add(1); });
  ASSERT_TRUE(loop.Start(0).ok());
  {
    auto a = Connect(loop.port());
    auto b = Connect(loop.port());
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    ASSERT_TRUE(a->WriteLine("x").ok());
    ASSERT_TRUE(a->ReadLine().ok());
  }  // both sockets close
  for (int i = 0; i < 200 && closed.load() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(closed.load(), 2);
  loop.Stop();
}

TEST(EventLoopTest, StatsCountTraffic) {
  EventLoopServer loop(
      [](uint64_t, const std::string& line) { return line; });
  ASSERT_TRUE(loop.Start(0).ok());
  auto channel = Connect(loop.port());
  ASSERT_NE(channel, nullptr);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(channel->WriteLine("x").ok());
    ASSERT_TRUE(channel->ReadLine().ok());
  }
  EventLoopStats stats = loop.stats();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.requests, 5u);
  EXPECT_EQ(stats.responses, 5u);
  EXPECT_EQ(stats.connections, 1u);
  loop.Stop();
  EXPECT_EQ(loop.stats().connections, 0u);
}

// --- The transport glue: a real dbred Server behind the event loop. ---

TEST(EventLoopTransportTest, ServesTheProtocolAndShutdownFlushes) {
  service::Server server;
  EventLoopTransport transport(&server);
  ASSERT_TRUE(transport.Start(0).ok());

  service::Client client(transport.port());
  service::Json created = client.MustCall(service::Command("create"));
  std::string session = created.GetString("session");
  EXPECT_FALSE(session.empty());
  service::Json status =
      client.MustCall(service::Command("status", session));
  EXPECT_EQ(status.GetString("state"), "idle");

  // `shutdown` must answer before the socket dies (two-phase stop).
  service::Json bye = client.MustCall(service::Command("shutdown"));
  EXPECT_TRUE(bye.GetBool("bye"));
  transport.WaitUntilShutdown();
  transport.Stop();
  server.sessions()->Shutdown();
}

TEST(EventLoopTransportTest, ManyConcurrentClients) {
  service::Server server;
  EventLoopTransport transport(&server);
  ASSERT_TRUE(transport.Start(0).ok());
  const int kClients = 16;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto channel = TcpConnect("127.0.0.1", transport.port());
      if (!channel.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < 20; ++i) {
        service::Json request = service::Command("sessions");
        request.Set("id", service::Json::Int(c * 100 + i));
        if (!(*channel)->WriteLine(request.Dump()).ok() ||
            !(*channel)->ReadLine().ok()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(transport.stats().requests, 16u * 20u);
  transport.Stop();
  server.sessions()->Shutdown();
}

// Lowers RLIMIT_NOFILE to just above the highest open descriptor and fills
// every free slot below it with /dev/null, so the process's next
// descriptor allocation fails with EMFILE. The destructor undoes both.
class DescriptorExhaustion {
 public:
  DescriptorExhaustion() {
    if (::getrlimit(RLIMIT_NOFILE, &saved_) != 0) return;
    int highest = 0;
    for (int fd = 0; fd < 4096; ++fd) {
      if (::fcntl(fd, F_GETFD) != -1) highest = fd;
    }
    rlimit tight = saved_;
    tight.rlim_cur = static_cast<rlim_t>(highest) + 8;
    limited_ = ::setrlimit(RLIMIT_NOFILE, &tight) == 0;
    while (limited_ && fillers_.size() < 4096) {
      const int fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
      if (fd < 0) {
        exhausted_ = errno == EMFILE;
        break;
      }
      fillers_.push_back(fd);
    }
  }
  ~DescriptorExhaustion() {
    for (int fd : fillers_) ::close(fd);
    if (limited_) ::setrlimit(RLIMIT_NOFILE, &saved_);
  }

  bool exhausted() const { return exhausted_ && !fillers_.empty(); }

  void FreeOne() {
    ::close(fillers_.back());
    fillers_.pop_back();
  }

 private:
  rlimit saved_{};
  bool limited_ = false;
  bool exhausted_ = false;
  std::vector<int> fillers_;
};

double ProcessCpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

// A client waits in the backlog while the process has no descriptor left:
// accept(2) keeps failing with EMFILE and the level-triggered listener
// stays readable. The loop must back off instead of spinning a core, and
// serve the client once a descriptor is free again.
TEST(EventLoopTransportTest, AcceptBacksOffWhileDescriptorsRunOut) {
  service::Server server;
  EventLoopTransport transport(&server);
  ASSERT_TRUE(transport.Start(0).ok());
  obs::Counter* accept_errors = obs::Registry::Default().GetCounter(
      "dbre_accept_errors_total", {},
      "Transient accept() failures retried by the listener");
  const uint64_t errors_before = accept_errors->value();

  // The client's socket exists before the descriptors run out; connect(2)
  // completes in the kernel backlog without allocating another one.
  const int client = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(client, 0);
  service::SocketChannel channel(client);
  timeval receive_timeout{};
  receive_timeout.tv_sec = 10;
  ASSERT_EQ(::setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &receive_timeout,
                         sizeof(receive_timeout)),
            0);

  DescriptorExhaustion exhaustion;
  ASSERT_TRUE(exhaustion.exhausted());
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(transport.port());
  ASSERT_EQ(::connect(client, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);

  const double cpu_start = ProcessCpuSeconds();
  const auto wall_start = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  const double cpu = ProcessCpuSeconds() - cpu_start;
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wall_start)
                          .count();
  EXPECT_LT(cpu, 0.2 * wall)
      << "the listener spun while accept(2) failed: " << cpu << " s of CPU in "
      << wall << " s";
  EXPECT_GT(accept_errors->value(), errors_before);

  exhaustion.FreeOne();
  service::Json hello = service::Command("hello");
  hello.Set("id", service::Json::Int(1));
  ASSERT_TRUE(channel.WriteLine(hello.Dump()).ok());
  auto line = channel.ReadLine();
  ASSERT_TRUE(line.ok()) << line.status().ToString();
  auto response = service::Json::Parse(*line);
  ASSERT_TRUE(response.ok()) << *line;
  EXPECT_TRUE(response->GetBool("ok")) << *line;
  transport.Stop();
  server.sessions()->Shutdown();
}

}  // namespace
}  // namespace dbre::cluster
