#include "harness.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace dbre::e2e {
namespace {

int OpenOutput(const std::string& path, bool append) {
  int flags = O_WRONLY | O_CLOEXEC;
  if (!path.empty()) flags |= O_CREAT | (append ? O_APPEND : O_TRUNC);
  int fd = ::open(path.empty() ? "/dev/null" : path.c_str(), flags, 0644);
  if (fd < 0) throw BenchError("cannot open " + path + ": " + strerror(errno));
  return fd;
}

// The first `cpus` CPUs of this process's affinity mask.
cpu_set_t FirstCpus(int cpus) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    throw BenchError("sched_getaffinity failed");
  }
  cpu_set_t mask;
  CPU_ZERO(&mask);
  int taken = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE && taken < cpus; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &mask);
      ++taken;
    }
  }
  if (taken < cpus) {
    throw BenchError("only " + std::to_string(taken) + " CPUs available, " +
                     std::to_string(cpus) + " requested");
  }
  return mask;
}

// Reads one '\n'-terminated line from `fd` within `timeout_s`.
std::string ReadPortLine(int fd, double timeout_s) {
  std::string line;
  Clock::time_point start = Clock::now();
  while (true) {
    int left_ms = static_cast<int>((timeout_s - SecondsSince(start)) * 1000);
    if (left_ms <= 0) throw BenchError("no port line within the timeout");
    pollfd pfd{fd, POLLIN, 0};
    int ready = ::poll(&pfd, 1, left_ms);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) continue;
    char c = 0;
    ssize_t n = ::read(fd, &c, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw BenchError("exited before printing its port");
    if (c == '\n') return line;
    line += c;
  }
}

}  // namespace

std::string ReadText(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw BenchError("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out) throw BenchError("cannot write " + path);
}

// ---------------------------------------------------------------------------
// Child

Child::Child(const std::vector<std::string>& argv,
             const SpawnOptions& options) {
  // Everything the child touches is prepared before fork: the parent may
  // be multi-threaded, so the child only makes async-signal-safe calls.
  std::vector<char*> args;
  for (const std::string& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (options.cpus > 0) mask = FirstCpus(options.cpus);
  int out_fd = OpenOutput("", false);
  int err_fd = OpenOutput(options.stderr_path, true);
  int port_pipe[2] = {-1, -1};
  if (options.read_port && ::pipe2(port_pipe, O_CLOEXEC) != 0) {
    ::close(out_fd);
    ::close(err_fd);
    throw BenchError("pipe failed");
  }
  const pid_t parent = ::getpid();
  pid_t pid = ::fork();
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    if (options.cpus > 0 && ::sched_setaffinity(0, sizeof(mask), &mask) != 0) {
      ::_exit(126);
    }
    if (!options.cwd.empty() && ::chdir(options.cwd.c_str()) != 0) {
      ::_exit(125);
    }
    ::dup2(options.read_port ? port_pipe[1] : out_fd, STDOUT_FILENO);
    if (!options.inherit_stderr) ::dup2(err_fd, STDERR_FILENO);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(out_fd);
  ::close(err_fd);
  if (options.read_port) ::close(port_pipe[1]);
  if (pid < 0) {
    if (options.read_port) ::close(port_pipe[0]);
    throw BenchError("fork failed");
  }
  pid_ = pid;
  if (!options.read_port) return;
  std::string line;
  try {
    line = ReadPortLine(port_pipe[0], 120.0);
  } catch (const BenchError& error) {
    ::close(port_pipe[0]);
    Kill();
    throw BenchError(argv[0] + ": " + error.what());
  }
  // The daemons write nothing else to stdout.
  ::close(port_pipe[0]);
  long port = std::strtol(line.c_str(), nullptr, 10);
  if (port <= 0 || port > 65535) {
    Kill();
    throw BenchError(argv[0] + " printed '" + line + "', not a port");
  }
  port_ = static_cast<uint16_t>(port);
}

Child::~Child() {
  if (pid_ > 0) Kill();
}

Child::Child(Child&& other) noexcept : pid_(other.pid_), port_(other.port_) {
  other.pid_ = -1;
}

Child& Child::operator=(Child&& other) noexcept {
  std::swap(pid_, other.pid_);
  std::swap(port_, other.port_);
  return *this;
}

double Child::MemoryMb(const std::string& field) const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (status >> key) {
    if (key == field) {
      double kb = 0;
      status >> kb;
      return kb / 1024.0;
    }
    std::getline(status, key);
  }
  throw BenchError("no " + field + " for pid " + std::to_string(pid_));
}

int Child::Wait(double timeout_s, double* max_rss_mb) {
  // A pidfd turns readable when the process exits, so the wait neither
  // spins on the CPUs being measured nor adds a polling delay to the time.
  int pidfd = static_cast<int>(::syscall(SYS_pidfd_open, pid_, 0));
  if (pidfd < 0) throw BenchError("pidfd_open failed");
  pollfd pfd{pidfd, POLLIN, 0};
  int ready = 0;
  do {
    ready = ::poll(&pfd, 1, static_cast<int>(timeout_s * 1000));
  } while (ready < 0 && errno == EINTR);
  ::close(pidfd);
  if (ready == 0) {
    Kill();
    throw BenchError("child did not exit within " +
                     std::to_string(timeout_s) + " s");
  }
  int status = 0;
  rusage usage{};
  while (::wait4(pid_, &status, 0, &usage) < 0) {
    if (errno != EINTR) throw BenchError("wait4 failed");
  }
  pid_ = -1;
  if (max_rss_mb != nullptr) *max_rss_mb = usage.ru_maxrss / 1024.0;
  return status;
}

void Child::Kill() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  while (::waitpid(pid_, nullptr, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
}

// ---------------------------------------------------------------------------
// Tracer

Tracer::Scope::Scope(Tracer* tracer, std::string name, int track)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  span_.name = std::move(name);
  span_.track = track;
  std::lock_guard<std::mutex> lock(tracer_->mutex_);
  for (const Span& open : tracer_->open_) {
    if (open.track == track) ++span_.depth;
  }
  span_.start_us = tracer_->NowUs();
  tracer_->open_.push_back(span_);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  span_.dur_us = tracer_->NowUs() - span_.start_us;
  std::lock_guard<std::mutex> lock(tracer_->mutex_);
  for (auto it = tracer_->open_.begin(); it != tracer_->open_.end(); ++it) {
    if (it->track == span_.track && it->depth == span_.depth) {
      tracer_->open_.erase(it);
      break;
    }
  }
  tracer_->spans_.push_back(std::move(span_));
}

Tracer::Tracer() : epoch_(Clock::now()) {}

double Tracer::NowUs() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
      .count();
}

std::vector<Tracer::Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

double Tracer::Coverage(double from_us, double to_us, int first_track,
                        int last_track) const {
  double wall = 0;
  double covered = 0;
  std::vector<Span> all = spans();
  for (int track = first_track; track <= last_track; ++track) {
    double begin = -1;
    double end = -1;
    for (const Span& span : all) {
      if (span.track != track || span.start_us < from_us ||
          span.start_us >= to_us) {
        continue;
      }
      if (span.depth == 0) {
        if (begin < 0 || span.start_us < begin) begin = span.start_us;
        end = std::max(end, span.start_us + span.dur_us);
      } else if (span.depth == 1) {
        covered += span.dur_us;
      }
    }
    if (begin >= 0) wall += end - begin;
  }
  return wall > 0 ? covered / wall : 0;
}

double Tracer::MedianUs(const std::string& name) const {
  std::vector<double> durations;
  for (const Span& span : spans()) {
    if (span.depth >= 1 && span.name == name) durations.push_back(span.dur_us);
  }
  return Quantile(std::move(durations), 0.5);
}

void Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw BenchError("cannot write " + path);
  std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  bool first = true;
  for (const Span& span : spans()) {
    std::fprintf(out,
                 "%s{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f}",
                 first ? "" : ",\n", service::JsonEscape(span.name).c_str(),
                 span.track, span.start_us, span.dur_us);
    first = false;
  }
  std::fprintf(out, "\n]}\n");
  if (std::fclose(out) != 0) throw BenchError("cannot write " + path);
}

// ---------------------------------------------------------------------------
// Connection

Connection::Connection(uint16_t port, Tracer* tracer, int track)
    : tracer_(tracer), track_(track) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw BenchError("socket failed");
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&address),
                sizeof(address)) != 0) {
    ::close(fd_);
    throw BenchError("cannot connect to port " + std::to_string(port));
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // No single reply may take a minute: a hung system fails the run
  // instead of outliving the benchmark's time limit.
  timeval timeout{60, 0};
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

std::string Connection::ReadLine() {
  while (true) {
    size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      std::string line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      return line;
    }
    char chunk[65536];
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw BenchError("connection lost");
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

Json Connection::Call(Json request) {
  Tracer::Scope span(tracer_, request.GetString("cmd"), track_);
  request.Set("id", Json::Int(next_id_++));
  std::string line = request.Dump();
  line += '\n';
  size_t sent = 0;
  while (sent < line.size()) {
    ssize_t n = ::send(fd_, line.data() + sent, line.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw BenchError("send failed");
    sent += static_cast<size_t>(n);
  }
  std::string response = ReadLine();
  auto parsed = Json::Parse(response);
  if (!parsed.ok()) throw BenchError("unparseable response: " + response);
  return std::move(parsed).value();
}

Json Connection::Must(Json request) {
  std::string cmd = request.GetString("cmd");
  Json response = Call(std::move(request));
  if (!response.GetBool("ok")) {
    throw BenchError(cmd + " failed: " + response.Dump().substr(0, 400));
  }
  const Json* result = response.Find("result");
  return result != nullptr ? *result : Json::MakeObject();
}

Json Command(const std::string& cmd, const std::string& session) {
  Json request = Json::MakeObject();
  request.Set("cmd", Json::Str(cmd));
  if (!session.empty()) request.Set("session", Json::Str(session));
  return request;
}

// ---------------------------------------------------------------------------
// Metrics and statistics

MetricPage ParseMetricPage(const std::string& text) {
  MetricPage page;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#') continue;
    size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    page[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return page;
}

MetricPage Subtract(const MetricPage& after, const MetricPage& before) {
  MetricPage delta;
  for (const auto& [series, value] : after) {
    delta[series] = value - Value(before, series);
  }
  return delta;
}

double Value(const MetricPage& page, const std::string& series) {
  auto it = page.find(series);
  return it != page.end() ? it->second : 0.0;
}

void Accumulate(MetricPage* total, const MetricPage& page) {
  for (const auto& [series, value] : page) (*total)[series] += value;
}

MetricPage ScrapeMetrics(uint16_t port) {
  Connection connection(port);
  return ParseMetricPage(
      connection.Must(Command("metrics")).GetString("metrics"));
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double rank = q * static_cast<double>(values.size() - 1);
  size_t low = static_cast<size_t>(rank);
  if (low + 1 >= values.size()) return values.back();
  double frac = rank - static_cast<double>(low);
  return values[low] + frac * (values[low + 1] - values[low]);
}

}  // namespace dbre::e2e
