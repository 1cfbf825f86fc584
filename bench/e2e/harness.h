// Plumbing for the end-to-end benchmark: child processes, an NDJSON line
// client, the span recorder, Prometheus-text deltas and quantiles.
//
// The benchmark reaches the system only through its shipped entry points
// (dbre_cli, dbre_serve, dbre_router) — processes, flags, files and the
// wire protocol — so nothing here links against the service or cluster
// internals. Any failure of the system or of the harness throws BenchError.
#ifndef DBRE_BENCH_E2E_HARNESS_H_
#define DBRE_BENCH_E2E_HARNESS_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "service/json.h"

namespace dbre::e2e {

using Clock = std::chrono::steady_clock;
using service::Json;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct BenchError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// Whole-file read and write; both throw BenchError on failure.
std::string ReadText(const std::string& path);
void WriteText(const std::string& path, const std::string& text);

// ---------------------------------------------------------------------------
// Processes.

struct SpawnOptions {
  std::string cwd;          // empty: inherit
  std::string stderr_path;  // empty: /dev/null (appended to otherwise)
  bool inherit_stderr = false;  // overrides stderr_path
  // The program prints its listening port as the first stdout line
  // (dbre_serve / dbre_router with --port 0); the constructor waits for it.
  bool read_port = false;
  // > 0: pin the child to the first `cpus` CPUs this process may use,
  // applied between fork and exec.
  int cpus = 0;
};

// A child process. The destructor SIGKILLs and reaps one still running,
// and every child dies with the benchmark (PR_SET_PDEATHSIG), so no daemon
// outlives a run.
class Child {
 public:
  Child() = default;
  Child(const std::vector<std::string>& argv, const SpawnOptions& options);
  ~Child();
  Child(Child&& other) noexcept;
  Child& operator=(Child&& other) noexcept;
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  uint16_t port() const { return port_; }

  // A memory field of the live process's /proc status ("VmRSS:",
  // "VmHWM:"), in MiB.
  double MemoryMb(const std::string& field) const;

  // Waits up to `timeout_s` for the process to exit; returns its wait
  // status, and its peak RSS in MiB through `max_rss_mb`. Throws on
  // timeout (after killing it).
  int Wait(double timeout_s, double* max_rss_mb = nullptr);

  // SIGKILL and reap.
  void Kill();

 private:
  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

// ---------------------------------------------------------------------------
// Spans.

// Records named intervals per track (one track per client thread) and
// writes them as Chrome trace-event JSON. A span's depth is the number of
// spans open on its track when it started; the "parts" of a workload are
// its depth-1 spans.
class Tracer {
 public:
  struct Span {
    std::string name;
    int track = 0;
    int depth = 0;
    double start_us = 0;
    double dur_us = 0;
  };

  // RAII span; a no-op when the tracer is null.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string name, int track);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    Span span_;
  };

  Tracer();

  double NowUs() const;
  std::vector<Span> spans() const;

  // Share of the wall time of tracks [first_track, last_track] that their
  // depth-1 spans cover, over spans starting in [from_us, to_us). A track's
  // wall time runs from its first to its last depth-0 span in the interval.
  double Coverage(double from_us, double to_us, int first_track,
                  int last_track) const;

  // Median duration (us) of spans named `name` at depth >= 1; 0 if none.
  double MedianUs(const std::string& name) const;

  void WriteChromeTrace(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> open_;   // guarded by mutex_
  std::vector<Span> spans_;  // guarded by mutex_
};

// ---------------------------------------------------------------------------
// The wire.

// One NDJSON connection to 127.0.0.1:port. Every request is a span named
// after its `cmd` on `track` when a tracer is attached.
class Connection {
 public:
  explicit Connection(uint16_t port, Tracer* tracer = nullptr, int track = 0);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  // Sends `request` (an `id` is added) and returns the whole response.
  Json Call(Json request);
  // Like Call, but throws unless the response is ok; returns `result`.
  Json Must(Json request);

 private:
  std::string ReadLine();

  int fd_ = -1;
  Tracer* tracer_;
  int track_;
  int64_t next_id_ = 1;
  std::string buffer_;
};

Json Command(const std::string& cmd, const std::string& session = "");

// ---------------------------------------------------------------------------
// Metrics pages and statistics.

// A Prometheus text page: "name{labels}" → value.
using MetricPage = std::map<std::string, double>;

MetricPage ParseMetricPage(const std::string& text);
// after − before, series by series (absent in `before` counts as 0).
MetricPage Subtract(const MetricPage& after, const MetricPage& before);
double Value(const MetricPage& page, const std::string& series);
// Adds `page` into `total` series by series.
void Accumulate(MetricPage* total, const MetricPage& page);
// Fetches a live process's registry over the wire.
MetricPage ScrapeMetrics(uint16_t port);

// The q-quantile with linear interpolation between order statistics
// (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);

}  // namespace dbre::e2e

#endif  // DBRE_BENCH_E2E_HARNESS_H_
