// Lock-cheap process metrics: counters, gauges, log2-bucketed histograms
// and a slow-operation log, collected in a registry that renders the
// Prometheus text exposition format.
//
// Design constraints (this sits on the pipeline's hot paths):
//   * recording is a handful of relaxed atomic operations — no locks, no
//     allocation, no syscalls;
//   * metric cells are created once (registry lookup under a mutex) and
//     the returned pointers are stable for the registry's lifetime, so
//     call sites cache them in function-local statics;
//   * histograms bucket by log2 of the observed value (microseconds by
//     convention, suffix `_us`), giving ~2x-resolution latency curves in
//     40 fixed cells — no configuration, no per-series allocation.
//
// One process-wide `Registry::Default()` backs the `metrics` wire command
// of the dbred server; tests that need isolation construct their own
// Registry and assert on deltas.
#ifndef DBRE_OBS_METRICS_H_
#define DBRE_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dbre::obs {

// Monotonically increasing event count.
class Counter {
 public:
  void Add(uint64_t delta = 1) {
    cell_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return cell_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> cell_{0};
};

// Instantaneous level (inflight runs, live sessions, cache entries).
class Gauge {
 public:
  void Set(int64_t value) { cell_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { cell_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return cell_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> cell_{0};
};

// Log2-bucketed histogram of non-negative values. Bucket i counts
// observations v with bit_width(v) == i, i.e. v in [2^(i-1), 2^i); bucket
// 0 holds v == 0 and the last bucket absorbs everything from 2^38 up
// (~76 hours in microseconds). Observe() is three relaxed fetch_adds.
class Histogram {
 public:
  static constexpr size_t kBuckets = 40;

  void Observe(uint64_t value) {
    buckets_[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t bucket(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  static size_t BucketOf(uint64_t value);
  // Inclusive upper bound of bucket i (Prometheus `le`): 2^i - 1.
  static uint64_t BucketUpperBound(size_t i);

  // Smallest bucket upper bound with cumulative count >= q * count() — a
  // conservative (within 2x) quantile estimate for reports and tests.
  uint64_t ApproxQuantile(double q) const;

 private:
  std::atomic<uint64_t> buckets_[kBuckets]{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

// One operation that exceeded the slow-op threshold.
struct SlowOp {
  std::string op;        // e.g. "pipeline:rhs_discovery", "journal:fsync"
  std::string detail;    // free-form context (session id, subject, bytes)
  int64_t duration_us = 0;
  int64_t at_unix_us = 0;  // wall-clock completion time
};

// Bounded log of operations slower than a configurable threshold. The
// threshold check is one relaxed atomic load, so instrumented code calls
// MaybeRecord unconditionally; recording itself takes a mutex (rare by
// construction). Threshold <= 0 disables the log.
class SlowOpLog {
 public:
  explicit SlowOpLog(size_t capacity = 64) : capacity_(capacity) {}

  void set_threshold_us(int64_t us) {
    threshold_us_.store(us, std::memory_order_relaxed);
  }
  int64_t threshold_us() const {
    return threshold_us_.load(std::memory_order_relaxed);
  }

  bool enabled_for(int64_t duration_us) const {
    int64_t threshold = threshold_us();
    return threshold > 0 && duration_us >= threshold;
  }

  // Records the op if it crossed the threshold; returns whether it did.
  bool MaybeRecord(std::string_view op, int64_t duration_us,
                   std::string_view detail = "");

  // Slow ops currently retained, oldest first.
  std::vector<SlowOp> Snapshot() const;

  // Slow ops ever recorded (retention drops old entries, not this count).
  uint64_t total() const { return total_.load(std::memory_order_relaxed); }

 private:
  const size_t capacity_;
  std::atomic<int64_t> threshold_us_{-1};
  std::atomic<uint64_t> total_{0};
  mutable std::mutex mutex_;
  std::deque<SlowOp> ring_;
};

// Prometheus-style labels, e.g. {{"phase", "rhs_discovery"}}. Order given
// by the call site is preserved in the rendered series.
using Labels = std::vector<std::pair<std::string, std::string>>;

// Named metric store. Get* registers on first use and returns a stable
// pointer; the same (name, labels) always yields the same cell. A name
// must keep one type and one help string across all its label sets.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter* GetCounter(const std::string& name, const Labels& labels = {},
                      const std::string& help = "");
  Gauge* GetGauge(const std::string& name, const Labels& labels = {},
                  const std::string& help = "");
  Histogram* GetHistogram(const std::string& name, const Labels& labels = {},
                          const std::string& help = "");

  SlowOpLog* slow_ops() { return &slow_ops_; }
  const SlowOpLog* slow_ops() const { return &slow_ops_; }

  // Prometheus text exposition format: one `# HELP` / `# TYPE` pair per
  // family, histograms as cumulative `_bucket{le=...}` + `_sum` + `_count`.
  // Families render in registration order, series in label order.
  std::string RenderPrometheus() const;

  // The process-wide registry every built-in instrumentation point uses.
  static Registry& Default();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Series {
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  struct Family {
    std::string name;
    std::string help;
    Kind kind = Kind::kCounter;
    // A deque: adding a series never moves one a caller still reads.
    std::deque<Series> series;
  };

  Series* GetSeries(const std::string& name, const Labels& labels,
                    const std::string& help, Kind kind);

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Family>> families_;  // registration order
  std::map<std::string, Family*> by_name_;
  SlowOpLog slow_ops_;
};

// Current wall clock in microseconds since the Unix epoch.
int64_t WallClockUs();

// Monotonic clock in microseconds (for durations).
int64_t MonotonicUs();

}  // namespace dbre::obs

#endif  // DBRE_OBS_METRICS_H_
