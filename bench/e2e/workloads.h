// The four workloads of the end-to-end benchmark (README.md says why each
// exists and how big it is).
#ifndef DBRE_BENCH_E2E_WORKLOADS_H_
#define DBRE_BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dbre::e2e {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0;  // the timed loop's length; run requires --seconds
  bool trace = false;
  std::string work_dir;    // working directory owned by this run
  std::string trace_path;  // Chrome trace-event output of a traced run
};

// Everything one run measured. Times are client-side wall clock.
struct Outcome {
  std::vector<double> setup_s;  // one per set-up repetition
  std::vector<double> op_ms;    // one per completed timed operation
  double window_s = 0;          // first timed op start → last op end
  // Resident-memory samples: a CLI pass's or a restarted daemon's peak,
  // or the fleet's resident set when the timed loop ends.
  std::vector<double> rss_mb;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> errors;  // the first few failures
  // Per-layer metrics of a traced run, by BENCHMARK.json name.
  std::map<std::string, double> layers;
  // Sample counts and input sizes recorded in the result header.
  std::map<std::string, double> counts;
  // The database design every run of the workload measures.
  std::string design;
};

struct MetricSpec {
  std::string name;
  std::string unit;
};

const std::vector<std::string>& WorkloadNames();
// The per-layer metrics every traced run reports (0 where a workload does
// not exercise the layer).
const std::vector<MetricSpec>& LayerMetrics();

// Sets up `config.workload` several times, runs its closed loop for
// `config.seconds`, checks its outputs and tears it down. Throws BenchError
// when the workload cannot run at all; failures of individual operations
// are counted in the outcome instead.
Outcome RunWorkload(const RunConfig& config);

}  // namespace dbre::e2e

#endif  // DBRE_BENCH_E2E_WORKLOADS_H_
