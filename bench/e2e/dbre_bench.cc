// dbre_bench — the end-to-end benchmark program (see README.md).
//
//   dbre_bench run --workload W --seed N --seconds S --trace 0|1
//                  [--results DIR]
//       One run of one workload. Writes a result file (run header, every
//       metric, sample counts) under DIR and prints, as the last stdout
//       line, {"correct","attempted","failed","metrics"}: the end-to-end
//       metrics of BENCHMARK.json untraced, its per-layer metrics traced.
//       Exits 1 when any operation failed or any output was wrong.
//   dbre_bench set [--runs N] [--results DIR]
//       Every workload, each in its own process: N untraced runs (seeds
//       1..N) and one traced run, each of BENCHMARK.json's run_seconds;
//       then prints the set as `report` does.
//   dbre_bench report DIR
//       Medians and quartiles of every (metric, workload) in DIR, per-layer
//       medians, and the tracing overhead.
//   dbre_bench compare BASE NEW
//       Both sets' medians, quartiles and the delta for every (end-to-end
//       metric, workload); flags moves beyond BENCHMARK.json's bounds and
//       calls a metric unresolved when its spread exceeds the bound.
//       Refuses sets whose headers differ in CPU count, benchmark hash,
//       build type, run seconds or database design.
#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace dbre::e2e {
namespace fs = std::filesystem;
namespace {

// The end-to-end metrics every untraced run reports; BENCHMARK.json fixes
// their direction and bound.
const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> metrics = {
      {"setup_s", "s"},
      {"op_p50_ms", "ms"},
      {"ops_per_s", "1/s"},
      {"rss_mb", "MB"},
  };
  return metrics;
}

Json ReadJson(const std::string& path) {
  auto parsed = Json::Parse(ReadText(path));
  if (!parsed.ok()) throw BenchError(path + ": " + parsed.status().ToString());
  return std::move(parsed).value();
}

// BENCHMARK.json at the repository root: the workloads and metrics this
// program reports, with their directions and bounds. Its lists must name
// exactly what dbre_bench computes.
Json LoadBenchmarkJson() {
  Json benchmark = ReadJson(std::string(DBRE_E2E_ROOT) + "/BENCHMARK.json");
  auto names = [&](const char* key) {
    std::vector<std::string> out;
    if (const Json* list = benchmark.Find(key)) {
      for (const Json& entry : list->array()) {
        out.push_back(entry.GetString("name"));
      }
    }
    return out;
  };
  auto expect = [&](const char* key, const std::vector<MetricSpec>& specs) {
    std::vector<std::string> want;
    for (const MetricSpec& spec : specs) want.push_back(spec.name);
    if (names(key) != want) {
      throw BenchError(std::string("BENCHMARK.json ") + key +
                       " does not list the metrics dbre_bench computes");
    }
  };
  expect("end_to_end", EndToEndMetrics());
  expect("per_layer", LayerMetrics());
  std::vector<std::string> workloads = names("workloads");
  if (workloads != WorkloadNames()) {
    throw BenchError("BENCHMARK.json workloads differ from dbre_bench's");
  }
  return benchmark;
}

// ---------------------------------------------------------------------------
// The run header.

std::string Capture(const std::string& command) {
  std::string out;
  if (std::FILE* pipe = ::popen(command.c_str(), "r")) {
    char buffer[256];
    while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) out += buffer;
    ::pclose(pipe);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == ' ')) {
    out.pop_back();
  }
  return out;
}

// FNV-1a over every file of the benchmark's directory (path and bytes),
// in path order, documentation aside: two results are comparable only if
// it matches.
std::string BenchHash() {
  std::vector<std::string> files;
  for (const auto& entry :
       fs::recursive_directory_iterator(DBRE_E2E_SOURCE_DIR)) {
    if (entry.is_regular_file() && entry.path().extension() != ".md") {
      files.push_back(
          fs::relative(entry.path(), DBRE_E2E_SOURCE_DIR).string());
    }
  }
  std::sort(files.begin(), files.end());
  uint64_t hash = 1469598103934665603ULL;
  auto mix = [&hash](const std::string& bytes) {
    for (unsigned char c : bytes) {
      hash ^= c;
      hash *= 1099511628211ULL;
    }
    hash ^= 0xff;
    hash *= 1099511628211ULL;
  };
  for (const std::string& file : files) {
    mix(file);
    mix(ReadText(std::string(DBRE_E2E_SOURCE_DIR) + "/" + file));
  }
  char text[17];
  std::snprintf(text, sizeof(text), "%016llx",
                static_cast<unsigned long long>(hash));
  return text;
}

int CpuCount() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return 0;
  return CPU_COUNT(&allowed);
}

Json Header(const RunConfig& config, const Outcome& outcome) {
  const std::string git = "git -C '" + std::string(DBRE_E2E_ROOT) + "' ";
  std::string sha = Capture(git + "rev-parse HEAD 2>/dev/null");
  Json header = Json::MakeObject();
  header.Set("git_sha", Json::Str(sha.empty() ? "none" : sha));
  header.Set("git_dirty",
             Json::Bool(!sha.empty() &&
                        !Capture(git + "status --porcelain "
                                       "--untracked-files=no 2>/dev/null")
                             .empty()));
  header.Set("bench_hash", Json::Str(BenchHash()));
  header.Set("build_type", Json::Str(DBRE_E2E_BUILD_TYPE));
#if defined(__clang__)
  header.Set("compiler", Json::Str("clang " __clang_version__));
#else
  header.Set("compiler", Json::Str("gcc " __VERSION__));
#endif
  header.Set("nproc", Json::Int(CpuCount()));
  header.Set("workload", Json::Str(config.workload));
  header.Set("seed", Json::Int(static_cast<int64_t>(config.seed)));
  header.Set("seconds", Json::Number(config.seconds));
  header.Set("trace", Json::Bool(config.trace));
  header.Set("design", Json::Str(outcome.design));
  Json counts = Json::MakeObject();
  counts.Set("ops", Json::Int(static_cast<int64_t>(outcome.op_ms.size())));
  for (const auto& [name, value] : outcome.counts) {
    counts.Set(name, Json::Number(value));
  }
  header.Set("counts", std::move(counts));
  return header;
}

// ---------------------------------------------------------------------------
// run

double Finite(double value) { return std::isfinite(value) ? value : 0; }

std::map<std::string, double> EndToEndValues(const Outcome& outcome) {
  std::map<std::string, double> values;
  values["setup_s"] = Quantile(outcome.setup_s, 0.5);
  values["op_p50_ms"] = Quantile(outcome.op_ms, 0.5);
  values["ops_per_s"] =
      outcome.window_s > 0
          ? static_cast<double>(outcome.op_ms.size()) / outcome.window_s
          : 0;
  values["rss_mb"] = Quantile(outcome.rss_mb, 0.5);
  return values;
}

// The highest of a few percentiles that has at least ten samples beyond
// it, with the sample count. Informational: the support differs by
// workload (a few dozen CLI passes, thousands of sessions), so no tail is
// one of the bounded metrics.
Json TailJson(const std::vector<double>& op_ms) {
  const double samples = static_cast<double>(op_ms.size());
  Json tail = Json::MakeObject();
  tail.Set("samples", Json::Int(static_cast<int64_t>(op_ms.size())));
  double quantile = 0;
  for (double candidate : {0.5, 0.75, 0.9, 0.95, 0.99, 0.999}) {
    if (samples * (1 - candidate) >= 10) quantile = candidate;
  }
  if (quantile > 0) {
    tail.Set("quantile", Json::Number(quantile));
    tail.Set("op_ms", Json::Number(Quantile(op_ms, quantile)));
  }
  return tail;
}

Json MetricsJson(const std::vector<MetricSpec>& specs,
                 const std::map<std::string, double>& values) {
  Json metrics = Json::MakeObject();
  for (const MetricSpec& spec : specs) {
    auto it = values.find(spec.name);
    Json metric = Json::MakeObject();
    metric.Set("value", Json::Number(Finite(it != values.end() ? it->second
                                                               : 0)));
    metric.Set("unit", Json::Str(spec.unit));
    metrics.Set(spec.name, std::move(metric));
  }
  return metrics;
}

struct Flags {
  std::map<std::string, std::string> values;

  std::string Get(const std::string& name, const std::string& fallback) const {
    auto it = values.find(name);
    return it != values.end() ? it->second : fallback;
  }
  std::string Require(const std::string& name) const {
    auto it = values.find(name);
    if (it == values.end()) throw BenchError("missing --" + name);
    return it->second;
  }
};

// `--name value` pairs from argv[first..]; a name outside `known` throws.
Flags ParseFlags(int argc, char** argv, int first,
                 const std::vector<std::string>& known) {
  Flags flags;
  for (int i = first; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw BenchError("expected --flag value, got '" + flag + "'");
    }
    std::string name = flag.substr(2);
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      throw BenchError("unknown flag '" + flag + "'");
    }
    flags.values[name] = argv[++i];
  }
  return flags;
}

std::string DefaultResults() {
  return std::string(DBRE_E2E_BUILD_DIR) + "/results/runs";
}

int Run(const Flags& flags) {
  LoadBenchmarkJson();
  RunConfig config;
  config.workload = flags.Require("workload");
  config.seed = std::stoull(flags.Require("seed"));
  config.seconds = std::stod(flags.Require("seconds"));
  config.trace = flags.Require("trace") == "1";
  if (std::find(WorkloadNames().begin(), WorkloadNames().end(),
                config.workload) == WorkloadNames().end()) {
    throw BenchError("unknown workload '" + config.workload + "'");
  }
  if (!(config.seconds > 0)) throw BenchError("--seconds must be positive");
  const std::string results = flags.Get("results", DefaultResults());
  const std::string stem = config.workload + "-seed" +
                           std::to_string(config.seed) + "-trace" +
                           (config.trace ? "1" : "0");
  config.work_dir = std::string(DBRE_E2E_BUILD_DIR) + "/work/" + stem + "-" +
                    std::to_string(::getpid());
  config.trace_path = std::string(DBRE_E2E_BUILD_DIR) + "/traces/" + stem +
                      ".json";
  fs::create_directories(results);
  fs::create_directories(fs::path(config.trace_path).parent_path());
  fs::remove_all(config.work_dir);
  fs::create_directories(config.work_dir);

  std::fprintf(stderr, "dbre_bench: %s seed %llu, %.0f s%s\n",
               config.workload.c_str(),
               static_cast<unsigned long long>(config.seed), config.seconds,
               config.trace ? ", traced" : "");
  // The work dir (dumps, data dirs, daemon logs) is kept only when
  // something went wrong, for the post-mortem.
  Outcome outcome;
  try {
    outcome = RunWorkload(config);
  } catch (...) {
    std::fprintf(stderr, "dbre_bench: logs kept in %s\n",
                 config.work_dir.c_str());
    throw;
  }
  const bool correct = outcome.failed == 0 && !outcome.op_ms.empty();
  if (correct) {
    fs::remove_all(config.work_dir);
  } else {
    std::fprintf(stderr, "dbre_bench: logs kept in %s\n",
                 config.work_dir.c_str());
  }
  std::map<std::string, double> end_to_end = EndToEndValues(outcome);
  Json result = Json::MakeObject();
  result.Set("header", Header(config, outcome));
  result.Set("correct", Json::Bool(correct));
  result.Set("attempted", Json::Int(static_cast<int64_t>(outcome.attempted)));
  result.Set("failed", Json::Int(static_cast<int64_t>(outcome.failed)));
  result.Set("end_to_end", MetricsJson(EndToEndMetrics(), end_to_end));
  result.Set("tail", TailJson(outcome.op_ms));
  if (config.trace) {
    result.Set("per_layer", MetricsJson(LayerMetrics(), outcome.layers));
  }
  Json errors = Json::MakeArray();
  for (const std::string& error : outcome.errors) {
    errors.Append(Json::Str(error));
    std::fprintf(stderr, "dbre_bench: FAILED: %s\n", error.c_str());
  }
  result.Set("errors", std::move(errors));
  WriteText(results + "/" + stem + ".json", result.Dump() + "\n");

  Json line = Json::MakeObject();
  line.Set("correct", Json::Bool(correct));
  line.Set("attempted", Json::Int(static_cast<int64_t>(outcome.attempted)));
  line.Set("failed", Json::Int(static_cast<int64_t>(outcome.failed)));
  line.Set("metrics", config.trace
                          ? MetricsJson(LayerMetrics(), outcome.layers)
                          : MetricsJson(EndToEndMetrics(), end_to_end));
  std::printf("%s\n", line.Dump().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Result sets: report and compare

struct ResultSet {
  // (workload, trace) → the run files' JSON.
  std::map<std::pair<std::string, bool>, std::vector<Json>> runs;
  std::vector<Json> headers;
};

ResultSet LoadSet(const std::string& dir) {
  ResultSet set;
  if (!fs::is_directory(dir)) throw BenchError(dir + " is not a directory");
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".json") continue;
    Json run = ReadJson(entry.path().string());
    const Json* header = run.Find("header");
    if (header == nullptr) continue;
    set.runs[{header->GetString("workload"), header->GetBool("trace")}]
        .push_back(run);
    set.headers.push_back(*header);
  }
  if (set.headers.empty()) throw BenchError("no result files in " + dir);
  return set;
}

std::vector<double> Values(const std::vector<Json>& runs, const char* block,
                           const std::string& metric) {
  std::vector<double> values;
  for (const Json& run : runs) {
    const Json* metrics = run.Find(block);
    const Json* entry = metrics != nullptr ? metrics->Find(metric) : nullptr;
    if (entry != nullptr) values.push_back(entry->GetNumber("value"));
  }
  return values;
}

struct Summary {
  double median = 0;
  double q1 = 0;
  double q3 = 0;
  size_t n = 0;
  double Spread() const { return median != 0 ? (q3 - q1) / median : 0; }
};

Summary Summarize(const std::vector<double>& values) {
  Summary summary;
  summary.n = values.size();
  summary.median = Quantile(values, 0.5);
  summary.q1 = Quantile(values, 0.25);
  summary.q3 = Quantile(values, 0.75);
  return summary;
}

int Report(const std::string& dir) {
  ResultSet set = LoadSet(dir);
  const Json& header = set.headers.front();
  std::printf("set %s: git %s%s, bench %s, %s, %s, nproc %lld\n",
              dir.c_str(), header.GetString("git_sha").c_str(),
              header.GetBool("git_dirty") ? " (dirty)" : "",
              header.GetString("bench_hash").c_str(),
              header.GetString("build_type").c_str(),
              header.GetString("compiler").c_str(),
              static_cast<long long>(header.GetInt("nproc")));
  int failed_runs = 0;
  for (const std::string& workload : WorkloadNames()) {
    const auto& plain = set.runs[{workload, false}];
    const auto& traced = set.runs[{workload, true}];
    if (plain.empty() && traced.empty()) continue;
    for (const auto* runs : {&plain, &traced}) {
      for (const Json& run : *runs) {
        if (!run.GetBool("correct")) ++failed_runs;
      }
    }
    std::printf("\n%s (%zu untraced, %zu traced runs)\n", workload.c_str(),
                plain.size(), traced.size());
    for (const MetricSpec& spec : EndToEndMetrics()) {
      Summary untraced = Summarize(Values(plain, "end_to_end", spec.name));
      Summary with_trace = Summarize(Values(traced, "end_to_end", spec.name));
      std::printf("  %-22s %12.4f %-5s [%.4f, %.4f] n=%zu", spec.name.c_str(),
                  untraced.median, spec.unit.c_str(), untraced.q1,
                  untraced.q3, untraced.n);
      if (untraced.n > 0 && with_trace.n > 0 && untraced.median != 0) {
        std::printf("  tracing overhead %+.1f%%",
                    100 * (with_trace.median - untraced.median) /
                        untraced.median);
      }
      std::printf("\n");
    }
    // Tails grouped by the percentile each run's sample count supports.
    std::map<double, std::pair<std::vector<double>, int64_t>> tails;
    for (const Json& run : plain) {
      const Json* tail = run.Find("tail");
      if (tail == nullptr || tail->Find("quantile") == nullptr) continue;
      auto& [values, samples] = tails[tail->GetNumber("quantile")];
      values.push_back(tail->GetNumber("op_ms"));
      samples += tail->GetInt("samples");
    }
    for (const auto& [quantile, group] : tails) {
      std::printf("  tail: p%-4g %12.4f ms   (median of %zu runs, %lld ops)\n",
                  100 * quantile, Quantile(group.first, 0.5),
                  group.first.size(), static_cast<long long>(group.second));
    }
    if (traced.empty()) continue;
    for (const MetricSpec& spec : LayerMetrics()) {
      Summary layer = Summarize(Values(traced, "per_layer", spec.name));
      if (layer.median == 0) continue;
      std::printf("    %-40s %12.4f %s\n", spec.name.c_str(), layer.median,
                  spec.unit.c_str());
    }
  }
  if (failed_runs > 0) {
    std::printf("\n%d run(s) reported failures\n", failed_runs);
    return 1;
  }
  return 0;
}

int Compare(const std::string& base_dir, const std::string& new_dir) {
  Json benchmark = LoadBenchmarkJson();
  ResultSet base = LoadSet(base_dir);
  ResultSet next = LoadSet(new_dir);
  const Json& reference = base.headers.front();
  // Runs are comparable only on as many CPUs, with the same benchmark and
  // build type, over as many seconds and the same database design per
  // workload.
  std::map<std::string, std::string> designs;
  for (const ResultSet* set : {&base, &next}) {
    for (const Json& header : set->headers) {
      auto [it, fresh] = designs.emplace(header.GetString("workload"),
                                         header.GetString("design"));
      if (header.GetInt("nproc") != reference.GetInt("nproc") ||
          header.GetString("bench_hash") !=
              reference.GetString("bench_hash") ||
          header.GetString("build_type") !=
              reference.GetString("build_type") ||
          header.GetNumber("seconds") != reference.GetNumber("seconds") ||
          (!fresh && it->second != header.GetString("design"))) {
        std::fprintf(stderr,
                     "compare: refusing — the sets differ in nproc, "
                     "benchmark hash, build type, run seconds or database "
                     "design\n");
        return 2;
      }
    }
  }
  std::printf("base %s (git %s)\nnew  %s (git %s)\n\n", base_dir.c_str(),
              reference.GetString("git_sha").c_str(), new_dir.c_str(),
              next.headers.front().GetString("git_sha").c_str());
  std::printf("%-15s %-12s %12s %12s %8s %7s  %s\n", "workload", "metric",
              "base", "new", "delta", "bound", "verdict");
  int regressions = 0;
  for (const std::string& workload : WorkloadNames()) {
    const auto& old_runs = base.runs[{workload, false}];
    const auto& new_runs = next.runs[{workload, false}];
    if (old_runs.empty() || new_runs.empty()) continue;
    for (const Json& metric : benchmark.Find("end_to_end")->array()) {
      const std::string name = metric.GetString("name");
      const bool lower = metric.GetString("better") == "lower";
      const double bound = metric.GetNumber("bound");
      std::vector<double> old_values = Values(old_runs, "end_to_end", name);
      std::vector<double> new_values = Values(new_runs, "end_to_end", name);
      Summary a = Summarize(old_values);
      Summary b = Summarize(new_values);
      double delta = a.median != 0 ? (b.median - a.median) / a.median : 0;
      double worse = lower ? delta : -delta;
      bool all_better =
          lower ? *std::max_element(new_values.begin(), new_values.end()) <
                      *std::min_element(old_values.begin(), old_values.end())
                : *std::min_element(new_values.begin(), new_values.end()) >
                      *std::max_element(old_values.begin(), old_values.end());
      const char* verdict = "same";
      if (std::max(a.Spread(), b.Spread()) > bound && !all_better) {
        verdict = "unresolved";
      } else if (worse > bound) {
        verdict = "REGRESSION";
        ++regressions;
      } else if (-worse > bound) {
        verdict = "better";
      }
      std::printf("%-15s %-12s %12.4f %12.4f %+7.1f%% %6.0f%%  %s\n",
                  workload.c_str(), name.c_str(), a.median, b.median,
                  100 * delta, 100 * bound, verdict);
      std::printf("%-28s [%.4f, %.4f] [%.4f, %.4f] n=%zu/%zu\n", "",
                  a.q1, a.q3, b.q1, b.q3, a.n, b.n);
    }
  }
  return regressions > 0 ? 1 : 0;
}

// ---------------------------------------------------------------------------
// set

int Set(const Flags& flags) {
  Json benchmark = LoadBenchmarkJson();
  const int runs = std::stoi(flags.Get("runs", "1"));
  const Json* run_seconds = benchmark.Find("run_seconds");
  if (run_seconds == nullptr || !run_seconds->IsNumber()) {
    throw BenchError("BENCHMARK.json has no run_seconds");
  }
  const std::string seconds = std::to_string(run_seconds->AsInt());
  std::string results = flags.Get("results", "");
  if (results.empty()) {
    char stamp[32];
    std::time_t now = std::time(nullptr);
    std::strftime(stamp, sizeof(stamp), "%Y%m%d-%H%M%S",
                  std::localtime(&now));
    results = std::string(DBRE_E2E_BUILD_DIR) + "/results/" + stamp;
  }
  const std::string self = fs::read_symlink("/proc/self/exe").string();
  int failures = 0;
  for (const std::string& workload : WorkloadNames()) {
    for (int run = 0; run <= runs; ++run) {
      const bool trace = run == runs;
      const std::string seed = std::to_string(trace ? 1 : run + 1);
      SpawnOptions options;
      options.inherit_stderr = true;
      Child child({self, "run", "--workload", workload, "--seed", seed,
                   "--seconds", seconds, "--trace", trace ? "1" : "0",
                   "--results", results},
                  options);
      int status = child.Wait(600);
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) ++failures;
    }
  }
  std::printf("results in %s\n", results.c_str());
  int reported = Report(results);
  return failures > 0 || reported != 0 ? 1 : 0;
}

int Main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "dbre_bench: refusing to measure a build without NDEBUG; "
               "configure with -DCMAKE_BUILD_TYPE=Release\n");
  return 2;
#endif
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: dbre_bench run|set|report|compare ... "
                 "(see bench/e2e/README.md)\n");
    return 2;
  }
  const std::string command = argv[1];
  if (command == "run") {
    return Run(ParseFlags(argc, argv, 2,
                          {"workload", "seed", "seconds", "trace", "results"}));
  }
  if (command == "set") {
    return Set(ParseFlags(argc, argv, 2, {"runs", "results"}));
  }
  if (command == "report" && argc == 3) return Report(argv[2]);
  if (command == "compare" && argc == 4) return Compare(argv[2], argv[3]);
  std::fprintf(stderr, "dbre_bench: unknown command '%s'\n", command.c_str());
  return 2;
}

}  // namespace
}  // namespace dbre::e2e

int main(int argc, char** argv) {
  try {
    return dbre::e2e::Main(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "dbre_bench: %s\n", error.what());
    return 1;
  }
}
