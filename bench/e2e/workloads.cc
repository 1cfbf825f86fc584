#include "workloads.h"

#include <sys/wait.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <utility>

#include "core/oracle.h"
#include "core/pipeline.h"
#include "core/report_json.h"
#include "harness.h"
#include "relational/csv.h"
#include "service/protocol.h"
#include "sql/ddl_writer.h"
#include "workload/generator.h"
#include "workload/paper_example.h"

namespace dbre::e2e {
namespace fs = std::filesystem;
namespace {

// Sizes. One run — three set-ups, the timed loop and the checks — ends
// well inside three minutes, and a full measurement of 92 runs inside an
// hour (README.md, "Sizes").
constexpr int kSetupRepetitions = 3;
constexpr size_t kMaxLineBytes = 8u << 20;  // the protocol's line cap

// Designs are fixed per workload (GenerateWithFixedDesign), which keeps the
// design space small enough to search: 4 entities and 2 merged ones draw
// one of 864 designs. Every pipeline_cold run spends three set-up passes
// besides its timed ones, so the dump's size is bounded by the hour.
constexpr size_t kColdEntities = 4;
constexpr size_t kColdMerged = 2;
constexpr size_t kColdRows = 200'000;

constexpr int kPaperClients = 4;
constexpr int kFleetWorkers = 2;

// mutate_watch and recover_paged databases: 3 entities, 1 merged away.
constexpr size_t kServiceEntities = 3;
constexpr size_t kServiceMerged = 1;

constexpr size_t kWatchRows = 10'000;
constexpr int kWatchWarmupRounds = 10;
constexpr int kWatchUpdateRows = 1000;
constexpr int kWatchBreakEvery = 10;

constexpr int kRecoverSessions = 8;
constexpr size_t kRecoverRows = 20'000;
constexpr int kRecoverPoolMb = 4;  // the data dir holds ~14 MB

constexpr int kProbeRequests = 200;
constexpr int kProbeTrack = 90;  // pinned passes and the router probe
constexpr int kSetupTrack = 99;

constexpr const char* kPhases[] = {"ind_discovery", "lhs_discovery",
                                   "rhs_discovery", "restruct", "translate"};

// Commands whose client round trip is a per-layer metric.
constexpr const char* kTimedCommands[] = {
    "create", "load_csv", "run",   "wait",   "questions",
    "answer", "report",   "close", "mutate", "watch"};

// ---------------------------------------------------------------------------
// Inputs.

struct Inputs {
  std::string ddl;
  std::vector<std::pair<std::string, std::string>> csvs;  // relation, text
  std::vector<EquiJoin> joins;
  std::vector<FunctionalDependency> fds;  // ground truth: merged entities
  std::string design;
};

Inputs CatalogInputs(const Database& database) {
  Inputs inputs;
  inputs.ddl = sql::WriteDdl(database);
  for (const std::string& relation : database.RelationNames()) {
    auto table = database.GetTable(relation);
    if (!table.ok()) throw BenchError(table.status().ToString());
    inputs.csvs.emplace_back(relation, WriteCsvText(**table));
  }
  return inputs;
}

workload::SyntheticDatabase Generate(size_t entities, size_t merged,
                                     size_t rows, uint64_t seed) {
  workload::SyntheticSpec spec;
  spec.num_entities = entities;
  spec.num_merged = merged;
  spec.rows_per_entity = rows;
  spec.seed = seed;
  auto generated = workload::GenerateSynthetic(spec);
  if (!generated.ok()) throw BenchError(generated.status().ToString());
  return std::move(generated).value();
}

// The design a generated database denormalizes: its links and merged FDs.
std::string DesignOf(const workload::SyntheticDatabase& database) {
  std::string design;
  for (const InclusionDependency& ind : database.true_inds) {
    design += ind.ToString() + "; ";
  }
  for (const FunctionalDependency& fd : database.true_fds) {
    design += fd.ToString() + "; ";
  }
  return design;
}

// The benchmark seed draws a database's extension, not its design. The
// generator's own seed also decides which relation references which and
// where merged entities land, and different designs cost different
// amounts of work — so every run of a workload uses the design the
// generator's default seed (42) draws, with rows from a seed derived from
// the benchmark seed. The generator draws the design before any row, so a
// one-row generation shows a seed's design; the full database is checked.
workload::SyntheticDatabase GenerateWithFixedDesign(size_t entities,
                                                    size_t merged, size_t rows,
                                                    uint64_t seed) {
  const std::string design = DesignOf(Generate(entities, merged, 1, 42));
  std::mt19937_64 candidates(seed);
  for (int attempt = 0; attempt < 1'000'000; ++attempt) {
    uint64_t candidate = candidates();
    if (DesignOf(Generate(entities, merged, 1, candidate)) != design) {
      continue;
    }
    workload::SyntheticDatabase database =
        Generate(entities, merged, rows, candidate);
    if (DesignOf(database) != design) {
      throw BenchError("the generator's design depends on the row count");
    }
    return database;
  }
  throw BenchError("no generator seed draws the fixed design");
}

Inputs SyntheticInputs(size_t entities, size_t merged, size_t rows,
                       uint64_t seed) {
  workload::SyntheticDatabase generated =
      GenerateWithFixedDesign(entities, merged, rows, seed);
  Inputs inputs = CatalogInputs(generated.database);
  inputs.joins = generated.queries;
  inputs.fds = generated.true_fds;
  inputs.design = DesignOf(generated);
  return inputs;
}

double CsvMb(const Inputs& inputs) {
  double bytes = 0;
  for (const auto& [relation, csv] : inputs.csvs) bytes += csv.size();
  return bytes / (1 << 20);
}

double DirectoryMb(const std::string& dir) {
  double bytes = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes / (1 << 20);
}

// ---------------------------------------------------------------------------
// Wire helpers.

std::vector<std::string> Strings(const Json* array) {
  std::vector<std::string> out;
  if (array == nullptr) return out;
  for (const Json& element : array->array()) out.push_back(element.AsString());
  return out;
}

void LoadDatabase(Connection& client, const std::string& session,
                  const Inputs& inputs) {
  Json ddl = Command("load_ddl", session);
  ddl.Set("sql", Json::Str(inputs.ddl));
  client.Must(std::move(ddl));
  for (const auto& [relation, csv] : inputs.csvs) {
    if (csv.size() + 4096 > kMaxLineBytes) {
      throw BenchError(relation + " is too large for one load_csv line");
    }
    Json load = Command("load_csv", session);
    load.Set("relation", Json::Str(relation));
    load.Set("csv", Json::Str(csv));
    client.Must(std::move(load));
  }
  if (inputs.joins.empty()) return;
  Json joins = Json::MakeArray();
  for (const EquiJoin& join : inputs.joins) {
    joins.Append(service::JoinToJson(join));
  }
  Json add = Command("add_joins", session);
  add.Set("joins", std::move(joins));
  client.Must(std::move(add));
}

Json RunCommand(const std::string& session, const char* oracle) {
  Json run = Command("run", session);
  run.Set("oracle", Json::Str(oracle));
  return run;
}

// Blocks until `session` reaches `done`; throws if it fails.
void WaitDone(Connection& client, const std::string& session) {
  while (true) {
    Json wait = Command("wait", session);
    wait.Set("for", Json::Str("finished"));
    wait.Set("timeout_ms", Json::Int(30'000));
    std::string state = client.Must(std::move(wait)).GetString("state");
    if (state == "done") return;
    if (state == "failed" || state == "closed") {
      throw BenchError("session " + session + " ended " + state);
    }
  }
}

std::string FetchReport(Connection& client, const std::string& session) {
  return client.Must(Command("report", session)).GetString("report");
}

// Turns a protocol question back into the ExpertOracle call it stands for
// and returns the answer fields `expert` chooses — so a wire client decides
// exactly as the in-process reference run did.
Json AnswerParams(ExpertOracle* expert, const Json& question) {
  Json params = Json::MakeObject();
  const std::string kind = question.GetString("kind");
  if (kind == "nei") {
    const Json* join_json = question.Find("join");
    const Json* counts_json = question.Find("counts");
    if (join_json == nullptr || counts_json == nullptr) {
      throw BenchError("nei question without context");
    }
    auto join = service::ParseJoin(*join_json);
    if (!join.ok()) throw BenchError(join.status().ToString());
    JoinCounts counts;
    counts.n_left = static_cast<size_t>(counts_json->GetInt("left"));
    counts.n_right = static_cast<size_t>(counts_json->GetInt("right"));
    counts.n_join = static_cast<size_t>(counts_json->GetInt("join"));
    NeiDecision decision = expert->DecideNonEmptyIntersection(*join, counts);
    static constexpr const char* kActions[] = {"conceptualize", "force_left",
                                               "force_right", "ignore"};
    params.Set("action",
               Json::Str(kActions[static_cast<int>(decision.action)]));
    if (decision.action == NeiAction::kConceptualize &&
        !decision.relation_name.empty()) {
      params.Set("name", Json::Str(decision.relation_name));
    }
    return params;
  }
  if (kind == "enforce_fd" || kind == "validate_fd" || kind == "name_fd") {
    const Json* fd_json = question.Find("fd");
    if (fd_json == nullptr) throw BenchError(kind + " question without fd");
    FunctionalDependency fd(fd_json->GetString("relation"),
                            AttributeSet(Strings(fd_json->Find("lhs"))),
                            AttributeSet(Strings(fd_json->Find("rhs"))));
    if (kind == "enforce_fd") {
      const Json* g3 = question.Find("g3_error");
      params.Set("value", Json::Bool(g3 != nullptr
                                         ? expert->EnforceFailedFd(
                                               fd, g3->AsNumber())
                                         : expert->EnforceFailedFd(fd)));
    } else if (kind == "validate_fd") {
      params.Set("value", Json::Bool(expert->ValidateFd(fd)));
    } else {
      params.Set("name", Json::Str(expert->NameRelationForFd(fd)));
    }
    return params;
  }
  const Json* candidate_json = question.Find("candidate");
  if (candidate_json == nullptr) {
    throw BenchError("unknown question kind '" + kind + "'");
  }
  QualifiedAttributes candidate{
      candidate_json->GetString("relation"),
      AttributeSet(Strings(candidate_json->Find("attributes")))};
  if (kind == "hidden_object") {
    params.Set("value",
               Json::Bool(expert->ConceptualizeHiddenObject(candidate)));
  } else if (kind == "name_hidden") {
    params.Set("name",
               Json::Str(expert->NameHiddenObjectRelation(candidate)));
  } else {
    throw BenchError("unknown question kind '" + kind + "'");
  }
  return params;
}

// ---------------------------------------------------------------------------
// Processes under test.

SpawnOptions DaemonOptions(const std::string& log) {
  SpawnOptions options;
  options.stderr_path = log;
  options.read_port = true;
  return options;
}

// Workers sharing one data dir behind a router — the served deployment.
// The flush policy is stated, not inherited: --fsync-batch 8.
class Fleet {
 public:
  Fleet(const std::string& dir, int workers) {
    const std::string data = dir + "/data";
    fs::create_directories(data);
    std::vector<std::string> router_args = {DBRE_ROUTER_BINARY, "--port",
                                            "0"};
    for (int i = 1; i <= workers; ++i) {
      std::string id = std::to_string(i);
      id.insert(0, 1, 'w');
      workers_.emplace_back(
          std::vector<std::string>{DBRE_SERVE_BINARY, "--port", "0",
                                   "--worker-id", id, "--data-dir", data,
                                   "--fsync-batch", "8"},
          DaemonOptions(dir + "/" + id + ".log"));
      ids_.push_back(id);
      router_args.push_back("--worker");
      router_args.push_back(id + "=127.0.0.1:" +
                            std::to_string(workers_.back().port()));
    }
    router_ = Child(router_args, DaemonOptions(dir + "/router.log"));
  }

  uint16_t port() const { return router_.port(); }

  uint16_t WorkerPort(const std::string& id) const {
    for (size_t i = 0; i < ids_.size(); ++i) {
      if (ids_[i] == id) return workers_[i].port();
    }
    throw BenchError("no worker '" + id + "'");
  }

  // Sum of the workers' registries.
  MetricPage ScrapeWorkers() const {
    MetricPage total;
    for (const Child& worker : workers_) {
      Accumulate(&total, ScrapeMetrics(worker.port()));
    }
    return total;
  }

  // What the long-lived fleet holds resident now.
  double RssMb() const {
    double total = router_.MemoryMb("VmRSS:");
    for (const Child& worker : workers_) total += worker.MemoryMb("VmRSS:");
    return total;
  }

 private:
  std::vector<std::string> ids_;
  std::vector<Child> workers_;
  Child router_;
};

// Median status round trip through the router minus the same request
// sent straight to the owning worker, interleaved (us).
double ForwardOverheadUs(const Fleet& fleet, Tracer* tracer) {
  Connection routed(fleet.port(), tracer, kProbeTrack);
  Json create = Command("create");
  create.Set("name", Json::Str("forward-probe"));
  std::string session = routed.Must(std::move(create)).GetString("session");
  std::string worker =
      routed.Must(Command("route", session)).GetString("worker");
  Connection direct(fleet.WorkerPort(worker));
  std::vector<double> via_router;
  std::vector<double> straight;
  for (int i = 0; i < kProbeRequests; ++i) {
    Clock::time_point start = Clock::now();
    routed.Must(Command("status", session));
    via_router.push_back(SecondsSince(start) * 1e6);
    start = Clock::now();
    direct.Must(Command("status", session));
    straight.push_back(SecondsSince(start) * 1e6);
  }
  routed.Must(Command("close", session));
  return Quantile(via_router, 0.5) - Quantile(straight, 0.5);
}

// ---------------------------------------------------------------------------
// Per-layer metrics from registry deltas and spans.

double Ratio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0;
}

double SumSeries(const MetricPage& page, const std::string& family) {
  double total = 0;
  for (const auto& [series, value] : page) {
    if (series.rfind(family + "{", 0) == 0) total += value;
  }
  return total;
}

double HistogramMean(const MetricPage& page, const std::string& name) {
  return Ratio(Value(page, name + "_sum"), Value(page, name + "_count"));
}

// Layers read from the service's own registry over the timed loop. `ops`
// is the number of timed operations, for per-op normalization.
void RegistryLayers(const MetricPage& delta, double ops,
                    std::map<std::string, double>* layers) {
  for (const char* phase : kPhases) {
    std::string series = std::string("{phase=\"") + phase + "\"}";
    (*layers)[std::string("core.") + phase + "_ms"] =
        Ratio(Value(delta, "dbre_pipeline_phase_us_sum" + series),
              Value(delta, "dbre_pipeline_phase_us_count" + series)) /
        1000;
  }
  double hits = SumSeries(delta, "dbre_query_cache_hits_total");
  double misses = SumSeries(delta, "dbre_query_cache_misses_total");
  (*layers)["relational.query_cache_hit_ratio"] = Ratio(hits, hits + misses);
  (*layers)["relational.intern_hit_ratio"] =
      Ratio(Value(delta, "dbre_extension_intern_hits_total"),
            Value(delta, "dbre_extension_intern_lookups_total"));
  (*layers)["service.oracle_wait_mean_us"] =
      HistogramMean(delta, "dbre_oracle_wait_us");
  (*layers)["store.journal_fsync_mean_us"] =
      HistogramMean(delta, "dbre_journal_fsync_us");
  (*layers)["store.journal_bytes_per_op"] =
      Ratio(Value(delta, "dbre_journal_bytes_total"), ops);
  double page_hits = Value(delta, "dbre_pagestore_hits_total");
  double page_misses = Value(delta, "dbre_pagestore_misses_total");
  (*layers)["pagestore.hit_ratio"] =
      Ratio(page_hits, page_hits + page_misses);
  (*layers)["pagestore.evictions_per_op"] =
      Ratio(Value(delta, "dbre_pagestore_evictions_total"), ops);
  (*layers)["pagestore.bytes_read_mb_per_op"] =
      Ratio(Value(delta, "dbre_pagestore_bytes_read_total") / (1 << 20), ops);
  (*layers)["pagestore.read_mean_us"] =
      HistogramMean(delta, "dbre_pagestore_read_us");
}

// Client round trips per command, and ingest time per loaded database.
void SpanLayers(const Tracer& tracer, std::map<std::string, double>* layers) {
  for (const char* cmd : kTimedCommands) {
    (*layers)[std::string("service.rtt_p50_us.") + cmd] = tracer.MedianUs(cmd);
  }
  double load_us = 0;
  double databases = 0;
  for (const Tracer::Span& span : tracer.spans()) {
    if (span.name == "load_ddl" || span.name == "load_csv") {
      load_us += span.dur_us;
    }
    if (span.name == "load_ddl") ++databases;
  }
  (*layers)["relational.ingest_ms"] = Ratio(load_us, databases) / 1000;
}

double Mean(const std::vector<double>& values) {
  double sum = 0;
  for (double value : values) sum += value;
  return Ratio(sum, static_cast<double>(values.size()));
}

// ---------------------------------------------------------------------------
// Workloads.

class Workload {
 public:
  Workload(const RunConfig& config, Outcome* out, Tracer* tracer)
      : config_(config), out_(out), tracer_(tracer) {}
  virtual ~Workload() = default;

  // Brings the system from nothing to ready for the first timed op, in the
  // empty directory `dir`; replaces whatever the previous Setup started.
  virtual void Setup(const std::string& dir) = 0;
  // Times operations until `deadline`; fills op_ms, window_s and rss_mb.
  virtual void Loop(Clock::time_point deadline) = 0;
  // End-of-run correctness checks and, when traced, per-layer metrics.
  virtual void Finish() {}

 protected:
  void Fail(const std::string& what) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++out_->failed;
    if (out_->errors.size() < 8) out_->errors.push_back(what);
  }

  const RunConfig& config_;
  Outcome* out_;
  Tracer* tracer_;  // null in untraced runs
  std::mutex mutex_;
};

// pipeline_cold: whole cold dbre_cli passes over a seeded dump. The batch
// user's path: CSV ingest, program scan and the five phases, no service.
class PipelineCold : public Workload {
 public:
  // Writes the dump once, untimed: dictionary DDL, one CSV per relation,
  // the programs. Only the shipped program's passes are timed.
  PipelineCold(const RunConfig& config, Outcome* out, Tracer* tracer)
      : Workload(config, out, tracer), dump_(config.work_dir + "/dump") {
    workload::SyntheticDatabase generated = GenerateWithFixedDesign(
        kColdEntities, kColdMerged, kColdRows, config.seed);
    out_->design = DesignOf(generated);
    fs::create_directories(dump_ + "/data");
    fs::create_directories(dump_ + "/programs");
    WriteText(dump_ + "/schema.sql", sql::WriteDdl(generated.database));
    if (auto written = ExportDatabaseCsv(generated.database, dump_ + "/data");
        !written.ok()) {
      throw BenchError(written.status().ToString());
    }
    for (const auto& [name, source] : generated.program_sources) {
      programs_.push_back("programs/" + name);
      WriteText(dump_ + "/" + programs_.back(), source);
    }
    out_->counts["csv_mb"] = DirectoryMb(dump_ + "/data");
    out_->counts["rows"] = static_cast<double>(
        kColdRows * generated.database.RelationNames().size());
  }

  // A first cold pass writing into `dir`; the first one's report is the
  // reference every later pass must reproduce.
  void Setup(const std::string& dir) override {
    out_dir_ = dir;
    RunPass(0, kSetupTrack);
  }

  void Loop(Clock::time_point deadline) override {
    Clock::time_point begin = Clock::now();
    Clock::time_point end = begin;
    while (Clock::now() < deadline) {
      ++out_->attempted;
      try {
        Tracer::Scope op(tracer_, "pass", 0);
        Pass pass = RunPass(0, 0);
        out_->op_ms.push_back(pass.wall_ms);
        out_->rss_mb.push_back(pass.rss_mb);
        passes_.push_back(pass);
      } catch (const BenchError& error) {
        Fail(error.what());
        break;
      }
      end = Clock::now();
    }
    out_->window_s = std::chrono::duration<double>(end - begin).count();
    out_->counts["passes"] = static_cast<double>(passes_.size());
  }

  void Finish() override {
    if (tracer_ == nullptr || passes_.empty()) return;
    auto& layers = out_->layers;
    // Everything in a pass outside the five phases — process start, CSV
    // parse, program scan, output writes — is ingest.
    std::map<std::string, std::vector<double>> phase_ms;
    std::vector<double> wall;
    std::vector<double> ingest;
    for (const Pass& pass : passes_) {
      double phases = 0;
      for (const auto& [phase, ms] : pass.phase_ms) {
        phase_ms[phase].push_back(ms);
        phases += ms;
      }
      wall.push_back(pass.wall_ms);
      ingest.push_back(pass.wall_ms - phases);
    }
    for (const auto& [phase, ms] : phase_ms) {
      layers["core." + phase + "_ms"] = Mean(ms);
    }
    layers["relational.ingest_ms"] = Mean(ingest);

    // The thread-pool ladder: the same pass pinned to one and two CPUs,
    // against the unpinned loop.
    ++out_->attempted;
    try {
      Pass one = RunPass(1, kProbeTrack);
      Pass two = RunPass(2, kProbeTrack);
      layers["common.parallel_speedup.pipeline"] =
          Ratio(one.wall_ms, Quantile(wall, 0.5));
      layers["common.parallel_speedup.ind_discovery"] =
          Ratio(one.phase_ms.at("ind_discovery"),
                Quantile(phase_ms["ind_discovery"], 0.5));
      layers["common.parallel_speedup.rhs_discovery"] =
          Ratio(one.phase_ms.at("rhs_discovery"),
                Quantile(phase_ms["rhs_discovery"], 0.5));
      layers["common.parallel_speedup_2cpu.pipeline"] =
          Ratio(one.wall_ms, two.wall_ms);
    } catch (const BenchError& error) {
      Fail(std::string("pinned pass: ") + error.what());
    }
  }

 private:
  struct Pass {
    double wall_ms = 0;
    double rss_mb = 0;
    std::map<std::string, double> phase_ms;
  };

  // One cold dbre_cli process over the dump, `cpus` > 0 pinning it. Its
  // report must equal the first pass's, timings aside.
  Pass RunPass(int cpus, int track) {
    std::vector<std::string> argv = {DBRE_CLI_BINARY, "--ddl", "schema.sql",
                                     "--data", "data", "--json",
                                     "--out-prefix", out_dir_ + "/pass",
                                     "--programs"};
    argv.insert(argv.end(), programs_.begin(), programs_.end());
    SpawnOptions options;
    options.cwd = dump_;
    options.stderr_path = out_dir_ + "/cli.log";
    options.cpus = cpus;
    const std::string report_path = out_dir_ + "/pass_report.json";
    fs::remove(report_path);
    Pass pass;
    {
      Tracer::Scope span(tracer_, "cli", track);
      Clock::time_point start = Clock::now();
      Child cli(argv, options);
      int status = cli.Wait(170, &pass.rss_mb);
      pass.wall_ms = SecondsSince(start) * 1000;
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        throw BenchError("dbre_cli failed with wait status " +
                         std::to_string(status));
      }
    }
    Tracer::Scope span(tracer_, "verify", track);
    auto parsed = Json::Parse(ReadText(report_path));
    if (!parsed.ok() || !parsed->IsObject()) {
      throw BenchError("dbre_cli wrote an unparseable report");
    }
    Json report = Json::MakeObject();
    for (const auto& [key, value] : parsed->object()) {
      if (key != "timings_us") report.Set(key, value);
    }
    const Json* timings = parsed->Find("timings_us");
    for (const char* phase : kPhases) {
      pass.phase_ms[phase] =
          timings != nullptr ? timings->GetNumber(phase) / 1000 : 0;
    }
    std::string text = report.Dump();
    if (reference_.empty()) reference_ = text;
    if (text != reference_) Fail("report differs from the first pass's");
    return pass;
  }

  const std::string dump_;  // the dump every pass reads (its cwd)
  std::string out_dir_;     // where passes write, the last Setup's dir
  std::vector<std::string> programs_;  // relative to dump_
  std::string reference_;
  std::vector<Pass> passes_;
};

// paper_sessions: clients repeatedly run the paper's expert session
// through dbre_router. The interactive path: transport, router, journal
// and oracle round trips over tiny shared data.
class PaperSessions : public Workload {
 public:
  PaperSessions(const RunConfig& config, Outcome* out, Tracer* tracer)
      : Workload(config, out, tracer) {
    auto database = workload::BuildPaperDatabase();
    if (!database.ok()) throw BenchError(database.status().ToString());
    inputs_ = CatalogInputs(*database);
    inputs_.joins = workload::PaperJoinSet();
    auto oracle = workload::PaperOracle();
    auto report = RunPipeline(*database, inputs_.joins, oracle.get());
    if (!report.ok()) throw BenchError(report.status().ToString());
    JsonOptions options;
    options.include_timings = false;
    reference_ = ReportToJson(*report, options);
    out_->design = "the paper's example";
    out_->counts["csv_mb"] = CsvMb(inputs_);
  }

  // Fleet start, connections, and one warm-up session per client.
  void Setup(const std::string& dir) override {
    clients_.clear();
    fleet_.reset();
    fleet_ = std::make_unique<Fleet>(dir, kFleetWorkers);
    std::vector<double> unused;
    for (int k = 0; k < kPaperClients; ++k) {
      clients_.push_back(
          std::make_unique<Connection>(fleet_->port(), tracer_, k));
      RunSession(*clients_.back(), k, &unused);
    }
  }

  void Loop(Clock::time_point deadline) override {
    MetricPage before;
    if (tracer_ != nullptr) before = fleet_->ScrapeWorkers();
    Clock::time_point begin = Clock::now();
    Clock::time_point end = begin;
    std::vector<std::thread> threads;
    for (int k = 0; k < kPaperClients; ++k) {
      threads.emplace_back([&, k] {
        std::vector<double> ops;
        std::vector<double> rtts;
        size_t attempted = 0;
        Clock::time_point last = begin;
        while (Clock::now() < deadline) {
          ++attempted;
          try {
            Clock::time_point start = Clock::now();
            RunSession(*clients_[k], k, &rtts);
            last = Clock::now();
            ops.push_back(
                std::chrono::duration<double, std::milli>(last - start)
                    .count());
          } catch (const BenchError& error) {
            Fail(error.what());
            break;
          }
        }
        std::lock_guard<std::mutex> lock(mutex_);
        out_->attempted += attempted;
        out_->op_ms.insert(out_->op_ms.end(), ops.begin(), ops.end());
        question_us_.insert(question_us_.end(), rtts.begin(), rtts.end());
        end = std::max(end, last);
      });
    }
    for (std::thread& thread : threads) thread.join();
    out_->window_s = std::chrono::duration<double>(end - begin).count();
    out_->rss_mb.push_back(fleet_->RssMb());
    out_->counts["sessions"] = static_cast<double>(out_->op_ms.size());
    out_->counts["questions"] = static_cast<double>(question_us_.size());
    if (tracer_ != nullptr) delta_ = Subtract(fleet_->ScrapeWorkers(), before);
  }

  void Finish() override {
    if (tracer_ == nullptr) return;
    auto& layers = out_->layers;
    RegistryLayers(delta_, static_cast<double>(out_->op_ms.size()), &layers);
    SpanLayers(*tracer_, &layers);
    layers["service.question_rtt_p50_us"] = Quantile(question_us_, 0.5);
    layers["service.question_rtt_p99_us"] = Quantile(question_us_, 0.99);
    ++out_->attempted;
    try {
      layers["cluster.forward_overhead_p50_us"] =
          ForwardOverheadUs(*fleet_, tracer_);
    } catch (const BenchError& error) {
      Fail(std::string("router probe: ") + error.what());
    }
  }

 private:
  // create → DDL + CSV → joins → run → expert questions answered with the
  // paper's decisions → report (checked) → close.
  void RunSession(Connection& client, int track, std::vector<double>* rtts) {
    Tracer::Scope op(tracer_, "session", track);
    std::string session = client.Must(Command("create")).GetString("session");
    LoadDatabase(client, session, inputs_);
    client.Must(RunCommand(session, "async"));
    auto expert = workload::PaperOracle();
    while (true) {
      Json wait = Command("wait", session);
      wait.Set("for", Json::Str("question"));
      wait.Set("timeout_ms", Json::Int(10'000));
      Json waited = client.Must(std::move(wait));
      std::string state = waited.GetString("state");
      if (state == "done") break;
      if (state != "running") throw BenchError("session ended " + state);
      if (waited.GetInt("pending") == 0) continue;
      Clock::time_point asked = Clock::now();
      Json listed = client.Must(Command("questions", session));
      const Json* questions = listed.Find("questions");
      if (questions == nullptr || questions->array().empty()) continue;
      const Json& question = questions->array().front();
      Json answer = Command("answer", session);
      answer.Set("question", Json::Int(question.GetInt("qid")));
      Json params = AnswerParams(expert.get(), question);
      for (auto& [key, value] : params.object()) {
        answer.Set(key, std::move(value));
      }
      Json response = client.Call(std::move(answer));
      if (response.GetBool("ok")) {
        rtts->push_back(SecondsSince(asked) * 1e6);
      } else if (const Json* error = response.Find("error");
                 error == nullptr ||
                 error->GetString("code") != "failed_precondition") {
        throw BenchError("answer failed: " + response.Dump());
      }
    }
    bool same = FetchReport(client, session) == reference_;
    client.Must(Command("close", session));
    if (!same) {
      throw BenchError("report differs from the in-process reference");
    }
  }

  Inputs inputs_;
  std::string reference_;
  std::unique_ptr<Fleet> fleet_;
  std::vector<std::unique_ptr<Connection>> clients_;
  std::vector<double> question_us_;  // guarded by mutex_ during the loop
  MetricPage delta_;
};

// mutate_watch: one live session through the router takes a DML batch per
// round and streams the re-validated presumption diff. The write path:
// DML, journal, incremental query-cache maintenance.
class MutateWatch : public Workload {
 public:
  MutateWatch(const RunConfig& config, Outcome* out, Tracer* tracer)
      : Workload(config, out, tracer),
        inputs_(SyntheticInputs(kServiceEntities, kServiceMerged, kWatchRows,
                                config.seed)) {
    // The merged entity's FD host: m_id → payload is what a break round
    // violates on one row and the next round repairs.
    if (inputs_.fds.empty()) throw BenchError("generator planted no FD");
    const FunctionalDependency& fd = inputs_.fds.front();
    host_ = fd.relation;
    std::string entity = host_;  // E3 → e3
    entity[0] = 'e';
    key_column_ = entity + "_id";
    update_column_ = entity + "_p0";
    fd_column_ = fd.rhs.names().front();
    FindBreakRows(fd.lhs.names().front());
    out_->design = inputs_.design;
    out_->counts["csv_mb"] = CsvMb(inputs_);
  }

  // Fleet start, the session loaded and run once, then warm-up rounds.
  void Setup(const std::string& dir) override {
    client_.reset();
    fleet_.reset();
    fleet_ = std::make_unique<Fleet>(dir, kFleetWorkers);
    client_ = std::make_unique<Connection>(fleet_->port(), tracer_, 0);
    scripts_.clear();
    cursor_ = 0;
    Json create = Command("create");
    create.Set("name", Json::Str("watched"));
    session_ = client_->Must(std::move(create)).GetString("session");
    LoadDatabase(*client_, session_, inputs_);
    client_->Must(RunCommand(session_, "default"));
    AwaitReport();
    for (int round = 0; round < kWatchWarmupRounds; ++round) Round(round);
  }

  void Loop(Clock::time_point deadline) override {
    MetricPage before;
    if (tracer_ != nullptr) before = fleet_->ScrapeWorkers();
    rerun_ms_.clear();  // only the timed rounds
    Clock::time_point begin = Clock::now();
    Clock::time_point end = begin;
    for (int round = kWatchWarmupRounds; Clock::now() < deadline; ++round) {
      ++out_->attempted;
      try {
        Tracer::Scope op(tracer_, "round", 0);
        Clock::time_point start = Clock::now();
        bool changed = Round(round);
        end = Clock::now();
        out_->op_ms.push_back(
            std::chrono::duration<double, std::milli>(end - start).count());
        bool expected = Breaks(round) || Repairs(round);
        changed_ += changed ? 1 : 0;
        expected_changed_ += expected ? 1 : 0;
        if (changed != expected) {
          Fail("round " + std::to_string(round) + ": diff " +
               (changed ? "non-empty" : "empty") + ", expected otherwise");
        }
      } catch (const BenchError& error) {
        Fail(error.what());
        break;
      }
    }
    out_->window_s = std::chrono::duration<double>(end - begin).count();
    out_->rss_mb.push_back(fleet_->RssMb());
    out_->counts["rounds"] = static_cast<double>(out_->op_ms.size());
    out_->counts["changed_diffs"] = changed_;
    if (tracer_ != nullptr) delta_ = Subtract(fleet_->ScrapeWorkers(), before);
  }

  void Finish() override {
    ++out_->attempted;
    if (changed_ != expected_changed_) {
      Fail(std::to_string(changed_) + " non-empty diffs, " +
           std::to_string(expected_changed_) + " seeded breaks and repairs");
    }
    ++out_->attempted;
    try {
      CheckAgainstReplay();
    } catch (const BenchError& error) {
      Fail(std::string("replay: ") + error.what());
    }
    if (tracer_ == nullptr) return;
    auto& layers = out_->layers;
    RegistryLayers(delta_, static_cast<double>(out_->op_ms.size()), &layers);
    SpanLayers(*tracer_, &layers);
    double phases_ms = 0;
    for (const char* phase : kPhases) {
      phases_ms += layers[std::string("core.") + phase + "_ms"];
    }
    layers["service.rerun_outside_phases_ms"] = Mean(rerun_ms_) - phases_ms;
    ++out_->attempted;
    try {
      layers["cluster.forward_overhead_p50_us"] =
          ForwardOverheadUs(*fleet_, tracer_);
    } catch (const BenchError& error) {
      Fail(std::string("router probe: ") + error.what());
    }
  }

 private:
  static bool Breaks(int round) {
    return round % kWatchBreakEvery == kWatchBreakEvery - 1;
  }
  static bool Repairs(int round) {
    return round > 0 && round % kWatchBreakEvery == 0;
  }

  // Rows of the host whose merged id repeats, so changing one row's
  // payload breaks the FD — read from the CSV the session loads.
  void FindBreakRows(const std::string& id_column) {
    const std::string* csv = nullptr;
    for (const auto& [relation, text] : inputs_.csvs) {
      if (relation == host_) csv = &text;
    }
    if (csv == nullptr) throw BenchError("no CSV for " + host_);
    std::istringstream lines(*csv);
    std::string line;
    std::getline(lines, line);
    std::vector<std::string> header = SplitCsvLine(line);
    auto column = [&](const std::string& name) {
      auto it = std::find(header.begin(), header.end(), name);
      if (it == header.end()) throw BenchError(host_ + " has no " + name);
      return static_cast<size_t>(it - header.begin());
    };
    size_t key = column(key_column_);
    size_t id = column(id_column);
    size_t payload = column(fd_column_);
    std::vector<std::vector<std::string>> rows;
    std::unordered_map<std::string, int> id_count;
    while (std::getline(lines, line)) {
      if (line.empty()) continue;
      rows.push_back(SplitCsvLine(line));
      ++id_count[rows.back().at(id)];
    }
    for (const auto& row : rows) {
      if (id_count[row.at(id)] >= 2) {
        break_rows_.emplace_back(row.at(key), row.at(payload));
      }
    }
    if (break_rows_.empty()) throw BenchError("no repeated merged id");
  }

  static std::vector<std::string> SplitCsvLine(const std::string& line) {
    if (line.find('"') != std::string::npos) {
      throw BenchError("quoted CSV field in the host relation");
    }
    std::vector<std::string> fields;
    std::istringstream in(line);
    std::string field;
    while (std::getline(in, field, ',')) fields.push_back(field);
    return fields;
  }

  // The DML of `round`, a pure function of the seed and the round.
  std::string Script(int round) const {
    std::mt19937_64 rng(config_.seed * 1'000'003 + static_cast<uint64_t>(round));
    if (Breaks(round)) {
      const auto& [key, payload] = break_rows_[rng() % break_rows_.size()];
      return "UPDATE " + host_ + " SET " + fd_column_ + " = 'broken' WHERE " +
             key_column_ + " = " + key + ";";
    }
    if (Repairs(round)) {
      std::mt19937_64 previous(config_.seed * 1'000'003 +
                               static_cast<uint64_t>(round - 1));
      const auto& [key, payload] =
          break_rows_[previous() % break_rows_.size()];
      return "UPDATE " + host_ + " SET " + fd_column_ + " = '" + payload +
             "' WHERE " + key_column_ + " = " + key + ";";
    }
    uint64_t low = 1 + rng() % (kWatchRows - kWatchUpdateRows);
    return "UPDATE " + host_ + " SET " + update_column_ + " = 'u" +
           std::to_string(round) + "' WHERE " + key_column_ +
           " >= " + std::to_string(low) + " AND " + key_column_ + " < " +
           std::to_string(low + kWatchUpdateRows) + ";";
  }

  // mutate → run → watch until the report event; returns its `changed`.
  bool Round(int round) {
    std::string script = Script(round);
    Json mutate = Command("mutate", session_);
    mutate.Set("sql", Json::Str(script));
    client_->Must(std::move(mutate));
    scripts_.push_back(std::move(script));
    Clock::time_point run = Clock::now();
    client_->Must(RunCommand(session_, "default"));
    bool changed = AwaitReport();
    if (tracer_ != nullptr) rerun_ms_.push_back(SecondsSince(run) * 1000);
    return changed;
  }

  bool AwaitReport() {
    while (true) {
      Json watch = Command("watch", session_);
      watch.Set("after_seq", Json::Int(cursor_));
      watch.Set("timeout_ms", Json::Int(10'000));
      Json result = client_->Must(std::move(watch));
      cursor_ = result.GetInt("next_seq", cursor_);
      const Json* events = result.Find("events");
      if (events == nullptr) continue;
      for (const Json& event : events->array()) {
        std::string type = event.GetString("type");
        if (type == "run_failed") {
          throw BenchError("run failed: " + event.GetString("error"));
        }
        if (type == "report") return event.GetBool("changed");
      }
    }
  }

  // A fresh session fed the same rows and the same scripts — as one batch —
  // and run once must report exactly what the incrementally maintained
  // session reports.
  void CheckAgainstReplay() {
    std::string live = FetchReport(*client_, session_);
    Connection client(fleet_->port());
    Json create = Command("create");
    create.Set("name", Json::Str("replayed"));
    std::string session = client.Must(std::move(create)).GetString("session");
    LoadDatabase(client, session, inputs_);
    std::string batch;
    for (const std::string& script : scripts_) batch += script + "\n";
    if (batch.size() + 4096 > kMaxLineBytes) {
      throw BenchError("the replayed scripts exceed one request line");
    }
    Json mutate = Command("mutate", session);
    mutate.Set("sql", Json::Str(batch));
    client.Must(std::move(mutate));
    client.Must(RunCommand(session, "default"));
    WaitDone(client, session);
    bool same = FetchReport(client, session) == live;
    client.Must(Command("close", session));
    if (!same) throw BenchError("report differs from the live session's");
  }

  Inputs inputs_;
  std::string host_;
  std::string key_column_;
  std::string update_column_;
  std::string fd_column_;
  std::vector<std::pair<std::string, std::string>> break_rows_;  // key, payload

  std::unique_ptr<Fleet> fleet_;
  std::unique_ptr<Connection> client_;
  std::string session_;
  int64_t cursor_ = 0;
  std::vector<std::string> scripts_;  // every script applied, in order
  double changed_ = 0;
  double expected_changed_ = 0;
  std::vector<double> rerun_ms_;
  MetricPage delta_;
};

// recover_paged: a paged daemon whose snapshots exceed its buffer pool is
// SIGKILLed and restarted; it must recover every session to `done`. The
// only workload larger than the program's own cache, and the only one
// where no two sessions share data.
class RecoverPaged : public Workload {
 public:
  RecoverPaged(const RunConfig& config, Outcome* out, Tracer* tracer)
      : Workload(config, out, tracer) {
    for (int k = 0; k < kRecoverSessions; ++k) {
      inputs_.push_back(SyntheticInputs(kServiceEntities, kServiceMerged,
                                        kRecoverRows,
                                        config.seed * 1000 + k + 1));
      out_->counts["csv_mb"] += CsvMb(inputs_.back());
    }
    out_->counts["buffer_pool_mb"] = kRecoverPoolMb;
    out_->design = inputs_.front().design;
  }

  // Daemon start, every session loaded and run to done; their reports are
  // the references recovery must reproduce.
  void Setup(const std::string& dir) override {
    server_.Kill();
    dir_ = dir;
    server_ = Child(ServeArgs(), DaemonOptions(dir_ + "/serve.log"));
    Connection client(server_.port(), tracer_, 0);
    for (int k = 0; k < kRecoverSessions; ++k) {
      Json create = Command("create");
      create.Set("name", Json::Str(Name(k)));
      client.Must(std::move(create));
      LoadDatabase(client, Name(k), inputs_[k]);
      client.Must(RunCommand(Name(k), "default"));
    }
    references_.clear();
    for (int k = 0; k < kRecoverSessions; ++k) {
      WaitDone(client, Name(k));
      references_.push_back(FetchReport(client, Name(k)));
    }
    out_->counts["data_dir_mb"] = DirectoryMb(dir_ + "/data");
  }

  void Loop(Clock::time_point deadline) override {
    Clock::time_point begin = Clock::now();
    Clock::time_point end = begin;
    while (Clock::now() < deadline) {
      ++out_->attempted;
      try {
        Tracer::Scope op(tracer_, "restart", 0);
        {
          Tracer::Scope span(tracer_, "kill", 0);
          server_.Kill();
        }
        Clock::time_point start = Clock::now();
        {
          Tracer::Scope span(tracer_, "exec_to_port", 0);
          server_ = Child(ServeArgs(), DaemonOptions(dir_ + "/serve.log"));
        }
        open_ms_.push_back(SecondsSince(start) * 1000);
        Connection client(server_.port(), tracer_, 0);
        {
          Tracer::Scope span(tracer_, "port_to_done", 0);
          for (int k = 0; k < kRecoverSessions; ++k) {
            WaitDone(client, Name(k));
          }
        }
        end = Clock::now();
        out_->op_ms.push_back(
            std::chrono::duration<double, std::milli>(end - start).count());
        {
          Tracer::Scope span(tracer_, "verify", 0);
          for (int k = 0; k < kRecoverSessions; ++k) {
            if (FetchReport(client, Name(k)) != references_[k]) {
              Fail("session " + Name(k) + " recovered a different report");
            }
          }
          // The daemon's whole life is this recovery: its high-water mark.
          out_->rss_mb.push_back(server_.MemoryMb("VmHWM:"));
        }
        if (tracer_ != nullptr) {
          // A fresh process: its whole registry is this recovery's.
          Tracer::Scope span(tracer_, "scrape", 0);
          Accumulate(&registry_, ScrapeMetrics(server_.port()));
        }
      } catch (const BenchError& error) {
        Fail(error.what());
        break;
      }
    }
    out_->window_s = std::chrono::duration<double>(end - begin).count();
    out_->counts["restarts"] = static_cast<double>(out_->op_ms.size());
  }

  void Finish() override {
    if (tracer_ == nullptr) return;
    auto& layers = out_->layers;
    RegistryLayers(registry_, static_cast<double>(out_->op_ms.size()),
                   &layers);
    SpanLayers(*tracer_, &layers);
    layers["store.recover_open_ms"] = Mean(open_ms_);
  }

 private:
  static std::string Name(int k) { return "paged" + std::to_string(k); }

  std::vector<std::string> ServeArgs() const {
    return {DBRE_SERVE_BINARY,
            "--port",
            "0",
            "--data-dir",
            dir_ + "/data",
            "--buffer-pool-mb",
            std::to_string(kRecoverPoolMb),
            "--fsync-batch",
            "8"};
  }

  std::vector<Inputs> inputs_;
  std::string dir_;
  Child server_;
  std::vector<std::string> references_;
  std::vector<double> open_ms_;  // exec → port line, per restart
  MetricPage registry_;          // summed over the restarted daemons
};

std::unique_ptr<Workload> MakeWorkload(const RunConfig& config, Outcome* out,
                                       Tracer* tracer) {
  if (config.workload == "pipeline_cold") {
    return std::make_unique<PipelineCold>(config, out, tracer);
  }
  if (config.workload == "paper_sessions") {
    return std::make_unique<PaperSessions>(config, out, tracer);
  }
  if (config.workload == "mutate_watch") {
    return std::make_unique<MutateWatch>(config, out, tracer);
  }
  if (config.workload == "recover_paged") {
    return std::make_unique<RecoverPaged>(config, out, tracer);
  }
  throw BenchError("unknown workload '" + config.workload + "'");
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "pipeline_cold", "paper_sessions", "mutate_watch", "recover_paged"};
  return names;
}

const std::vector<MetricSpec>& LayerMetrics() {
  static const std::vector<MetricSpec> metrics = [] {
    std::vector<MetricSpec> list = {
        {"core.ind_discovery_ms", "ms"},
        {"core.lhs_discovery_ms", "ms"},
        {"core.rhs_discovery_ms", "ms"},
        {"core.restruct_ms", "ms"},
        {"core.translate_ms", "ms"},
        {"relational.ingest_ms", "ms"},
        {"relational.query_cache_hit_ratio", "ratio"},
        {"relational.intern_hit_ratio", "ratio"},
    };
    for (const char* cmd : kTimedCommands) {
      list.push_back({std::string("service.rtt_p50_us.") + cmd, "us"});
    }
    std::vector<MetricSpec> rest = {
        {"service.question_rtt_p50_us", "us"},
        {"service.question_rtt_p99_us", "us"},
        {"service.oracle_wait_mean_us", "us"},
        {"service.rerun_outside_phases_ms", "ms"},
        {"cluster.forward_overhead_p50_us", "us"},
        {"store.journal_fsync_mean_us", "us"},
        {"store.journal_bytes_per_op", "bytes"},
        {"store.recover_open_ms", "ms"},
        {"pagestore.hit_ratio", "ratio"},
        {"pagestore.evictions_per_op", "count"},
        {"pagestore.bytes_read_mb_per_op", "MB"},
        {"pagestore.read_mean_us", "us"},
        {"common.parallel_speedup.pipeline", "x"},
        {"common.parallel_speedup.ind_discovery", "x"},
        {"common.parallel_speedup.rhs_discovery", "x"},
        {"common.parallel_speedup_2cpu.pipeline", "x"},
        {"trace.coverage", "ratio"},
    };
    list.insert(list.end(), rest.begin(), rest.end());
    return list;
  }();
  return metrics;
}

Outcome RunWorkload(const RunConfig& config) {
  Outcome out;
  std::unique_ptr<Tracer> tracer =
      config.trace ? std::make_unique<Tracer>() : nullptr;
  std::unique_ptr<Workload> workload =
      MakeWorkload(config, &out, tracer.get());
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    std::string dir = config.work_dir + "/setup" + std::to_string(rep);
    fs::create_directories(dir);
    Clock::time_point start = Clock::now();
    {
      Tracer::Scope span(tracer.get(), "setup", kSetupTrack);
      workload->Setup(dir);
    }
    out.setup_s.push_back(SecondsSince(start));
  }
  out.counts["setup_repetitions"] = kSetupRepetitions;

  double loop_from = tracer != nullptr ? tracer->NowUs() : 0;
  workload->Loop(Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(
                                        config.seconds)));
  if (tracer != nullptr) {
    double coverage =
        tracer->Coverage(loop_from, tracer->NowUs(), 0, kPaperClients - 1);
    out.layers["trace.coverage"] = coverage;
    ++out.attempted;
    if (coverage < 0.9) {
      ++out.failed;
      out.errors.push_back("traced parts cover only " +
                           std::to_string(coverage * 100) + "% of the loop");
    }
  }
  workload->Finish();
  workload.reset();  // stops every process before the trace is written
  if (tracer != nullptr) tracer->WriteChromeTrace(config.trace_path);
  return out;
}

}  // namespace dbre::e2e
