// P5 — end-to-end pipeline cost and its per-phase breakdown as the
// database grows.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "core/pipeline.h"
#include "sql/dml.h"
#include "workload/generator.h"
#include "support/table_rows.h"

namespace {

using dbre::workload::GenerateSynthetic;
using dbre::workload::SyntheticDatabase;
using dbre::workload::SyntheticSpec;

const SyntheticDatabase& CachedDatabase(size_t rows) {
  static std::map<size_t, std::unique_ptr<SyntheticDatabase>> cache;
  auto it = cache.find(rows);
  if (it == cache.end()) {
    SyntheticSpec spec;
    spec.num_entities = 6;
    spec.num_merged = 3;
    spec.rows_per_entity = rows;
    spec.emit_program_sources = false;
    auto generated = GenerateSynthetic(spec);
    if (!generated.ok()) std::abort();
    it = cache.emplace(rows, std::make_unique<SyntheticDatabase>(
                                 std::move(generated).value()))
             .first;
  }
  return *it->second;
}

void BM_FullPipeline(benchmark::State& state) {
  const SyntheticDatabase& db =
      CachedDatabase(static_cast<size_t>(state.range(0)));
  dbre::ThresholdOracle::Options options;
  options.accept_hidden_objects = true;
  dbre::ThresholdOracle oracle(options);
  dbre::PhaseTimings timings;
  for (auto _ : state) {
    auto report = dbre::RunPipeline(db.database, db.queries, &oracle);
    if (!report.ok()) state.SkipWithError("pipeline failed");
    timings = report->timings;
    benchmark::DoNotOptimize(report);
  }
  state.counters["ind_us"] = static_cast<double>(timings.ind_discovery_us);
  state.counters["lhs_us"] = static_cast<double>(timings.lhs_discovery_us);
  state.counters["rhs_us"] = static_cast<double>(timings.rhs_discovery_us);
  state.counters["restruct_us"] = static_cast<double>(timings.restruct_us);
  state.counters["translate_us"] =
      static_cast<double>(timings.translate_us);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0) * 6);
}
BENCHMARK(BM_FullPipeline)
    ->Arg(500)
    ->Arg(2000)
    ->Arg(8000)
    ->Arg(32000)
    ->Unit(benchmark::kMillisecond);

// Opt-in 10M-row level (3 relations x 3.34M tuples): requested explicitly
// with DBRE_BENCH_10M=1 because generation takes minutes and several GB of
// heap, and one pipeline pass at this size runs for about a minute — the
// CI bench smoke runs every target and would otherwise time out. One
// iteration: the cold end-to-end pass is the number of interest here.
const bool kRegistered10M = [] {
  const char* flag = std::getenv("DBRE_BENCH_10M");
  if (flag == nullptr || flag[0] == '\0' || flag[0] == '0') return false;
  benchmark::RegisterBenchmark("BM_FullPipeline", BM_FullPipeline)
      ->Arg(3340000)
      ->Unit(benchmark::kMillisecond)
      ->Iterations(1);
  return true;
}();

// Thread scaling of the end-to-end method: range(1) worker threads fan out
// the IND valuations and the candidate FD tests. Outputs are identical for
// every thread count (see ParallelDiscoveryTest).
void BM_FullPipelineThreads(benchmark::State& state) {
  const SyntheticDatabase& db =
      CachedDatabase(static_cast<size_t>(state.range(0)));
  dbre::ThresholdOracle::Options options;
  options.accept_hidden_objects = true;
  dbre::ThresholdOracle oracle(options);
  dbre::PipelineOptions pipeline_options;
  pipeline_options.ind.num_threads = static_cast<size_t>(state.range(1));
  pipeline_options.rhs.num_threads = static_cast<size_t>(state.range(1));
  for (auto _ : state) {
    auto report =
        dbre::RunPipeline(db.database, db.queries, &oracle, pipeline_options);
    if (!report.ok()) state.SkipWithError("pipeline failed");
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0) * 6);
}
BENCHMARK(BM_FullPipelineThreads)
    ->Args({8000, 1})
    ->Args({8000, 4})
    ->Args({32000, 1})
    ->Args({32000, 4})
    ->Unit(benchmark::kMillisecond);

// --- Incremental re-validation (docs/INCREMENTAL.md) ----------------------
//
// The live-mutation headline: after a 10k-row mutation batch lands on an
// already-engineered catalog, re-validating the dependency set (warm rerun
// through delta-extended encodings, carried-over partitions and FD-verdict
// memos on untouched relations) must beat a cold full re-discovery of the
// same dependencies by >= 10x. Both legs run with run_restruct=false —
// restructuring materializes split relations and is O(data) whether or not
// anything changed, so it is not part of "re-validation". A leaner spec
// than the pipeline benchmarks so range(0) is the size of ONE extension;
// the 1M-row acceptance level is opt-in via DBRE_BENCH_1M=1 (generation +
// the cold baseline's per-iteration rebuild are minutes at that size).

const SyntheticDatabase& CachedIncrementalWorkload(size_t rows) {
  static std::map<size_t, std::unique_ptr<SyntheticDatabase>> cache;
  auto it = cache.find(rows);
  if (it == cache.end()) {
    SyntheticSpec spec;
    spec.num_entities = 3;
    spec.num_merged = 1;
    spec.rows_per_entity = rows;
    spec.emit_program_sources = false;
    auto generated = GenerateSynthetic(spec);
    if (!generated.ok()) std::abort();
    it = cache.emplace(rows, std::make_unique<SyntheticDatabase>(
                                 std::move(generated).value()))
             .first;
  }
  return *it->second;
}

// A 10k-row UPDATE batch against the first relation: rewrite the last
// column of the rows whose first (int key) column falls below the 10k-th
// smallest value. `toggle` alternates the written value so every batch is
// a real rewrite, and the extension never grows across iterations.
struct MutationShape {
  std::string relation;
  std::string target_column;
  bool target_is_int = false;
  std::string key_column;
  int64_t threshold = 0;
};

MutationShape BatchShape(const dbre::Database& database, size_t batch) {
  MutationShape shape;
  shape.relation = database.RelationNames().front();
  const dbre::Table& table = **database.GetTable(shape.relation);
  const dbre::RelationSchema& schema = table.schema();
  shape.key_column = schema.attributes().front().name;
  shape.target_column = schema.attributes().back().name;
  shape.target_is_int =
      schema.attributes().back().type == dbre::DataType::kInt64;
  std::vector<int64_t> keys;
  keys.reserve(table.num_rows());
  (void)table.ForEachRow([&keys](const dbre::ValueVector& row) {
    if (row.front().is_int()) keys.push_back(row.front().as_int());
  });
  size_t nth = std::min(batch, keys.empty() ? size_t{0} : keys.size() - 1);
  std::nth_element(keys.begin(), keys.begin() + nth, keys.end());
  shape.threshold = keys.empty() ? 0 : keys[nth];
  return shape;
}

std::string MutationBatch(const MutationShape& shape, size_t toggle) {
  std::string value = shape.target_is_int
                          ? std::to_string(900'000'000 + toggle)
                          : "'cycle-" + std::to_string(toggle) + "'";
  return "UPDATE " + shape.relation + " SET " + shape.target_column + " = " +
         value + " WHERE " + shape.key_column + " < " +
         std::to_string(shape.threshold) + ";";
}

void BM_IncrementalRevalidation(benchmark::State& state) {
  const SyntheticDatabase& base =
      CachedIncrementalWorkload(static_cast<size_t>(state.range(0)));
  dbre::ThresholdOracle::Options options;
  options.accept_hidden_objects = true;
  dbre::ThresholdOracle oracle(options);
  dbre::PipelineOptions validate_only;
  validate_only.run_restruct = false;

  // Discover once to warm every cache (RunPipeline shares query caches
  // with the input catalog). Each timed iteration then starts from a fresh
  // 10k-row batch (applied untimed — the cold leg's catalog rebuild is
  // untimed too) and measures re-validating the whole dependency set: the
  // mutated column's memos rebuild, everything untouched carries over.
  dbre::Database mutated = base.database.Clone();
  if (!dbre::RunPipeline(mutated, base.queries, &oracle, validate_only)
           .ok()) {
    state.SkipWithError("warm run failed");
    return;
  }
  const MutationShape shape = BatchShape(mutated, 10'000);
  size_t toggle = 0;
  dbre::PhaseTimings timings;
  for (auto _ : state) {
    state.PauseTiming();
    auto stats = dbre::sql::ExecuteDmlScript(
        MutationBatch(shape, toggle++), &mutated);
    if (!stats.ok() || stats->rows_updated == 0) {
      state.SkipWithError("mutation failed");
      state.ResumeTiming();
      break;
    }
    state.ResumeTiming();
    auto report =
        dbre::RunPipeline(mutated, base.queries, &oracle, validate_only);
    if (!report.ok()) state.SkipWithError("pipeline failed");
    timings = report->timings;
    benchmark::DoNotOptimize(report);
  }
  state.counters["ind_us"] = static_cast<double>(timings.ind_discovery_us);
  state.counters["lhs_us"] = static_cast<double>(timings.lhs_discovery_us);
  state.counters["rhs_us"] = static_cast<double>(timings.rhs_discovery_us);
  state.counters["restruct_us"] = static_cast<double>(timings.restruct_us);
  state.counters["translate_us"] =
      static_cast<double>(timings.translate_us);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0) * 3);
}
BENCHMARK(BM_IncrementalRevalidation)
    ->Arg(32000)
    ->Arg(128000)
    ->Unit(benchmark::kMillisecond);

// The cold baseline: identical final rows, rebuilt fresh (no encodings,
// no memoized partitions) before every timed full re-discovery.
void BM_FullRediscoveryAfterMutation(benchmark::State& state) {
  const SyntheticDatabase& base =
      CachedIncrementalWorkload(static_cast<size_t>(state.range(0)));
  dbre::ThresholdOracle::Options options;
  options.accept_hidden_objects = true;
  dbre::ThresholdOracle oracle(options);
  dbre::PipelineOptions validate_only;
  validate_only.run_restruct = false;
  dbre::Database mutated = base.database.Clone();
  auto stats = dbre::sql::ExecuteDmlScript(
      MutationBatch(BatchShape(mutated, 10'000), 0), &mutated);
  if (!stats.ok() || stats->rows_updated == 0) {
    state.SkipWithError("mutation failed");
    return;
  }
  for (auto _ : state) {
    state.PauseTiming();
    dbre::Database cold;
    for (const std::string& name : mutated.RelationNames()) {
      dbre::Table fresh((*mutated.GetTable(name))->schema());
      (void)(*mutated.GetTable(name))
          ->ForEachRow([&fresh](const dbre::ValueVector& row) {
            dbre::ValueVector copy = row;
            dbre::InsertOrDie(&fresh, std::move(copy));
          });
      (void)cold.AddTable(std::move(fresh));
    }
    state.ResumeTiming();
    auto report =
        dbre::RunPipeline(cold, base.queries, &oracle, validate_only);
    if (!report.ok()) state.SkipWithError("pipeline failed");
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0) * 3);
}
BENCHMARK(BM_FullRediscoveryAfterMutation)
    ->Arg(32000)
    ->Arg(128000)
    ->Unit(benchmark::kMillisecond);

// Opt-in 1M-row acceptance level (one extension of 1M rows + a 10k batch).
const bool kRegistered1M = [] {
  const char* flag = std::getenv("DBRE_BENCH_1M");
  if (flag == nullptr || flag[0] == '\0' || flag[0] == '0') return false;
  benchmark::RegisterBenchmark("BM_IncrementalRevalidation",
                               BM_IncrementalRevalidation)
      ->Arg(1'000'000)
      ->Unit(benchmark::kMillisecond)
      ->Iterations(1);
  benchmark::RegisterBenchmark("BM_FullRediscoveryAfterMutation",
                               BM_FullRediscoveryAfterMutation)
      ->Arg(1'000'000)
      ->Unit(benchmark::kMillisecond)
      ->Iterations(1);
  return true;
}();

}  // namespace

BENCHMARK_MAIN();
