// P1 — IND-Discovery scaling: cost of eliciting inclusion dependencies as
// the extension grows and as the query workload grows. The dominant cost
// is the three count-distinct valuations per equi-join, each linear in the
// table size.
#include <cstdlib>
#include <map>
#include <memory>

#include <benchmark/benchmark.h>

#include "core/ind_discovery.h"
#include "workload/generator.h"
#include "support/naive_algebra.h"
#include "support/table_rows.h"

namespace {

using dbre::workload::GenerateSynthetic;
using dbre::workload::SyntheticDatabase;
using dbre::workload::SyntheticSpec;

const SyntheticDatabase& CachedDatabase(size_t entities, size_t rows) {
  static std::map<std::pair<size_t, size_t>,
                  std::unique_ptr<SyntheticDatabase>>
      cache;
  auto key = std::make_pair(entities, rows);
  auto it = cache.find(key);
  if (it == cache.end()) {
    SyntheticSpec spec;
    spec.num_entities = entities;
    spec.num_merged = entities / 2;
    spec.rows_per_entity = rows;
    spec.emit_program_sources = false;
    auto generated = GenerateSynthetic(spec);
    if (!generated.ok()) std::abort();
    it = cache.emplace(key, std::make_unique<SyntheticDatabase>(
                                std::move(generated).value()))
             .first;
  }
  return *it->second;
}

// Scaling with extension size, fixed workload.
void BM_IndDiscoveryByRows(benchmark::State& state) {
  const SyntheticDatabase& db =
      CachedDatabase(6, static_cast<size_t>(state.range(0)));
  dbre::DefaultOracle oracle;
  // Clean data + conservative oracle: DiscoverInds never conceptualizes,
  // so one working copy outside the timed loop suffices.
  dbre::Database working = db.database.Clone();
  size_t inds = 0;
  for (auto _ : state) {
    auto result = dbre::DiscoverInds(&working, db.queries, &oracle);
    if (!result.ok()) state.SkipWithError("discovery failed");
    inds = result->inds.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["inds"] = static_cast<double>(inds);
  state.counters["joins"] = static_cast<double>(db.queries.size());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_IndDiscoveryByRows)
    ->Arg(1000)
    ->Arg(4000)
    ->Arg(16000)
    ->Arg(64000)
    ->Unit(benchmark::kMillisecond);

// Opt-in 10M-row level (3 relations x 3.34M tuples): generating the
// extension takes minutes and several GB of heap, so it must be requested
// explicitly with DBRE_BENCH_10M=1 — the CI bench smoke runs every target
// for one iteration and would otherwise time out.
const bool kRegistered10M = [] {
  const char* flag = std::getenv("DBRE_BENCH_10M");
  if (flag == nullptr || flag[0] == '\0' || flag[0] == '0') return false;
  benchmark::RegisterBenchmark("BM_IndDiscoveryByRows",
                               BM_IndDiscoveryByRows)
      ->Arg(3340000)
      ->Unit(benchmark::kMillisecond);
  return true;
}();

// Encoded-vs-naive join valuations: the three distinct counts of one
// equi-join over the dictionary-encoded columns (with a cold cache per
// iteration cleared by cloning) against the row-at-a-time reference.
void BM_JoinCountsEncoded(benchmark::State& state) {
  const SyntheticDatabase& db =
      CachedDatabase(6, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    state.PauseTiming();
    dbre::Database working = db.database.Clone();
    // Cloning shares the memoized caches; mutate-free invalidation isn't
    // possible from outside, so rebuild cold tables instead.
    for (const std::string& name : working.RelationNames()) {
      dbre::Table* table = *working.GetMutableTable(name);
      dbre::Table rebuilt(table->schema());
      for (const auto& row : dbre::Rows(*table)) {
        dbre::InsertOrDie(&rebuilt, row);
      }
      *table = std::move(rebuilt);
    }
    state.ResumeTiming();
    for (const dbre::EquiJoin& join : db.queries) {
      auto counts = dbre::ComputeJoinCounts(working, join);
      benchmark::DoNotOptimize(counts);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_JoinCountsEncoded)
    ->Arg(4000)
    ->Arg(16000)
    ->Arg(64000)
    ->Unit(benchmark::kMillisecond);

void BM_JoinCountsNaive(benchmark::State& state) {
  const SyntheticDatabase& db =
      CachedDatabase(6, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    for (const dbre::EquiJoin& join : db.queries) {
      auto counts = dbre::naive::ComputeJoinCounts(db.database, join);
      benchmark::DoNotOptimize(counts);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_JoinCountsNaive)
    ->Arg(4000)
    ->Arg(16000)
    ->Arg(64000)
    ->Unit(benchmark::kMillisecond);

// Thread scaling of the warm-cache discovery loop: range(1) worker threads
// fan out the per-join valuations.
void BM_IndDiscoveryThreads(benchmark::State& state) {
  const SyntheticDatabase& db =
      CachedDatabase(6, static_cast<size_t>(state.range(0)));
  dbre::DefaultOracle oracle;
  dbre::Database working = db.database.Clone();
  dbre::IndDiscoveryOptions options;
  options.num_threads = static_cast<size_t>(state.range(1));
  for (auto _ : state) {
    auto result = dbre::DiscoverInds(&working, db.queries, &oracle, options);
    if (!result.ok()) state.SkipWithError("discovery failed");
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_IndDiscoveryThreads)
    ->Args({16000, 1})
    ->Args({16000, 4})
    ->Args({64000, 1})
    ->Args({64000, 4})
    ->Unit(benchmark::kMillisecond);

// Scaling with workload size (schema width drives |Q|), fixed rows.
void BM_IndDiscoveryByJoins(benchmark::State& state) {
  const SyntheticDatabase& db =
      CachedDatabase(static_cast<size_t>(state.range(0)), 2000);
  dbre::DefaultOracle oracle;
  dbre::Database working = db.database.Clone();
  for (auto _ : state) {
    auto result = dbre::DiscoverInds(&working, db.queries, &oracle);
    if (!result.ok()) state.SkipWithError("discovery failed");
    benchmark::DoNotOptimize(result);
  }
  state.counters["joins"] = static_cast<double>(db.queries.size());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(db.queries.size()));
}
BENCHMARK(BM_IndDiscoveryByJoins)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
