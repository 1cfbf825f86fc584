// Extension perf — key mining cost: levelwise unique-combination search
// with minimality pruning, as rows and width grow.
#include <map>
#include <memory>
#include <random>

#include <benchmark/benchmark.h>

#include "deps/key_miner.h"
#include "support/table_rows.h"

namespace {

const dbre::Table& CachedTable(size_t rows, size_t extra_columns) {
  static std::map<std::pair<size_t, size_t>, std::unique_ptr<dbre::Table>>
      cache;
  auto key = std::make_pair(rows, extra_columns);
  auto it = cache.find(key);
  if (it == cache.end()) {
    dbre::RelationSchema schema("T");
    if (!schema.AddAttribute("id", dbre::DataType::kInt64).ok()) {
      std::abort();
    }
    for (size_t c = 0; c < extra_columns; ++c) {
      if (!schema
               .AddAttribute("c" + std::to_string(c),
                             dbre::DataType::kInt64)
               .ok()) {
        std::abort();
      }
    }
    auto table = std::make_unique<dbre::Table>(std::move(schema));
    std::mt19937_64 rng(17);
    for (size_t i = 0; i < rows; ++i) {
      dbre::ValueVector row;
      row.push_back(dbre::Value::Int(static_cast<int64_t>(i)));
      for (size_t c = 0; c < extra_columns; ++c) {
        row.push_back(
            dbre::Value::Int(static_cast<int64_t>(rng() % (10 + c))));
      }
      dbre::InsertOrDie(table.get(), std::move(row));
    }
    it = cache.emplace(key, std::move(table)).first;
  }
  return *it->second;
}

void BM_KeyMinerByRows(benchmark::State& state) {
  const dbre::Table& table =
      CachedTable(static_cast<size_t>(state.range(0)), 5);
  size_t checked = 0, found = 0;
  for (auto _ : state) {
    dbre::KeyMinerStats stats;
    auto keys = dbre::MineCandidateKeys(table, {}, &stats);
    if (!keys.ok()) state.SkipWithError("mining failed");
    checked = stats.combinations_checked;
    found = keys->size();
    benchmark::DoNotOptimize(keys);
  }
  state.counters["combinations"] = static_cast<double>(checked);
  state.counters["keys"] = static_cast<double>(found);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_KeyMinerByRows)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_KeyMinerByWidth(benchmark::State& state) {
  const dbre::Table& table =
      CachedTable(5000, static_cast<size_t>(state.range(0)));
  size_t checked = 0;
  for (auto _ : state) {
    dbre::KeyMinerStats stats;
    auto keys = dbre::MineCandidateKeys(table, {}, &stats);
    if (!keys.ok()) state.SkipWithError("mining failed");
    checked = stats.combinations_checked;
    benchmark::DoNotOptimize(keys);
  }
  state.counters["combinations"] = static_cast<double>(checked);
}
BENCHMARK(BM_KeyMinerByWidth)
    ->Arg(3)
    ->Arg(6)
    ->Arg(12)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
