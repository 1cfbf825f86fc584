// P4 — verifying one FD against the extension: the check RHS-Discovery
// uses (memoized query-cache partitions, NULL-LHS tuples skipped), cold
// and warm, against the row-at-a-time naive reference.
#include <map>
#include <memory>
#include <random>

#include <benchmark/benchmark.h>

#include "relational/algebra.h"
#include "support/naive_algebra.h"
#include "support/table_rows.h"

namespace {

const dbre::Table& CachedTable(size_t rows) {
  static std::map<size_t, std::unique_ptr<dbre::Table>> cache;
  auto it = cache.find(rows);
  if (it == cache.end()) {
    dbre::RelationSchema schema("T");
    if (!schema.AddAttribute("a", dbre::DataType::kInt64).ok() ||
        !schema.AddAttribute("b", dbre::DataType::kInt64).ok() ||
        !schema.AddAttribute("c", dbre::DataType::kInt64).ok()) {
      std::abort();
    }
    auto table = std::make_unique<dbre::Table>(std::move(schema));
    std::mt19937_64 rng(99);
    for (size_t i = 0; i < rows; ++i) {
      int64_t a = static_cast<int64_t>(rng() % (rows / 10 + 1));
      // a → b holds; a → c fails.
      dbre::InsertOrDie(table.get(), {dbre::Value::Int(a),
                              dbre::Value::Int(a * 7 % 1000),
                              dbre::Value::Int(static_cast<int64_t>(rng()))});
    }
    it = cache.emplace(rows, std::move(table)).first;
  }
  return *it->second;
}

void BM_FdCheckHashWitness(benchmark::State& state) {
  const dbre::Table& table = CachedTable(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto holds = dbre::FunctionalDependencyHolds(
        table, dbre::AttributeSet{"a"}, dbre::AttributeSet{"b"});
    benchmark::DoNotOptimize(holds);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_FdCheckHashWitness)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(400000)
    ->Unit(benchmark::kMicrosecond);

void BM_FdCheckHashWitnessFailing(benchmark::State& state) {
  // Failing FDs short-circuit at the first witness conflict.
  const dbre::Table& table = CachedTable(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto holds = dbre::FunctionalDependencyHolds(
        table, dbre::AttributeSet{"a"}, dbre::AttributeSet{"c"});
    benchmark::DoNotOptimize(holds);
  }
}
BENCHMARK(BM_FdCheckHashWitnessFailing)
    ->Arg(1000)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

// The production path: dictionary-encoded columns + memoized partitions.
// Cold variant pays the one-off encode+partition build each iteration (a
// fresh table copy drops the cache); the warm variant measures the steady
// state the discovery loops actually see.
void BM_FdCheckEncodedCold(benchmark::State& state) {
  const dbre::Table& table = CachedTable(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    state.PauseTiming();
    dbre::Table cold(table.schema());
    for (const auto& row : dbre::Rows(table)) dbre::InsertOrDie(&cold, row);
    state.ResumeTiming();
    auto holds = dbre::FunctionalDependencyHolds(
        cold, dbre::AttributeSet{"a"}, dbre::AttributeSet{"b"});
    benchmark::DoNotOptimize(holds);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_FdCheckEncodedCold)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(400000)
    ->Unit(benchmark::kMicrosecond);

void BM_FdCheckEncodedWarm(benchmark::State& state) {
  const dbre::Table& table = CachedTable(static_cast<size_t>(state.range(0)));
  // Warm the cache outside the timed region.
  auto warmup = dbre::FunctionalDependencyHolds(
      table, dbre::AttributeSet{"a"}, dbre::AttributeSet{"b"});
  if (!warmup.ok()) state.SkipWithError("warmup failed");
  for (auto _ : state) {
    auto holds = dbre::FunctionalDependencyHolds(
        table, dbre::AttributeSet{"a"}, dbre::AttributeSet{"b"});
    benchmark::DoNotOptimize(holds);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_FdCheckEncodedWarm)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(400000)
    ->Unit(benchmark::kMicrosecond);

// The retained row-at-a-time reference implementation, for the
// encoded-vs-naive comparison the crosscheck tests pin semantically.
void BM_FdCheckNaive(benchmark::State& state) {
  const dbre::Table& table = CachedTable(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto holds = dbre::naive::FunctionalDependencyHolds(
        table, dbre::AttributeSet{"a"}, dbre::AttributeSet{"b"});
    benchmark::DoNotOptimize(holds);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_FdCheckNaive)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(400000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
