#include "relational/column_batch.h"

#include "obs/metrics.h"

namespace dbre::batch {
namespace {

// Prefetch distance for the random-access probe kernels: far enough ahead
// to cover a memory load, close enough that the lines are still resident.
constexpr size_t kLookahead = 16;

obs::Counter* KernelCounter(Kernel kernel) {
  obs::Registry& registry = obs::Registry::Default();
  const char* name;
  switch (kernel) {
    case Kernel::kProbe: name = "probe"; break;
    case Kernel::kPartition: name = "partition"; break;
    default: name = "other"; break;
  }
  return registry.GetCounter("dbre_batch_rows_total", {{"kernel", name}},
                             "Rows processed by vectorized batch kernels");
}

}  // namespace

void AddKernelRows(Kernel kernel, size_t rows) {
  static obs::Counter* const counters[] = {KernelCounter(Kernel::kProbe),
                                           KernelCounter(Kernel::kPartition)};
  counters[static_cast<size_t>(kernel)]->Add(rows);
}

size_t ProbeSet(const FlatSet64& set, const uint64_t* keys, size_t n,
                uint8_t* hit) {
  size_t hits = 0;
  const size_t warm = n < kLookahead ? n : kLookahead;
  for (size_t i = 0; i < warm; ++i) set.Prefetch(keys[i]);
  for (size_t i = 0; i < n; ++i) {
    if (i + kLookahead < n) set.Prefetch(keys[i + kLookahead]);
    const uint8_t h = set.Contains(keys[i]) ? 1 : 0;
    hit[i] = h;
    hits += h;
  }
  AddKernelRows(Kernel::kProbe, n);
  return hits;
}

size_t ProbeBloom(const BloomFilter& bloom, const uint64_t* keys, size_t n,
                  uint8_t* hit) {
  size_t hits = 0;
  const size_t warm = n < kLookahead ? n : kLookahead;
  for (size_t i = 0; i < warm; ++i) bloom.Prefetch(keys[i]);
  for (size_t i = 0; i < n; ++i) {
    if (i + kLookahead < n) bloom.Prefetch(keys[i + kLookahead]);
    const uint8_t h = bloom.MayContain(keys[i]) ? 1 : 0;
    hit[i] = h;
    hits += h;
  }
  AddKernelRows(Kernel::kProbe, n);
  return hits;
}

}  // namespace dbre::batch
