// Batch execution over dictionary-encoded columns.
//
// Multi-column grouping and cross-table membership probes pay an
// interpretation and cache-miss penalty per row. This layer runs them
// column-at-a-time over fixed-size batches of dictionary codes, in the
// style of the tpl/NoisePage VectorProjectionIterator design:
//
//   * a batch is up to kBatchSize consecutive rows of one column's code
//     array; NULL rows carry EncodedTable::kNullCode;
//   * membership tests probe per-row 64-bit keys against a FlatSet64 /
//     BloomFilter with software prefetch issued a fixed distance ahead,
//     overlapping the random-access loads that dominate large probes.
//
// Kernels are branch-light loops over flat arrays — the form compilers
// auto-vectorize — and report their processed rows to the
// dbre_batch_rows_total metric so throughput is observable per kernel.
#ifndef DBRE_RELATIONAL_COLUMN_BATCH_H_
#define DBRE_RELATIONAL_COLUMN_BATCH_H_

#include <cstddef>
#include <cstdint>

#include "common/flat_hash.h"
#include "relational/sketch.h"

namespace dbre::batch {

// Rows per batch: large enough to amortize per-batch overhead, small
// enough that a batch's working vectors stay L1/L2-resident.
inline constexpr size_t kBatchSize = 2048;

// Chunks [0, num_rows) into kBatchSize batches.
class BatchIterator {
 public:
  explicit BatchIterator(size_t num_rows) : num_rows_(num_rows) {}

  // Produces the next [start, start+count) chunk; false when exhausted.
  bool Next(size_t* start, size_t* count) {
    if (pos_ >= num_rows_) return false;
    *start = pos_;
    *count = num_rows_ - pos_ < kBatchSize ? num_rows_ - pos_ : kBatchSize;
    pos_ += *count;
    return true;
  }

 private:
  size_t pos_ = 0;
  size_t num_rows_;
};

// Kernel families, for the per-kernel row-throughput metric.
enum class Kernel {
  kProbe,      // hash/bloom membership probes
  kPartition,  // grouped-distinct building
};

// Adds `rows` to dbre_batch_rows_total{kernel=...}.
void AddKernelRows(Kernel kernel, size_t rows);

// Probes `keys[0..n)` against a flat set with prefetch lookahead.
// hit[i] ∈ {0,1}; returns the number of hits.
size_t ProbeSet(const FlatSet64& set, const uint64_t* keys, size_t n,
                uint8_t* hit);

// Same against a Bloom filter; hit[i] == 0 proves keys[i] is absent from
// every set the filter was built over.
size_t ProbeBloom(const BloomFilter& bloom, const uint64_t* keys, size_t n,
                  uint8_t* hit);

}  // namespace dbre::batch

#endif  // DBRE_RELATIONAL_COLUMN_BATCH_H_
