// Sorted-run key indexes over a paged snapshot column's dictionary.
//
// An index is (key, code) pairs sorted by key, spilled next to the
// snapshot as `<snapshot>.c<column>.idx` and probed through the buffer
// pool: an in-memory fence key every kFenceStride entries narrows a probe
// to one block, which is binary-searched page-locally. Keys are the raw
// int64 bit pattern for typed int64 columns (`exact()`), and the canonical
// value hash (relational/value.h SketchHash) otherwise — inexact probe
// hits must be verified by decoding the dictionary value.
//
// On-disk layout (little-endian):
//   [magic "DBREIDX1"][u64 snapshot fingerprint][u32 column][u64 count]
//   [u8 exact][3 zero bytes]          -- 32-byte header
//   count x { u64 key, u32 code }     -- 12-byte entries, sorted (key, code)
//   [u32 CRC32C of header + entries]
//
// Create() reuses a spilled index when the header matches the snapshot
// (content-addressed by fingerprint + column) and the checksum verifies;
// anything else triggers a rebuild, written tmp+rename. Building streams
// the dictionary through the pool and holds the entry run in memory —
// O(dict_size) * 12 bytes transient, the only above-pool allocation in
// the paged path.
//
// Failpoints: pagestore.index_write (spill), pagestore.index_load (reuse).
#ifndef DBRE_PAGESTORE_KEY_INDEX_H_
#define DBRE_PAGESTORE_KEY_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "pagestore/buffer_pool.h"
#include "pagestore/paged_snapshot.h"
#include "relational/paged_source.h"

namespace dbre::pagestore {

// One fence key per this many 12-byte entries (48KB blocks, <= 2 pages).
inline constexpr uint64_t kFenceStride = 4096;

class SnapshotKeyIndex : public PagedKeyIndex {
 public:
  // Builds (or revalidates and reuses) the index for `column` of `snap`.
  static Result<std::shared_ptr<SnapshotKeyIndex>> Create(
      const PagedSnapshot& snap, size_t column);

  ~SnapshotKeyIndex() override;

  SnapshotKeyIndex(const SnapshotKeyIndex&) = delete;
  SnapshotKeyIndex& operator=(const SnapshotKeyIndex&) = delete;

  bool exact() const override { return exact_; }
  bool ContainsKey(uint64_t key) const override;
  Status ForEachCode(
      uint64_t key,
      const std::function<bool(uint32_t code)>& fn) const override;

  uint64_t entry_count() const { return count_; }
  const std::string& path() const { return path_; }

 private:
  SnapshotKeyIndex() = default;

  // Reads the u64 key / u32 code of entry `i` through the pool, keeping
  // the last-touched page pinned in `*page`/`*page_index`.
  uint64_t EntryKey(uint64_t i, BufferPool::Page* page,
                    uint32_t* page_index) const;
  uint32_t EntryCode(uint64_t i, BufferPool::Page* page,
                     uint32_t* page_index) const;
  void EntryBytes(uint64_t byte_off, size_t n, uint8_t* out,
                  BufferPool::Page* page, uint32_t* page_index) const;

  // First entry index in [lo, hi) whose key is >= `key`.
  uint64_t LowerBound(uint64_t key, uint64_t lo, uint64_t hi,
                      BufferPool::Page* page, uint32_t* page_index) const;

  // Fence-bounded entry range that can contain `key`.
  void ProbeRange(uint64_t key, uint64_t* lo, uint64_t* hi) const;

  std::shared_ptr<BufferPool> pool_;
  uint32_t file_id_ = 0;
  std::string path_;
  uint64_t count_ = 0;
  bool exact_ = false;
  std::vector<uint64_t> fences_;  // key of entry j * kFenceStride
};

}  // namespace dbre::pagestore

#endif  // DBRE_PAGESTORE_KEY_INDEX_H_
