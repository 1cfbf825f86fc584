// Opens a DBSNAP01 snapshot page-at-a-time instead of loading it whole.
//
// Open() verifies the file through the store's one snapshot reader
// (store::ScanSnapshot): the same checksums, dictionary entries and codes,
// with the same error texts, as the whole-file load. It keeps only what it
// serves from: per column, the byte offsets of the dictionary and code
// regions and a sparse dictionary directory (one byte offset per
// kDictDirStride entries) so DictValueAt is O(stride) page-local work, and
// the CRC32C of every kPageSize-byte page, which the buffer pool
// re-verifies on each read-back. The scan folds those page CRCs in as it
// reads, so the open reads the file once. int64/double dictionaries are
// fixed-width (9 bytes per entry) and addressed arithmetically. Values
// larger than a page — long strings — simply span consecutive pages; the
// reader assembles them across pins (the format needs no separate
// overflow-page chain).
//
// A snapshot the scan rejects never attaches to the pool; the store's
// quarantine rule (store::Store::VetSnapshot) treats it as it treats a
// rejected whole-file load.
#ifndef DBRE_PAGESTORE_PAGED_SNAPSHOT_H_
#define DBRE_PAGESTORE_PAGED_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "pagestore/buffer_pool.h"
#include "relational/paged_source.h"
#include "relational/schema.h"
#include "store/snapshot.h"

namespace dbre::pagestore {

// One byte offset per this many dictionary entries (variable-width
// dictionaries only); a point lookup walks at most the stride.
inline constexpr uint32_t kDictDirStride = 64;

class PagedSnapshot : public PagedSource,
                      public std::enable_shared_from_this<PagedSnapshot> {
 public:
  static Result<std::shared_ptr<PagedSnapshot>> Open(
      const std::string& path, std::shared_ptr<BufferPool> pool);

  ~PagedSnapshot() override;

  PagedSnapshot(const PagedSnapshot&) = delete;
  PagedSnapshot& operator=(const PagedSnapshot&) = delete;

  // --- PagedSource ------------------------------------------------------
  size_t num_rows() const override { return scan_.rows; }
  size_t num_columns() const override { return scan_.columns.size(); }
  uint64_t fingerprint() const override { return scan_.fingerprint; }
  uint32_t dict_size(size_t column) const override {
    return scan_.columns[column].dict_size;
  }
  bool has_null(size_t column) const override {
    return scan_.columns[column].has_null;
  }
  DataType declared_type(size_t column) const override {
    return scan_.schema.attributes()[column].type;
  }
  std::unique_ptr<PagedCodeCursor> Codes(size_t column) const override;
  Result<Value> DictValueAt(size_t column, uint32_t code) const override;
  Status ForEachDictValue(
      size_t column,
      const std::function<void(uint32_t code, const Value& value)>& fn)
      const override;

  // --- extras for the service layer ------------------------------------
  const RelationSchema& schema() const { return scan_.schema; }
  BufferPool* pool() const { return pool_.get(); }
  uint32_t file_id() const { return file_id_; }

 private:
  friend class SnapshotCodeCursor;

  PagedSnapshot() = default;

  // Walks dictionary entries [first, first+count), the first of which
  // starts at file offset `entry_off`, invoking fn per entry.
  Status WalkDict(uint32_t first, uint32_t count, uint64_t entry_off,
                  const std::function<void(uint32_t, const Value&)>& fn)
      const;

  std::shared_ptr<BufferPool> pool_;
  uint32_t file_id_ = 0;
  // What the open verified and serves from: the schema and each column's
  // offsets and dictionary directory.
  store::ScannedSnapshot scan_;
};

// Convenience used by the service layer and tests.
Result<std::shared_ptr<PagedSnapshot>> OpenSnapshotPaged(
    const std::string& path, std::shared_ptr<BufferPool> pool);

}  // namespace dbre::pagestore

#endif  // DBRE_PAGESTORE_PAGED_SNAPSHOT_H_
