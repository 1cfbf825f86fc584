#include "pagestore/paged_snapshot.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/failpoint.h"
#include "relational/column_batch.h"
#include "store/snapshot_format.h"

namespace dbre::pagestore {
namespace {

// The steady-state cursor contract (relational/paged_source.h): a source
// that verified clean at open can only fail mid-run on a real environment
// fault. Retries already happened inside the pool; give up loudly rather
// than degrade the byte-identical invariant.
[[noreturn]] void DiePagedIo(const Status& status) {
  std::fprintf(stderr,
               "dbre pagestore: unrecoverable page I/O failure: %s\n",
               status.ToString().c_str());
  std::abort();
}

// Sequential reader over buffer-pool pages (steady state dictionary walks).
class PoolStream {
 public:
  PoolStream(const BufferPool* pool, uint32_t file_id, uint64_t file_size,
             uint64_t offset)
      : pool_(const_cast<BufferPool*>(pool)),
        file_id_(file_id),
        file_size_(file_size),
        pos_(offset) {}

  // The byte-source interface of store::ReadEntry.
  uint64_t remaining() const { return file_size_ - pos_; }
  const Status& status() const { return status_; }

  bool Read(void* out, size_t n) {
    uint8_t* dst = static_cast<uint8_t*>(out);
    while (n > 0) {
      if (pos_ >= file_size_) return PastEnd();
      uint32_t page = static_cast<uint32_t>(pos_ / kPageSize);
      if (page != page_index_ || page_.data() == nullptr) {
        Result<BufferPool::Page> pinned = pool_->Pin(file_id_, page);
        if (!pinned.ok()) return Fail(pinned.status());
        page_ = std::move(pinned).value();
        page_index_ = page;
      }
      size_t in_page = static_cast<size_t>(pos_ % kPageSize);
      size_t take = std::min(n, page_.size() - in_page);
      if (take == 0) return PastEnd();
      std::memcpy(dst, page_.data() + in_page, take);
      pos_ += take;
      dst += take;
      n -= take;
    }
    return true;
  }
  bool Skip(uint64_t n) {
    if (n > remaining()) return PastEnd();
    pos_ += n;
    return true;
  }
  bool Fail(Status status) {
    if (status_.ok()) status_ = std::move(status);
    return false;
  }

 private:
  bool PastEnd() {
    return Fail(OutOfRangeError("paged read past end of file"));
  }

  BufferPool* pool_;
  uint32_t file_id_;
  uint64_t file_size_;
  uint64_t pos_;
  BufferPool::Page page_;
  uint32_t page_index_ = UINT32_MAX;
  Status status_;
};

// Streams one column's dictionary codes through the pool. Fetch serves a
// run of up to kBatchSize codes: when the run sits inside one page at
// 4-byte alignment it returns a pointer straight into the pinned page;
// otherwise it memcpys into the aligned scratch buffer (never more than
// two pages per batch).
class SnapshotCodeCursor : public PagedCodeCursor {
 public:
  SnapshotCodeCursor(std::shared_ptr<const PagedSnapshot> snapshot,
                     uint64_t codes_begin)
      : snapshot_(std::move(snapshot)),
        pool_(snapshot_->pool()),
        file_id_(snapshot_->file_id()),
        codes_begin_(codes_begin) {}

  const uint32_t* Fetch(size_t start, size_t count) override {
    uint64_t byte_begin = codes_begin_ + 4 * static_cast<uint64_t>(start);
    uint32_t first_page = static_cast<uint32_t>(byte_begin / kPageSize);
    size_t in_page = static_cast<size_t>(byte_begin % kPageSize);
    const BufferPool::Page& page = PageFor(first_page);
    if (in_page + 4 * count <= page.size() && (in_page & 3) == 0) {
      return reinterpret_cast<const uint32_t*>(page.data() + in_page);
    }
    size_t filled = 0;
    uint8_t* dst = reinterpret_cast<uint8_t*>(scratch_);
    size_t want = 4 * count;
    uint64_t pos = byte_begin;
    while (filled < want) {
      uint32_t p = static_cast<uint32_t>(pos / kPageSize);
      const BufferPool::Page& pg = PageFor(p);
      size_t off = static_cast<size_t>(pos % kPageSize);
      size_t take = std::min(want - filled, pg.size() - off);
      std::memcpy(dst + filled, pg.data() + off, take);
      filled += take;
      pos += take;
    }
    return scratch_;
  }

  uint32_t At(size_t row) override {
    uint64_t byte = codes_begin_ + 4 * static_cast<uint64_t>(row);
    uint32_t p = static_cast<uint32_t>(byte / kPageSize);
    size_t off = static_cast<size_t>(byte % kPageSize);
    const BufferPool::Page& pg = PageFor(p);
    uint32_t v;
    if (off + 4 <= pg.size()) {
      std::memcpy(&v, pg.data() + off, 4);
      if constexpr (std::endian::native == std::endian::big) {
        v = __builtin_bswap32(v);
      }
      return v;
    }
    uint8_t b[4];
    size_t head = pg.size() - off;
    std::memcpy(b, pg.data() + off, head);
    const BufferPool::Page& next = PageFor(p + 1);
    std::memcpy(b + head, next.data(), 4 - head);
    // PageFor invalidated `pg`'s cache slot; the bytes are already copied.
    return store::LoadU32(b);
  }

 private:
  const BufferPool::Page& PageFor(uint32_t page_index) {
    if (page_index != page_index_ || page_.data() == nullptr) {
      Result<BufferPool::Page> pinned = pool_->Pin(file_id_, page_index);
      if (!pinned.ok()) DiePagedIo(pinned.status());
      page_ = std::move(pinned).value();
      page_index_ = page_index;
    }
    return page_;
  }

  std::shared_ptr<const PagedSnapshot> snapshot_;
  BufferPool* pool_;
  uint32_t file_id_;
  uint64_t codes_begin_;
  BufferPool::Page page_;
  uint32_t page_index_ = UINT32_MAX;
  alignas(8) uint32_t scratch_[batch::kBatchSize];
};

}  // namespace

Result<std::shared_ptr<PagedSnapshot>> PagedSnapshot::Open(
    const std::string& path, std::shared_ptr<BufferPool> pool) {
  if (pool == nullptr) {
    return InvalidArgumentError("paged snapshot needs a buffer pool");
  }
  DBRE_RETURN_IF_ERROR(FailpointError("pagestore.open"));
  store::ScanOptions options;
  options.directory_stride = kDictDirStride;
  options.page_size = kPageSize;
  auto snapshot = std::shared_ptr<PagedSnapshot>(new PagedSnapshot());
  DBRE_ASSIGN_OR_RETURN(snapshot->scan_, store::ScanSnapshot(path, options));
  snapshot->pool_ = pool;
  DBRE_ASSIGN_OR_RETURN(
      snapshot->file_id_,
      pool->AttachFile(path, std::move(snapshot->scan_.page_crcs)));
  return snapshot;
}

PagedSnapshot::~PagedSnapshot() {
  if (pool_ != nullptr && file_id_ != 0) pool_->DetachFile(file_id_);
}

std::unique_ptr<PagedCodeCursor> PagedSnapshot::Codes(size_t column) const {
  return std::make_unique<SnapshotCodeCursor>(
      shared_from_this(), scan_.columns[column].codes_begin);
}

Result<Value> PagedSnapshot::DictValueAt(size_t column, uint32_t code) const {
  const store::ColumnLayout& layout = scan_.columns[column];
  if (code >= layout.dict_size) {
    return OutOfRangeError("dictionary code " + std::to_string(code) +
                           " out of range for column " +
                           std::to_string(column));
  }
  // Fixed-width entries are addressed arithmetically; others walk from the
  // directory entry at or before `code`.
  uint64_t offset = layout.dict_begin +
                    static_cast<uint64_t>(code) * store::kFixedEntryBytes;
  uint32_t skip = 0;
  if (store::FixedTag(declared_type(column)) == 0) {
    offset = layout.directory[code / kDictDirStride];
    skip = code % kDictDirStride;
  }
  PoolStream stream(pool_.get(), file_id_, scan_.file_bytes, offset);
  for (uint32_t i = 0; i < skip; ++i) {
    if (!store::ReadEntry(stream, nullptr)) return stream.status();
  }
  Value value;
  if (!store::ReadEntry(stream, &value)) return stream.status();
  return value;
}

Status PagedSnapshot::WalkDict(
    uint32_t first, uint32_t count, uint64_t entry_off,
    const std::function<void(uint32_t, const Value&)>& fn) const {
  PoolStream stream(pool_.get(), file_id_, scan_.file_bytes, entry_off);
  Value value;
  for (uint32_t i = 0; i < count; ++i) {
    if (!store::ReadEntry(stream, &value)) return stream.status();
    fn(first + i, value);
  }
  return Status::Ok();
}

Status PagedSnapshot::ForEachDictValue(
    size_t column,
    const std::function<void(uint32_t code, const Value& value)>& fn) const {
  const store::ColumnLayout& layout = scan_.columns[column];
  return WalkDict(0, layout.dict_size, layout.dict_begin, fn);
}

Result<std::shared_ptr<PagedSnapshot>> OpenSnapshotPaged(
    const std::string& path, std::shared_ptr<BufferPool> pool) {
  return PagedSnapshot::Open(path, std::move(pool));
}

}  // namespace dbre::pagestore
