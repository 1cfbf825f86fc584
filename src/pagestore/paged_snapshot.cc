#include "pagestore/paged_snapshot.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/failpoint.h"
#include "obs/metrics.h"
#include "relational/column_batch.h"
#include "relational/encoded_table.h"
#include "store/crc32c.h"
#include "store/snapshot_format.h"

namespace dbre::pagestore {
namespace {

using store::Crc32c;
using store::kSnapshotFooterMagic;
using store::kSnapshotFooterSize;
using store::kSnapshotMagic;
using store::kTagBool;
using store::kTagInt;
using store::kTagReal;
using store::kTagString;

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

// Buffered sequential reader over a plain fd, for the one-pass open scan.
class SeqReader {
 public:
  SeqReader(int fd, uint64_t size, std::string path)
      : fd_(fd), size_(size), path_(std::move(path)) {
    buffer_.resize(256 * 1024);
  }

  uint64_t pos() const { return pos_; }

  Status Read(void* out, size_t n) {
    uint8_t* dst = static_cast<uint8_t*>(out);
    while (n > 0) {
      if (avail_ == 0) DBRE_RETURN_IF_ERROR(Fill());
      size_t take = std::min(n, avail_);
      std::memcpy(dst, buffer_.data() + cursor_, take);
      cursor_ += take;
      avail_ -= take;
      pos_ += take;
      dst += take;
      n -= take;
    }
    return Status::Ok();
  }

  Result<uint8_t> U8() {
    uint8_t v;
    DBRE_RETURN_IF_ERROR(Read(&v, 1));
    return v;
  }
  Result<uint32_t> U32() {
    uint8_t b[4];
    DBRE_RETURN_IF_ERROR(Read(b, 4));
    return store::LoadU32(b);
  }
  Result<uint64_t> U64() {
    uint8_t b[8];
    DBRE_RETURN_IF_ERROR(Read(b, 8));
    return store::LoadU64(b);
  }

  // Streams `n` bytes folding them into `*crc` without keeping them.
  Status CrcSkip(uint64_t n, uint32_t* crc) {
    while (n > 0) {
      if (avail_ == 0) DBRE_RETURN_IF_ERROR(Fill());
      size_t take = static_cast<size_t>(std::min<uint64_t>(n, avail_));
      *crc = Crc32c(*crc, buffer_.data() + cursor_, take);
      cursor_ += take;
      avail_ -= take;
      pos_ += take;
      n -= take;
    }
    return Status::Ok();
  }

 private:
  Status Fill() {
    if (pos_ >= size_) {
      return IoError("read " + path_ + ": unexpected EOF");
    }
    size_t want = static_cast<size_t>(
        std::min<uint64_t>(buffer_.size(), size_ - pos_));
    size_t off = 0;
    while (off < want) {
      ssize_t n = ::pread(fd_, buffer_.data() + off, want - off,
                          static_cast<off_t>(pos_ + off));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        return IoError("read " + path_ + ": " +
                       (n < 0 ? std::strerror(errno) : "unexpected EOF"));
      }
      off += static_cast<size_t>(n);
    }
    cursor_ = 0;
    avail_ = want;
    return Status::Ok();
  }

  int fd_;
  uint64_t size_;
  std::string path_;
  std::vector<uint8_t> buffer_;
  uint64_t pos_ = 0;
  size_t cursor_ = 0;
  size_t avail_ = 0;
};

// Sequential reader over buffer-pool pages (steady state dictionary walks).
class PoolStream {
 public:
  PoolStream(const BufferPool* pool, uint32_t file_id, uint64_t file_size,
             uint64_t offset)
      : pool_(const_cast<BufferPool*>(pool)),
        file_id_(file_id),
        file_size_(file_size),
        pos_(offset) {}

  uint64_t pos() const { return pos_; }
  void Skip(uint64_t n) { pos_ += n; }

  Status Read(void* out, size_t n) {
    uint8_t* dst = static_cast<uint8_t*>(out);
    while (n > 0) {
      if (pos_ >= file_size_) {
        return OutOfRangeError("paged read past end of file");
      }
      uint32_t page = static_cast<uint32_t>(pos_ / kPageSize);
      if (page != page_index_ || page_.data() == nullptr) {
        DBRE_ASSIGN_OR_RETURN(page_, pool_->Pin(file_id_, page));
        page_index_ = page;
      }
      size_t in_page = static_cast<size_t>(pos_ % kPageSize);
      size_t take = std::min(n, page_.size() - in_page);
      if (take == 0) {
        return OutOfRangeError("paged read past end of file");
      }
      std::memcpy(dst, page_.data() + in_page, take);
      pos_ += take;
      dst += take;
      n -= take;
    }
    return Status::Ok();
  }

  Result<uint8_t> U8() {
    uint8_t v;
    DBRE_RETURN_IF_ERROR(Read(&v, 1));
    return v;
  }
  Result<uint32_t> U32() {
    uint8_t b[4];
    DBRE_RETURN_IF_ERROR(Read(b, 4));
    return store::LoadU32(b);
  }
  Result<uint64_t> U64() {
    uint8_t b[8];
    DBRE_RETURN_IF_ERROR(Read(b, 8));
    return store::LoadU64(b);
  }

 private:
  BufferPool* pool_;
  uint32_t file_id_;
  uint64_t file_size_;
  uint64_t pos_;
  BufferPool::Page page_;
  uint32_t page_index_ = UINT32_MAX;
};

// Parses one dictionary entry. Tags were validated at open, so a surprise
// here is an internal fault, not user data.
Status ParseEntry(PoolStream* s, Value* out) {
  DBRE_ASSIGN_OR_RETURN(uint8_t tag, s->U8());
  switch (tag) {
    case kTagInt: {
      DBRE_ASSIGN_OR_RETURN(uint64_t bits, s->U64());
      *out = Value::Int(static_cast<int64_t>(bits));
      return Status::Ok();
    }
    case kTagReal: {
      DBRE_ASSIGN_OR_RETURN(uint64_t bits, s->U64());
      *out = Value::Real(std::bit_cast<double>(bits));
      return Status::Ok();
    }
    case kTagBool: {
      DBRE_ASSIGN_OR_RETURN(uint8_t b, s->U8());
      *out = Value::Boolean(b != 0);
      return Status::Ok();
    }
    case kTagString: {
      DBRE_ASSIGN_OR_RETURN(uint32_t n, s->U32());
      std::string text(n, '\0');
      // Oversized values simply span pages; Read assembles across pins.
      DBRE_RETURN_IF_ERROR(s->Read(text.data(), n));
      *out = Value::Text(std::move(text));
      return Status::Ok();
    }
    default:
      return InternalError("paged snapshot: unexpected value tag " +
                           std::to_string(tag));
  }
}

Status SkipEntry(PoolStream* s) {
  DBRE_ASSIGN_OR_RETURN(uint8_t tag, s->U8());
  switch (tag) {
    case kTagInt:
    case kTagReal:
      s->Skip(8);
      return Status::Ok();
    case kTagBool:
      s->Skip(1);
      return Status::Ok();
    case kTagString: {
      DBRE_ASSIGN_OR_RETURN(uint32_t n, s->U32());
      s->Skip(n);
      return Status::Ok();
    }
    default:
      return InternalError("paged snapshot: unexpected value tag " +
                           std::to_string(tag));
  }
}

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
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return IoError("open " + path + ": " + std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    int err = errno;
    ::close(fd);
    return IoError("fstat " + path + ": " + std::strerror(err));
  }
  uint64_t size = static_cast<uint64_t>(st.st_size);

  // Pass 1: per-page CRC32C of the raw file, re-verified by the pool on
  // every read-back.
  std::vector<uint32_t> page_crcs((size + kPageSize - 1) / kPageSize, 0);
  {
    std::vector<uint8_t> buffer(1u << 20);
    uint64_t off = 0;
    while (off < size) {
      size_t want = static_cast<size_t>(
          std::min<uint64_t>(buffer.size(), size - off));
      size_t got = 0;
      while (got < want) {
        ssize_t n = ::pread(fd, buffer.data() + got, want - got,
                            static_cast<off_t>(off + got));
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) {
          ::close(fd);
          return IoError("read " + path + ": " +
                         (n < 0 ? std::strerror(errno) : "unexpected EOF"));
        }
        got += static_cast<size_t>(n);
      }
      size_t consumed = 0;
      while (consumed < want) {
        uint64_t at = off + consumed;
        size_t page = static_cast<size_t>(at / kPageSize);
        size_t in_page = static_cast<size_t>(at % kPageSize);
        size_t take = std::min(want - consumed, kPageSize - in_page);
        page_crcs[page] =
            Crc32c(page_crcs[page], buffer.data() + consumed, take);
        consumed += take;
      }
      off += want;
    }
  }

  // Pass 2: structure + section checksums, mirroring store/snapshot.cc's
  // ParseLayout/LoadSnapshot verification and error text, without ever
  // materializing a row.
  auto fail = [&](Status status) {
    ::close(fd);
    return status;
  };
  if (Failpoints::Check("snapshot.crc").action !=
      FailpointHit::Action::kNone) {
    return fail(ParseError(
        "snapshot " + path +
        ": injected checksum mismatch (failpoint snapshot.crc)"));
  }
  if (size < sizeof(kSnapshotMagic) + 12 + kSnapshotFooterSize) {
    return fail(
        ParseError("snapshot " + path + ": bad magic or truncated header"));
  }
  SeqReader r(fd, size, path);
  char magic[8];
  DBRE_RETURN_IF_ERROR(r.Read(magic, sizeof(magic)));
  if (std::memcmp(magic, kSnapshotMagic, sizeof(magic)) != 0) {
    return fail(
        ParseError("snapshot " + path + ": bad magic or truncated header"));
  }
  DBRE_ASSIGN_OR_RETURN(uint64_t schema_size, r.U64());
  DBRE_ASSIGN_OR_RETURN(uint32_t schema_crc, r.U32());
  if (schema_size > size - r.pos() - kSnapshotFooterSize) {
    return fail(ParseError("snapshot " + path + ": schema blob exceeds file"));
  }
  std::vector<uint8_t> schema_blob(schema_size);
  DBRE_RETURN_IF_ERROR(r.Read(schema_blob.data(), schema_blob.size()));
  if (Crc32c(0, schema_blob.data(), schema_blob.size()) != schema_crc) {
    return fail(ParseError("snapshot " + path + ": schema checksum mismatch"));
  }
  Result<store::ParsedSchema> parsed =
      store::ParseSchemaBlob(schema_blob.data(), schema_blob.size());
  if (!parsed.ok()) return fail(parsed.status());
  const uint64_t rows = parsed->rows;
  const uint32_t columns = parsed->columns;
  const uint64_t pages_end = size - kSnapshotFooterSize;

  // Footer next, matching the whole-file loader's verification order (it
  // validates the footer before walking any column). The footer sits at
  // the end of the file, so read it directly.
  uint8_t footer[kSnapshotFooterSize];
  {
    size_t got = 0;
    while (got < sizeof(footer)) {
      ssize_t n = ::pread(fd, footer + got, sizeof(footer) - got,
                          static_cast<off_t>(pages_end + got));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        return fail(IoError("read " + path + ": " +
                            (n < 0 ? std::strerror(errno)
                                   : "unexpected EOF")));
      }
      got += static_cast<size_t>(n);
    }
  }
  const uint64_t fingerprint = store::LoadU64(footer);
  if (Crc32c(0, footer, 8) != store::LoadU32(footer + 8) ||
      std::memcmp(footer + 12, kSnapshotFooterMagic,
                  sizeof(kSnapshotFooterMagic)) != 0) {
    return fail(ParseError("snapshot " + path + ": footer checksum mismatch"));
  }
  if (rows >= EncodedTable::kNullCode) {
    return fail(
        ParseError("snapshot " + path + ": row count overflows encoding"));
  }

  auto snapshot = std::shared_ptr<PagedSnapshot>(new PagedSnapshot());
  snapshot->pool_ = pool;
  snapshot->file_size_ = size;
  snapshot->rows_ = rows;
  snapshot->schema_ = std::move(parsed->schema);
  snapshot->columns_.resize(columns);

  for (uint32_t c = 0; c < columns; ++c) {
    std::string page_name = "column page " + std::to_string(c);
    if (pages_end - r.pos() < 12) {
      return fail(
          ParseError("snapshot " + path + ": " + page_name + " truncated"));
    }
    DBRE_ASSIGN_OR_RETURN(uint64_t payload_size, r.U64());
    DBRE_ASSIGN_OR_RETURN(uint32_t payload_crc, r.U32());
    if (payload_size > pages_end - r.pos()) {
      return fail(
          ParseError("snapshot " + path + ": " + page_name + " truncated"));
    }
    Column& column = snapshot->columns_[c];
    column.payload_begin = r.pos();
    column.type = snapshot->schema_.attributes()[c].type;
    const uint64_t payload_end = column.payload_begin + payload_size;

    uint32_t crc = 0;
    Status structure = Status::Ok();
    if (payload_size < 5) {
      structure =
          ParseError("snapshot " + path + ": " + page_name + " is malformed");
    } else {
      uint8_t head[5];
      DBRE_RETURN_IF_ERROR(r.Read(head, 5));
      crc = Crc32c(crc, head, 5);
      column.dict_size = store::LoadU32(head);
      column.has_null = head[4] != 0;
      column.dict_begin = r.pos();
      column.fixed = column.type == DataType::kInt64 ||
                     column.type == DataType::kDouble;
      uint8_t expected_tag = 0;
      if (column.type == DataType::kInt64) expected_tag = kTagInt;
      if (column.type == DataType::kDouble) expected_tag = kTagReal;
      if (column.type == DataType::kBool) expected_tag = kTagBool;
      if (column.type == DataType::kString) expected_tag = kTagString;
      column.typed = true;

      if (column.fixed) {
        uint64_t dict_bytes =
            static_cast<uint64_t>(column.dict_size) * store::kFixedEntryBytes;
        if (payload_end - r.pos() < dict_bytes) {
          structure = ParseError("snapshot " + path + ": " + page_name +
                                 " is malformed");
        } else {
          // Verify every tag, folding the fixed entries into the CRC.
          std::vector<uint8_t> chunk;
          uint32_t remaining = column.dict_size;
          while (remaining > 0 && structure.ok()) {
            uint32_t batch = std::min<uint32_t>(remaining, 4096);
            chunk.resize(batch * store::kFixedEntryBytes);
            DBRE_RETURN_IF_ERROR(r.Read(chunk.data(), chunk.size()));
            crc = Crc32c(crc, chunk.data(), chunk.size());
            for (uint32_t i = 0; i < batch; ++i) {
              if (chunk[i * store::kFixedEntryBytes] != expected_tag) {
                structure = ParseError("snapshot " + path + ": " + page_name +
                                       " has a mistyped entry");
                break;
              }
            }
            remaining -= batch;
          }
        }
      } else {
        // Variable-width entries: validate tags/lengths, build the sparse
        // directory, and detect whether every entry matches the declared
        // type (mixed-type legacy pages fall back to untyped handling).
        column.directory.reserve(column.dict_size / kDictDirStride + 1);
        for (uint32_t i = 0; i < column.dict_size && structure.ok(); ++i) {
          if (i % kDictDirStride == 0) {
            column.directory.push_back(r.pos());
          }
          if (payload_end - r.pos() < 1) {
            structure = ParseError("snapshot " + path + ": " + page_name +
                                   " is malformed");
            break;
          }
          DBRE_ASSIGN_OR_RETURN(uint8_t tag, r.U8());
          crc = Crc32c(crc, &tag, 1);
          size_t entry_payload = 0;
          bool need_len = false;
          switch (tag) {
            case kTagInt:
            case kTagReal:
              entry_payload = 8;
              break;
            case kTagBool:
              entry_payload = 1;
              break;
            case kTagString:
              need_len = true;
              break;
            default:
              structure = ParseError("snapshot: unknown value tag " +
                                     std::to_string(tag));
              break;
          }
          if (!structure.ok()) break;
          if (tag != expected_tag) column.typed = false;
          if (need_len) {
            if (payload_end - r.pos() < 4) {
              structure = ParseError("snapshot " + path + ": " + page_name +
                                     " is malformed");
              break;
            }
            uint8_t len_bytes[4];
            DBRE_RETURN_IF_ERROR(r.Read(len_bytes, 4));
            crc = Crc32c(crc, len_bytes, 4);
            entry_payload = store::LoadU32(len_bytes);
          }
          if (payload_end - r.pos() < entry_payload) {
            structure = ParseError("snapshot " + path + ": " + page_name +
                                   " is malformed");
            break;
          }
          DBRE_RETURN_IF_ERROR(r.CrcSkip(entry_payload, &crc));
        }
      }
    }

    if (structure.ok()) {
      column.codes_begin = r.pos();
      if (payload_end - r.pos() != rows * 4) {
        structure = ParseError("snapshot " + path + ": " + page_name +
                               " is malformed");
      }
    }
    // Finish the payload CRC even if the structure was bad: a checksum
    // mismatch is the more fundamental diagnosis and wins, matching the
    // whole-file loader's error order.
    DBRE_RETURN_IF_ERROR(r.CrcSkip(payload_end - r.pos(), &crc));
    if (crc != payload_crc) {
      return fail(ParseError("snapshot " + path + ": " + page_name +
                             " checksum mismatch"));
    }
    if (!structure.ok()) return fail(structure);
  }

  if (r.pos() != pages_end) {
    return fail(
        ParseError("snapshot " + path + ": trailing bytes after pages"));
  }
  snapshot->fingerprint_ = fingerprint;
  ::close(fd);

  DBRE_ASSIGN_OR_RETURN(snapshot->file_id_,
                        pool->AttachFile(path, std::move(page_crcs)));
  return snapshot;
}

PagedSnapshot::~PagedSnapshot() {
  if (pool_ != nullptr && file_id_ != 0) pool_->DetachFile(file_id_);
}

std::unique_ptr<PagedCodeCursor> PagedSnapshot::Codes(size_t column) const {
  return std::make_unique<SnapshotCodeCursor>(
      shared_from_this(), columns_[column].codes_begin);
}

Status PagedSnapshot::ReadBytes(uint64_t off, size_t n, uint8_t* out) const {
  PoolStream stream(pool_.get(), file_id_, file_size_, off);
  return stream.Read(out, n);
}

Result<Value> PagedSnapshot::DictValueAt(size_t column, uint32_t code) const {
  const Column& col = columns_[column];
  if (code >= col.dict_size) {
    return OutOfRangeError("dictionary code " + std::to_string(code) +
                           " out of range for column " +
                           std::to_string(column));
  }
  if (col.fixed) {
    uint8_t entry[store::kFixedEntryBytes];
    DBRE_RETURN_IF_ERROR(ReadBytes(
        col.dict_begin + static_cast<uint64_t>(code) * store::kFixedEntryBytes,
        store::kFixedEntryBytes, entry));
    uint64_t bits = store::LoadU64(entry + 1);
    return col.type == DataType::kInt64
               ? Value::Int(static_cast<int64_t>(bits))
               : Value::Real(std::bit_cast<double>(bits));
  }
  uint32_t dir_slot = code / kDictDirStride;
  PoolStream stream(pool_.get(), file_id_, file_size_,
                    col.directory[dir_slot]);
  for (uint32_t i = dir_slot * kDictDirStride; i < code; ++i) {
    DBRE_RETURN_IF_ERROR(SkipEntry(&stream));
  }
  Value value;
  DBRE_RETURN_IF_ERROR(ParseEntry(&stream, &value));
  return value;
}

Status PagedSnapshot::WalkDict(
    size_t column, uint32_t first, uint32_t count, uint64_t entry_off,
    const std::function<void(uint32_t, const Value&)>& fn) const {
  const Column& col = columns_[column];
  PoolStream stream(pool_.get(), file_id_, file_size_, entry_off);
  Value value;
  for (uint32_t i = 0; i < count; ++i) {
    if (col.fixed) {
      uint8_t entry[store::kFixedEntryBytes];
      DBRE_RETURN_IF_ERROR(stream.Read(entry, store::kFixedEntryBytes));
      uint64_t bits = store::LoadU64(entry + 1);
      value = col.type == DataType::kInt64
                  ? Value::Int(static_cast<int64_t>(bits))
                  : Value::Real(std::bit_cast<double>(bits));
    } else {
      DBRE_RETURN_IF_ERROR(ParseEntry(&stream, &value));
    }
    fn(first + i, value);
  }
  return Status::Ok();
}

Status PagedSnapshot::ForEachDictValue(
    size_t column,
    const std::function<void(uint32_t code, const Value& value)>& fn) const {
  const Column& col = columns_[column];
  return WalkDict(column, 0, col.dict_size, col.dict_begin, fn);
}

Result<std::shared_ptr<PagedSnapshot>> OpenSnapshotPaged(
    const std::string& path, std::shared_ptr<BufferPool> pool) {
  return PagedSnapshot::Open(path, std::move(pool));
}

}  // namespace dbre::pagestore
