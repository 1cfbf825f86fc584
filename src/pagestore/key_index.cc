#include "pagestore/key_index.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/failpoint.h"
#include "relational/value.h"
#include "store/crc32c.h"
#include "store/snapshot_format.h"

namespace dbre::pagestore {
namespace {

constexpr char kIndexMagic[8] = {'D', 'B', 'R', 'E', 'I', 'D', 'X', '1'};
constexpr size_t kIndexHeaderSize = 32;
constexpr size_t kEntryBytes = 12;

[[noreturn]] void DieIndexIo(const Status& status) {
  std::fprintf(stderr,
               "dbre pagestore: unrecoverable index I/O failure: %s\n",
               status.ToString().c_str());
  std::abort();
}

// Folds `n` bytes that live at absolute file offset `off` into the
// per-kPageSize-page CRC accumulators.
void FoldPages(uint64_t off, const uint8_t* data, size_t n,
               std::vector<uint32_t>* page_crcs) {
  size_t consumed = 0;
  while (consumed < n) {
    uint64_t at = off + consumed;
    size_t page = static_cast<size_t>(at / kPageSize);
    size_t in_page = static_cast<size_t>(at % kPageSize);
    size_t take = std::min(n - consumed, kPageSize - in_page);
    if (page >= page_crcs->size()) page_crcs->resize(page + 1, 0);
    (*page_crcs)[page] =
        store::Crc32c((*page_crcs)[page], data + consumed, take);
    consumed += take;
  }
}

Status WriteFileAtomic(const std::string& path, const std::string& bytes) {
  FailpointHit hit = Failpoints::Check("pagestore.index_write");
  size_t limit = bytes.size();
  bool fail_after = false;
  if (hit.action == FailpointHit::Action::kError) {
    return IoError("injected failure (failpoint pagestore.index_write)");
  }
  if (hit.action == FailpointHit::Action::kTorn) {
    limit = std::min(limit, hit.torn_bytes);
    fail_after = true;
  }
  std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
  if (fd < 0) {
    return IoError("open " + tmp + ": " + std::strerror(errno));
  }
  size_t off = 0;
  while (off < limit) {
    ssize_t n = ::write(fd, bytes.data() + off, limit - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      int err = errno;
      ::close(fd);
      ::unlink(tmp.c_str());
      return IoError("write " + tmp + ": " + std::strerror(err));
    }
    off += static_cast<size_t>(n);
  }
  if (fail_after) {
    // Torn write: leave the truncated temp file behind (load will reject
    // it by size/CRC) and report the failure.
    ::close(fd);
    return IoError("injected torn write (failpoint pagestore.index_write)");
  }
  if (::fsync(fd) != 0) {
    int err = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    return IoError("fsync " + tmp + ": " + std::strerror(err));
  }
  if (::close(fd) != 0) {
    return IoError("close " + tmp + ": " + std::strerror(errno));
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    int err = errno;
    ::unlink(tmp.c_str());
    return IoError("rename " + tmp + ": " + std::strerror(err));
  }
  return Status::Ok();
}

// Streams an existing spilled index, validating it against the snapshot
// it claims to index. Returns the page CRCs and fence keys on success.
struct LoadedIndex {
  uint64_t count = 0;
  bool exact = false;
  std::vector<uint32_t> page_crcs;
  std::vector<uint64_t> fences;
};

Result<LoadedIndex> StreamAndValidate(const std::string& path,
                                      uint64_t fingerprint, uint32_t column,
                                      uint32_t dict_size, bool want_exact) {
  DBRE_RETURN_IF_ERROR(FailpointError("pagestore.index_load"));
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return IoError("open " + path + ": " + std::strerror(errno));
  }
  auto fail = [&](Status status) {
    ::close(fd);
    return status;
  };
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    return fail(IoError("fstat " + path + ": " + std::strerror(errno)));
  }
  uint64_t size = static_cast<uint64_t>(st.st_size);
  if (size < kIndexHeaderSize + 4) {
    return fail(ParseError("index " + path + ": truncated header"));
  }

  auto read_exact = [&](uint64_t off, void* out, size_t n) -> Status {
    uint8_t* dst = static_cast<uint8_t*>(out);
    size_t got = 0;
    while (got < n) {
      ssize_t r = ::pread(fd, dst + got, n - got,
                          static_cast<off_t>(off + got));
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) {
        return IoError("read " + path + ": " +
                       (r < 0 ? std::strerror(errno) : "unexpected EOF"));
      }
      got += static_cast<size_t>(r);
    }
    return Status::Ok();
  };

  uint8_t header[kIndexHeaderSize];
  DBRE_RETURN_IF_ERROR(read_exact(0, header, sizeof(header)));
  if (std::memcmp(header, kIndexMagic, sizeof(kIndexMagic)) != 0) {
    return fail(ParseError("index " + path + ": bad magic"));
  }
  uint64_t file_fp = store::LoadU64(header + 8);
  uint32_t file_column = store::LoadU32(header + 16);
  uint64_t count = store::LoadU64(header + 20);
  bool exact = header[28] != 0;
  if (file_fp != fingerprint || file_column != column ||
      count != dict_size || exact != want_exact) {
    return fail(ParseError("index " + path +
                           ": does not match the snapshot"));
  }
  if (size != kIndexHeaderSize + count * kEntryBytes + 4) {
    return fail(ParseError("index " + path + ": wrong size"));
  }

  LoadedIndex out;
  out.count = count;
  out.exact = exact;
  out.page_crcs.assign((size + kPageSize - 1) / kPageSize, 0);
  uint32_t crc = store::Crc32c(0, header, sizeof(header));
  FoldPages(0, header, sizeof(header), &out.page_crcs);

  // Entry-aligned chunks, so fence keys never straddle a chunk boundary.
  constexpr size_t kChunkEntries = 87040;  // ~1MB
  std::vector<uint8_t> chunk(kChunkEntries * kEntryBytes);
  uint64_t entry = 0;
  uint64_t off = kIndexHeaderSize;
  while (entry < count) {
    size_t batch = static_cast<size_t>(
        std::min<uint64_t>(kChunkEntries, count - entry));
    size_t bytes = batch * kEntryBytes;
    DBRE_RETURN_IF_ERROR(read_exact(off, chunk.data(), bytes));
    crc = store::Crc32c(crc, chunk.data(), bytes);
    FoldPages(off, chunk.data(), bytes, &out.page_crcs);
    for (uint64_t f = (entry + kFenceStride - 1) / kFenceStride;
         f * kFenceStride < entry + batch; ++f) {
      size_t at = static_cast<size_t>(f * kFenceStride - entry) * kEntryBytes;
      out.fences.push_back(store::LoadU64(chunk.data() + at));
    }
    entry += batch;
    off += bytes;
  }
  uint8_t trailer[4];
  DBRE_RETURN_IF_ERROR(read_exact(off, trailer, 4));
  FoldPages(off, trailer, 4, &out.page_crcs);
  if (store::LoadU32(trailer) != crc) {
    return fail(ParseError("index " + path + ": checksum mismatch"));
  }
  ::close(fd);
  return out;
}

}  // namespace

Result<std::shared_ptr<SnapshotKeyIndex>> SnapshotKeyIndex::Create(
    const PagedSnapshot& snap, size_t column) {
  const bool exact = snap.typed(column) &&
                     snap.declared_type(column) == DataType::kInt64;
  const uint32_t dict_size = snap.dict_size(column);
  std::string path =
      snap.path() + ".c" + std::to_string(column) + ".idx";

  auto finish = [&](std::vector<uint32_t> page_crcs,
                    std::vector<uint64_t> fences)
      -> Result<std::shared_ptr<SnapshotKeyIndex>> {
    auto index = std::shared_ptr<SnapshotKeyIndex>(new SnapshotKeyIndex());
    index->pool_ = snap.pool_;
    index->path_ = path;
    index->count_ = dict_size;
    index->exact_ = exact;
    index->fences_ = std::move(fences);
    DBRE_ASSIGN_OR_RETURN(
        index->file_id_,
        index->pool_->AttachFile(path, std::move(page_crcs)));
    return index;
  };

  // Content-addressed reuse: a spilled index naming this snapshot's
  // fingerprint and column, with a clean checksum, is the same sorted run
  // we would rebuild. Any validation failure falls through to a rebuild.
  if (::access(path.c_str(), R_OK) == 0) {
    Result<LoadedIndex> loaded = StreamAndValidate(
        path, snap.fingerprint(), static_cast<uint32_t>(column), dict_size,
        exact);
    if (loaded.ok()) {
      return finish(std::move(loaded->page_crcs), std::move(loaded->fences));
    }
  }

  // Build: stream the dictionary, sort the (key, code) run in memory
  // (O(dict_size) * 12 bytes transient), spill tmp+rename.
  struct Entry {
    uint64_t key;
    uint32_t code;
  };
  std::vector<Entry> entries;
  entries.reserve(dict_size);
  DBRE_RETURN_IF_ERROR(snap.ForEachDictValue(
      column, [&](uint32_t code, const Value& value) {
        uint64_t key = exact ? static_cast<uint64_t>(value.as_int())
                             : SketchHash(value);
        entries.push_back(Entry{key, code});
      }));
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              return a.key != b.key ? a.key < b.key : a.code < b.code;
            });

  store::Writer w;
  w.out.reserve(kIndexHeaderSize + entries.size() * kEntryBytes + 4);
  w.out.append(kIndexMagic, sizeof(kIndexMagic));
  w.U64(snap.fingerprint());
  w.U32(static_cast<uint32_t>(column));
  w.U64(entries.size());
  w.U8(exact ? 1 : 0);
  w.U8(0);
  w.U8(0);
  w.U8(0);
  std::vector<uint64_t> fences;
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i % kFenceStride == 0) fences.push_back(entries[i].key);
    w.U64(entries[i].key);
    w.U32(entries[i].code);
  }
  uint32_t crc = store::Crc32c(0, w.out.data(), w.out.size());
  w.U32(crc);

  DBRE_RETURN_IF_ERROR(WriteFileAtomic(path, w.out));
  std::vector<uint32_t> page_crcs(
      (w.out.size() + kPageSize - 1) / kPageSize, 0);
  FoldPages(0, reinterpret_cast<const uint8_t*>(w.out.data()), w.out.size(),
            &page_crcs);
  return finish(std::move(page_crcs), std::move(fences));
}

SnapshotKeyIndex::~SnapshotKeyIndex() {
  if (pool_ != nullptr && file_id_ != 0) pool_->DetachFile(file_id_);
}

void SnapshotKeyIndex::EntryBytes(uint64_t byte_off, size_t n, uint8_t* out,
                                  BufferPool::Page* page,
                                  uint32_t* page_index) const {
  size_t got = 0;
  while (got < n) {
    uint64_t at = byte_off + got;
    uint32_t p = static_cast<uint32_t>(at / kPageSize);
    if (p != *page_index || page->data() == nullptr) {
      Result<BufferPool::Page> pinned = pool_->Pin(file_id_, p);
      if (!pinned.ok()) DieIndexIo(pinned.status());
      *page = std::move(pinned).value();
      *page_index = p;
    }
    size_t in_page = static_cast<size_t>(at % kPageSize);
    size_t take = std::min(n - got, page->size() - in_page);
    std::memcpy(out + got, page->data() + in_page, take);
    got += take;
  }
}

uint64_t SnapshotKeyIndex::EntryKey(uint64_t i, BufferPool::Page* page,
                                    uint32_t* page_index) const {
  uint8_t b[8];
  EntryBytes(kIndexHeaderSize + i * kEntryBytes, 8, b, page, page_index);
  return store::LoadU64(b);
}

uint32_t SnapshotKeyIndex::EntryCode(uint64_t i, BufferPool::Page* page,
                                     uint32_t* page_index) const {
  uint8_t b[4];
  EntryBytes(kIndexHeaderSize + i * kEntryBytes + 8, 4, b, page, page_index);
  return store::LoadU32(b);
}

uint64_t SnapshotKeyIndex::LowerBound(uint64_t key, uint64_t lo, uint64_t hi,
                                      BufferPool::Page* page,
                                      uint32_t* page_index) const {
  while (lo < hi) {
    uint64_t mid = lo + (hi - lo) / 2;
    if (EntryKey(mid, page, page_index) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void SnapshotKeyIndex::ProbeRange(uint64_t key, uint64_t* lo,
                                  uint64_t* hi) const {
  // Entries before the last fence < key are all < key; entries from the
  // first fence > key onward are all > key.
  auto first_ge = std::lower_bound(fences_.begin(), fences_.end(), key);
  size_t lo_block =
      first_ge == fences_.begin()
          ? 0
          : static_cast<size_t>(first_ge - fences_.begin()) - 1;
  auto first_gt = std::upper_bound(fences_.begin(), fences_.end(), key);
  size_t hi_block = static_cast<size_t>(first_gt - fences_.begin());
  *lo = static_cast<uint64_t>(lo_block) * kFenceStride;
  *hi = std::min(count_, static_cast<uint64_t>(hi_block) * kFenceStride);
}

bool SnapshotKeyIndex::ContainsKey(uint64_t key) const {
  if (count_ == 0) return false;
  uint64_t lo, hi;
  ProbeRange(key, &lo, &hi);
  if (lo >= hi) return false;
  BufferPool::Page page;
  uint32_t page_index = UINT32_MAX;
  uint64_t at = LowerBound(key, lo, hi, &page, &page_index);
  return at < count_ && EntryKey(at, &page, &page_index) == key;
}

Status SnapshotKeyIndex::ForEachCode(
    uint64_t key, const std::function<bool(uint32_t code)>& fn) const {
  if (count_ == 0) return Status::Ok();
  uint64_t lo, hi;
  ProbeRange(key, &lo, &hi);
  if (lo >= hi) return Status::Ok();
  BufferPool::Page page;
  uint32_t page_index = UINT32_MAX;
  for (uint64_t at = LowerBound(key, lo, hi, &page, &page_index);
       at < count_ && EntryKey(at, &page, &page_index) == key; ++at) {
    if (!fn(EntryCode(at, &page, &page_index))) break;
  }
  return Status::Ok();
}

}  // namespace dbre::pagestore
