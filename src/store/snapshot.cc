#include "store/snapshot.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/failpoint.h"
#include "common/retry.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "relational/encoded_table.h"
#include "relational/extension_registry.h"
#include "store/crc32c.h"
#include "store/snapshot_format.h"

namespace dbre::store {
namespace {

struct SnapshotMetrics {
  obs::Counter* bytes_written;
  obs::Counter* bytes_read;
  obs::Counter* retries;
  obs::Histogram* write_us;
  obs::Histogram* load_us;
};

const SnapshotMetrics& Metrics() {
  static const SnapshotMetrics metrics = [] {
    obs::Registry& registry = obs::Registry::Default();
    return SnapshotMetrics{
        registry.GetCounter("dbre_snapshot_bytes_written_total", {},
                            "Bytes written to snapshot files"),
        registry.GetCounter(
            "dbre_snapshot_bytes_read_total", {},
            "Bytes read from snapshot files by whole-file loads"),
        registry.GetCounter("dbre_snapshot_retries_total", {},
                            "Snapshot write attempts retried after an error"),
        registry.GetHistogram("dbre_snapshot_write_us", {},
                              "Snapshot encode+write+fsync latency"),
        registry.GetHistogram("dbre_snapshot_load_us", {},
                              "Snapshot verify+materialize latency"),
    };
  }();
  return metrics;
}

// Format constants, Writer/Reader and the entry/schema codecs live in
// store/snapshot_format.h; short local names for the constants.
constexpr auto& kMagic = kSnapshotMagic;
constexpr auto& kFooterMagic = kSnapshotFooterMagic;
constexpr size_t kFooterSize = kSnapshotFooterSize;

// One write-tmp/fsync/rename attempt. The tmp file is recreated from
// scratch (O_TRUNC), so a failed attempt leaves nothing a retry has to
// clean up — WriteFileAtomic retries the whole attempt on IO errors.
Status WriteFileAtomicOnce(const std::string& path, const std::string& bytes) {
  std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return IoError("open " + tmp + ": " + std::strerror(errno));
  }
  size_t limit = bytes.size();
  bool injected = false;
  FailpointHit hit = Failpoints::Check("snapshot.write");
  if (hit.action == FailpointHit::Action::kError) {
    limit = 0;
    injected = true;
  } else if (hit.action == FailpointHit::Action::kTorn) {
    limit = std::min(limit, hit.torn_bytes);
    injected = true;
  }
  size_t off = 0;
  while (off < limit) {
    ssize_t n = ::write(fd, bytes.data() + off, limit - off);
    if (n < 0) {
      int err = errno;
      ::close(fd);
      ::unlink(tmp.c_str());
      return IoError("write " + tmp + ": " + std::strerror(err));
    }
    off += static_cast<size_t>(n);
  }
  if (injected) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return IoError("write " + tmp +
                   ": injected failure (failpoint snapshot.write)");
  }
  Status fsync_status = FailpointError("snapshot.fsync");
  if (fsync_status.ok() && ::fsync(fd) != 0) {
    fsync_status = IoError("fsync " + tmp + ": " + std::strerror(errno));
  }
  if (!fsync_status.ok()) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return fsync_status;
  }
  ::close(fd);
  Status rename_status = FailpointError("snapshot.rename");
  if (rename_status.ok() && ::rename(tmp.c_str(), path.c_str()) != 0) {
    rename_status = IoError("rename " + tmp + ": " + std::strerror(errno));
  }
  if (!rename_status.ok()) {
    ::unlink(tmp.c_str());
    return rename_status;
  }
  // Make the rename itself durable.
  size_t slash = path.find_last_of('/');
  std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return Status::Ok();
}

Status WriteFileAtomic(const std::string& path, const std::string& bytes) {
  RetryPolicy policy;
  policy.on_retry = [](int, const Status&) { Metrics().retries->Add(1); };
  return RetryWithBackoff(
      policy, [&] { return WriteFileAtomicOnce(path, bytes); });
}

}  // namespace

Result<SnapshotInfo> WriteSnapshot(const Table& table,
                                   const std::string& path) {
  obs::TraceSpan span("snapshot:write", nullptr, Metrics().write_us,
                      obs::Registry::Default().slow_ops());
  span.set_detail(path);
  if (table.is_paged()) {
    // A paged extension already lives in a snapshot; re-serializing it
    // would copy the file through the buffer pool for nothing.
    return FailedPreconditionError("relation " + table.schema().name() +
                                   " is paged; its snapshot already exists");
  }
  // The table's own codes and dictionaries are the page payloads.
  const EncodedTable& encoded = table.extension();
  uint64_t fingerprint = ExtensionRegistry::ComputeFingerprint(table);

  Writer file;
  file.out.append(kMagic, sizeof(kMagic));

  std::string schema_blob = BuildSchemaBlob(table.schema(), table.num_rows());
  file.U64(schema_blob.size());
  file.U32(Crc32c(schema_blob));
  file.out.append(schema_blob);

  for (size_t c = 0; c < encoded.num_columns(); ++c) {
    Writer page;
    page.U32(static_cast<uint32_t>(encoded.dict_size(c)));
    page.U8(encoded.has_null(c) ? 1 : 0);
    for (uint32_t code = 0; code < encoded.dict_size(c); ++code) {
      AppendValue(&page, encoded.Decode(c, code));
    }
    for (uint32_t code : encoded.codes(c)) page.U32(code);
    file.U64(page.out.size());
    file.U32(Crc32c(page.out));
    file.out.append(page.out);
  }

  file.U64(fingerprint);
  unsigned char fp_bytes[8];
  for (int i = 0; i < 8; ++i) {
    fp_bytes[i] = static_cast<unsigned char>(fingerprint >> (i * 8));
  }
  file.U32(Crc32c(0, fp_bytes, sizeof(fp_bytes)));
  file.out.append(kFooterMagic, sizeof(kFooterMagic));

  DBRE_RETURN_IF_ERROR(WriteFileAtomic(path, file.out));
  Metrics().bytes_written->Add(file.out.size());

  SnapshotInfo info;
  info.fingerprint = fingerprint;
  info.rows = table.num_rows();
  info.columns = static_cast<uint32_t>(table.schema().arity());
  info.relation = table.schema().name();
  info.file_bytes = file.out.size();
  return info;
}

namespace {

// The scan reads through this much buffer; the identity probe, which reads
// only the header and the schema section, through a small one. A restart
// runs one scan per pool thread at once, and 64 KiB reads as fast as a
// larger buffer while keeping those scans' peak memory small.
constexpr size_t kScanBufferBytes = 64 << 10;
constexpr size_t kProbeBufferBytes = 4 << 10;

// Reads a file front to back through one buffer, so a scan reads each byte
// once. Reads return whether they could and keep the first error.
// TakeCrc returns the CRC32C of the bytes consumed since the last call;
// with FoldPages, every byte read also folds into a CRC32C per page.
class FileStream {
 public:
  static Result<std::unique_ptr<FileStream>> Open(const std::string& path,
                                                  size_t buffer_bytes) {
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
    return std::unique_ptr<FileStream>(new FileStream(
        fd, static_cast<uint64_t>(st.st_size), path, buffer_bytes));
  }

  FileStream(const FileStream&) = delete;
  FileStream& operator=(const FileStream&) = delete;
  ~FileStream() { ::close(fd_); }

  uint64_t size() const { return size_; }
  uint64_t pos() const { return base_ + cursor_; }
  const Status& status() const { return status_; }

  bool Read(void* out, size_t n) {
    return Consume(static_cast<unsigned char*>(out), n);
  }
  bool Skip(uint64_t n) { return Consume(nullptr, n); }

  // Reads `n` bytes at `offset`, outside the stream (the footer).
  bool ReadAt(uint64_t offset, void* out, size_t n) {
    unsigned char* to = static_cast<unsigned char*>(out);
    while (n > 0) {
      ssize_t got = ::pread(fd_, to, n, static_cast<off_t>(offset));
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) {
        return Fail(IoError("read " + path_ + ": " +
                            (got < 0 ? std::strerror(errno)
                                     : "unexpected EOF")));
      }
      to += got;
      offset += static_cast<uint64_t>(got);
      n -= static_cast<size_t>(got);
    }
    return true;
  }

  uint32_t TakeCrc() {
    FoldCrc();
    const uint32_t crc = crc_;
    crc_ = 0;
    return crc;
  }

  void FoldPages(uint64_t page_size) {
    page_size_ = page_size;
    page_crcs_.assign((size_ + page_size - 1) / page_size, 0);
  }
  std::vector<uint32_t> TakePageCrcs() { return std::move(page_crcs_); }

 private:
  FileStream(int fd, uint64_t size, std::string path, size_t buffer_bytes)
      : fd_(fd), size_(size), path_(std::move(path)), buffer_(buffer_bytes) {}

  // Moves `n` bytes past the cursor, copying them to `out` unless null.
  bool Consume(unsigned char* out, uint64_t n) {
    while (n > 0) {
      if (cursor_ == length_ && !Fill()) return false;
      const size_t take =
          static_cast<size_t>(std::min<uint64_t>(n, length_ - cursor_));
      if (out != nullptr) {
        std::memcpy(out, buffer_.data() + cursor_, take);
        out += take;
      }
      cursor_ += take;
      n -= take;
    }
    return true;
  }

  void FoldCrc() {
    crc_ = Crc32c(crc_, buffer_.data() + crc_from_, cursor_ - crc_from_);
    crc_from_ = cursor_;
  }

  // Replaces the fully consumed buffer with the file's next bytes.
  bool Fill() {
    FoldCrc();
    base_ += length_;
    cursor_ = 0;
    crc_from_ = 0;
    length_ = 0;
    const size_t want =
        static_cast<size_t>(std::min<uint64_t>(buffer_.size(), size_ - base_));
    if (want == 0) return Fail(IoError("read " + path_ + ": unexpected EOF"));
    if (!ReadAt(base_, buffer_.data(), want)) return false;
    length_ = want;
    for (size_t done = 0; page_size_ != 0 && done < want;) {
      const uint64_t at = base_ + done;
      const size_t take = static_cast<size_t>(
          std::min<uint64_t>(want - done, page_size_ - at % page_size_));
      uint32_t& crc = page_crcs_[at / page_size_];
      crc = Crc32c(crc, buffer_.data() + done, take);
      done += take;
    }
    return true;
  }

  bool Fail(Status status) {
    if (status_.ok()) status_ = std::move(status);
    return false;
  }

  const int fd_;
  const uint64_t size_;
  const std::string path_;
  std::vector<unsigned char> buffer_;
  uint64_t base_ = 0;    // file offset of buffer_[0]
  size_t length_ = 0;    // bytes of buffer_ holding file data
  size_t cursor_ = 0;    // bytes of buffer_ consumed
  size_t crc_from_ = 0;  // consumed bytes before this are in crc_
  uint32_t crc_ = 0;
  Status status_;
  uint64_t page_size_ = 0;
  std::vector<uint32_t> page_crcs_;
};

// One column page's payload as a byte source for the entry codec: a read
// past the payload's end fails as a malformed page.
class PayloadSource {
 public:
  PayloadSource(FileStream* in, uint64_t end, std::string page)
      : in_(in), end_(end), page_(std::move(page)) {}

  uint64_t pos() const { return in_->pos(); }
  uint64_t remaining() const { return end_ - in_->pos(); }
  const Status& status() const { return status_; }

  bool Read(void* out, size_t n) {
    if (n > remaining()) return Fail(Reject("is malformed"));
    return in_->Read(out, n) || Fail(in_->status());
  }
  bool Skip(uint64_t n) {
    if (n > remaining()) return Fail(Reject("is malformed"));
    return in_->Skip(n) || Fail(in_->status());
  }
  bool Fail(Status status) {
    if (status_.ok()) status_ = std::move(status);
    return false;
  }

  // "snapshot <path>: column page <c> <what>".
  Status Reject(const std::string& what) const {
    return ParseError(page_ + " " + what);
  }

 private:
  FileStream* in_;
  uint64_t end_;
  std::string page_;
  Status status_;
};

// The magic, the schema section and the footer, each verified, as a
// ScannedSnapshot with no column read yet; the stream is left at the first
// column page.
Result<ScannedSnapshot> ReadFront(FileStream& in, const std::string& path) {
  if (Failpoints::Check("snapshot.crc").action != FailpointHit::Action::kNone) {
    return ParseError("snapshot " + path +
                      ": injected checksum mismatch (failpoint snapshot.crc)");
  }
  const uint64_t size = in.size();
  unsigned char header[sizeof(kMagic) + 12];
  if (size < sizeof(header) + kFooterSize) {
    return ParseError("snapshot " + path + ": bad magic or truncated header");
  }
  if (!in.Read(header, sizeof(header))) return in.status();
  if (std::memcmp(header, kMagic, sizeof(kMagic)) != 0) {
    return ParseError("snapshot " + path + ": bad magic or truncated header");
  }
  const uint64_t schema_size = LoadU64(header + sizeof(kMagic));
  const uint32_t schema_crc = LoadU32(header + sizeof(kMagic) + 8);
  if (schema_size > size - sizeof(header) - kFooterSize) {
    return ParseError("snapshot " + path + ": schema blob exceeds file");
  }
  std::vector<unsigned char> blob(schema_size);
  if (!in.Read(blob.data(), blob.size())) return in.status();
  if (Crc32c(0, blob.data(), blob.size()) != schema_crc) {
    return ParseError("snapshot " + path + ": schema checksum mismatch");
  }
  DBRE_ASSIGN_OR_RETURN(ParsedSchema parsed,
                        ParseSchemaBlob(blob.data(), blob.size()));

  unsigned char footer[kFooterSize];
  if (!in.ReadAt(size - kFooterSize, footer, kFooterSize)) return in.status();
  if (Crc32c(0, footer, 8) != LoadU32(footer + 8) ||
      std::memcmp(footer + 12, kFooterMagic, sizeof(kFooterMagic)) != 0) {
    return ParseError("snapshot " + path + ": footer checksum mismatch");
  }
  ScannedSnapshot front;
  front.schema = std::move(parsed.schema);
  front.rows = parsed.rows;
  front.fingerprint = LoadU64(footer);
  front.file_bytes = size;
  front.columns.resize(parsed.columns);
  return front;
}

// One column page as the scan reads it. The dictionary and the codes are
// kept only when decoding; otherwise the codes stream through CodeCheck.
struct ScannedPage {
  ColumnLayout layout;
  std::vector<Value> dictionary;
  std::vector<uint32_t> codes;
};

// Reads a column page's payload: the dictionary, then the codes. A rejected
// payload returns its kParseError with the stream somewhere inside the
// payload; the caller still finishes the page's checksum, which wins.
Status ReadPayload(PayloadSource& payload, DataType type, uint64_t rows,
                   const ScanOptions& options, ScannedPage* page) {
  ColumnLayout& layout = page->layout;
  unsigned char head[5];  // dict_size, then has_null (taken from the codes)
  if (!payload.Read(head, sizeof(head))) return payload.status();
  layout.dict_size = LoadU32(head);
  layout.dict_begin = payload.pos();

  const uint8_t fixed_tag = FixedTag(type);
  if (fixed_tag != 0 &&
      payload.remaining() < uint64_t{layout.dict_size} * kFixedEntryBytes) {
    return payload.Reject("is malformed");
  }
  // Every entry takes at least two bytes: reserve no more than fits.
  const uint64_t room =
      std::min<uint64_t>(layout.dict_size, payload.remaining() / 2);
  if (options.decode) page->dictionary.reserve(room);
  if (fixed_tag != 0) {
    // Fixed-width entries come a chunk at a time: every tag is checked,
    // then each entry decodes from the chunk when wanted.
    unsigned char chunk[256 * kFixedEntryBytes];
    for (uint32_t i = 0; i < layout.dict_size;) {
      const uint32_t n = std::min<uint32_t>(layout.dict_size - i, 256);
      if (!payload.Read(chunk, n * kFixedEntryBytes)) return payload.status();
      for (uint32_t k = 0; k < n; ++k) {
        if (chunk[k * kFixedEntryBytes] != fixed_tag) {
          return payload.Reject("has a mistyped entry");
        }
      }
      Reader entries{chunk, n * kFixedEntryBytes};
      while (options.decode && entries.remaining() > 0) {
        if (!ReadEntry(entries, &page->dictionary.emplace_back())) {
          return payload.Reject("is malformed");
        }
      }
      i += n;
    }
  } else {
    const uint8_t tag = EntryTag(type);
    const uint32_t stride = options.directory_stride;
    if (stride != 0) layout.directory.reserve(room / stride + 1);
    for (uint32_t i = 0; i < layout.dict_size; ++i) {
      if (stride != 0 && i % stride == 0) {
        layout.directory.push_back(payload.pos());
      }
      uint8_t entry_tag = 0;
      if (!payload.Read(&entry_tag, 1)) return payload.status();
      if (entry_tag != tag) return payload.Reject("has a mistyped entry");
      Value* value =
          options.decode ? &page->dictionary.emplace_back() : nullptr;
      if (!ReadEntryAfterTag(payload, tag, value)) return payload.status();
    }
  }

  layout.codes_begin = payload.pos();
  if (payload.remaining() != rows * 4) return payload.Reject("is malformed");
  if (options.decode) {
    // AdoptColumn checks these once the page's checksum holds.
    page->codes.resize(rows);
    if (!payload.Read(page->codes.data(), rows * 4)) return payload.status();
    if constexpr (std::endian::native == std::endian::big) {
      for (uint32_t& code : page->codes) code = __builtin_bswap32(code);
    }
    return Status::Ok();
  }
  EncodedTable::CodeCheck check(layout.dict_size);
  uint32_t batch[4096];
  for (uint64_t row = 0; row < rows;) {
    const size_t n = static_cast<size_t>(
        std::min<uint64_t>(rows - row, sizeof(batch) / sizeof(batch[0])));
    if (!payload.Read(batch, n * 4)) return payload.status();
    if constexpr (std::endian::native == std::endian::big) {
      for (size_t i = 0; i < n; ++i) batch[i] = __builtin_bswap32(batch[i]);
    }
    Status checked = check.Feed(batch, n);
    if (!checked.ok()) return payload.Reject("has " + checked.message());
    row += n;
  }
  Status checked = check.Finish();
  if (!checked.ok()) return payload.Reject("has " + checked.message());
  layout.has_null = check.has_null();
  return Status::Ok();
}

}  // namespace

Result<SnapshotInfo> ReadSnapshotInfo(const std::string& path) {
  DBRE_RETURN_IF_ERROR(FailpointError("snapshot.open"));
  DBRE_ASSIGN_OR_RETURN(std::unique_ptr<FileStream> in,
                        FileStream::Open(path, kProbeBufferBytes));
  DBRE_ASSIGN_OR_RETURN(ScannedSnapshot front, ReadFront(*in, path));
  SnapshotInfo info;
  info.fingerprint = front.fingerprint;
  info.rows = front.rows;
  info.columns = static_cast<uint32_t>(front.columns.size());
  info.relation = front.schema.name();
  info.file_bytes = front.file_bytes;
  return info;
}

Result<ScannedSnapshot> ScanSnapshot(const std::string& path,
                                     const ScanOptions& options) {
  DBRE_ASSIGN_OR_RETURN(std::unique_ptr<FileStream> in,
                        FileStream::Open(path, kScanBufferBytes));
  if (options.page_size != 0) in->FoldPages(options.page_size);
  DBRE_ASSIGN_OR_RETURN(ScannedSnapshot out, ReadFront(*in, path));
  const uint64_t rows = out.rows;
  if (rows >= EncodedTable::kNullCode) {
    return ParseError("snapshot " + path + ": row count overflows encoding");
  }
  std::vector<DataType> types;
  for (const Attribute& attribute : out.schema.attributes()) {
    types.push_back(attribute.type);
  }
  if (options.decode) out.extension = EncodedTable(types);

  const uint64_t pages_end = in->size() - kFooterSize;
  for (uint32_t c = 0; c < out.columns.size(); ++c) {
    std::string page =
        "snapshot " + path + ": column page " + std::to_string(c);
    unsigned char header[12];
    if (pages_end - in->pos() < sizeof(header)) {
      return ParseError(page + " truncated");
    }
    if (!in->Read(header, sizeof(header))) return in->status();
    const uint64_t payload_size = LoadU64(header);
    const uint32_t payload_crc = LoadU32(header + 8);
    if (payload_size > pages_end - in->pos()) {
      return ParseError(page + " truncated");
    }
    const uint64_t payload_end = in->pos() + payload_size;
    in->TakeCrc();  // the payload's checksum starts here

    PayloadSource payload(in.get(), payload_end, std::move(page));
    ScannedPage scanned;
    Status structure =
        ReadPayload(payload, types[c], rows, options, &scanned);
    if (structure.code() == StatusCode::kIoError) return structure;
    // Finish the checksum even when the structure was bad: a checksum
    // mismatch is the more fundamental diagnosis and wins.
    if (!in->Skip(payload_end - in->pos())) return in->status();
    if (in->TakeCrc() != payload_crc) {
      return payload.Reject("checksum mismatch");
    }
    DBRE_RETURN_IF_ERROR(structure);
    if (options.decode) {
      Status adopted = out.extension.AdoptColumn(
          c, std::move(scanned.dictionary), std::move(scanned.codes));
      if (!adopted.ok()) return payload.Reject("has " + adopted.message());
      scanned.layout.has_null = out.extension.has_null(c);
    }
    out.columns[c] = std::move(scanned.layout);
  }
  if (in->pos() != pages_end) {
    return ParseError("snapshot " + path + ": trailing bytes after pages");
  }
  // Through the footer, so the page checksums cover every byte.
  if (!in->Skip(kFooterSize)) return in->status();
  out.page_crcs = in->TakePageCrcs();
  if (options.decode) out.extension.CommitAppendedRows(rows);
  return out;
}

Result<ScannedSnapshot> LoadSnapshot(const std::string& path) {
  obs::TraceSpan span("snapshot:load", nullptr, Metrics().load_us,
                      obs::Registry::Default().slow_ops());
  span.set_detail(path);
  DBRE_RETURN_IF_ERROR(FailpointError("snapshot.open"));
  ScanOptions options;
  options.decode = true;
  DBRE_ASSIGN_OR_RETURN(ScannedSnapshot snapshot, ScanSnapshot(path, options));
  Metrics().bytes_read->Add(snapshot.file_bytes);
  return snapshot;
}

}  // namespace dbre::store
