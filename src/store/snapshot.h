// Binary columnar snapshot format for extensions (format tag "DBSNAP01").
//
// A snapshot is the durable image of one loaded extension: the relation
// schema, every column dictionary-encoded exactly as `EncodedTable` encodes
// it in memory, and a footer carrying the extension's content fingerprint
// (see ExtensionRegistry::ComputeFingerprint). Loading a snapshot therefore
// skips both CSV parsing and row re-hashing — the service re-interns a
// restored extension by the fingerprint read from the footer.
//
// File layout (all integers little-endian, strings length-prefixed):
//
//   [8]  magic "DBSNAP01"
//   [8]  schema blob size          [4] CRC32C of schema blob
//   [..] schema blob: relation name, attributes (name, type, not_null),
//        unique constraints, row count, column count
//   per column, in schema order:
//   [8]  page payload size         [4] CRC32C of page payload
//   [..] payload: dictionary size, has_null flag, dictionary values
//        (tag byte + payload), then row-count u32 codes
//        (0xFFFFFFFF = NULL cell, matching EncodedTable::kNullCode)
//   [8]  content fingerprint       [4] CRC32C of the fingerprint bytes
//   [8]  footer magic "DBSNAPFT"
//
// Every section is independently checksummed, so corruption is localized
// and reported as a structured error instead of garbage rows. Writes go
// through a temp file + fsync + rename, so a crashed writer never leaves a
// half-visible snapshot.
//
// There is one reader, ScanSnapshot. It reads a file once, front to back
// through a fixed buffer, and verifies all of it before anything it read is
// used. LoadSnapshot adopts each page's dictionary and codes as the scan
// delivers them; the page store's paged open (src/pagestore/) keeps only
// the offsets it serves from.
#ifndef DBRE_STORE_SNAPSHOT_H_
#define DBRE_STORE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "relational/encoded_table.h"
#include "relational/schema.h"
#include "relational/table.h"

namespace dbre::store {

// What WriteSnapshot persisted (and what the footer of an existing file
// claims, for ReadSnapshotInfo).
struct SnapshotInfo {
  uint64_t fingerprint = 0;
  uint64_t rows = 0;
  uint32_t columns = 0;
  std::string relation;
  uint64_t file_bytes = 0;
};

// Where one column page's parts sit in the file, as the scan found them.
struct ColumnLayout {
  uint64_t dict_begin = 0;   // file offset of the first dictionary entry
  uint64_t codes_begin = 0;  // file offset of the first code
  uint32_t dict_size = 0;
  bool has_null = false;  // taken from the codes, not the page's flag
  // Bool and string dictionaries: the file offset of every
  // ScanOptions::directory_stride-th entry.
  std::vector<uint64_t> directory;
};

struct ScanOptions {
  // Decode every page into ScannedSnapshot::extension.
  bool decode = false;
  // Fill ColumnLayout::directory at this stride (0: no directory).
  uint32_t directory_stride = 0;
  // Fold a CRC32C over each run of this many file bytes into
  // ScannedSnapshot::page_crcs (0: none).
  uint64_t page_size = 0;
};

// A verified snapshot. `fingerprint` comes from the footer, so a caller can
// intern without re-hashing (ExtensionRegistry::InternPrecomputed).
struct ScannedSnapshot {
  RelationSchema schema;
  uint64_t rows = 0;
  uint64_t fingerprint = 0;
  uint64_t file_bytes = 0;
  std::vector<ColumnLayout> columns;
  std::vector<uint32_t> page_crcs;  // with ScanOptions::page_size
  // With ScanOptions::decode: the extension, ready for
  // Table::AdoptExtension.
  EncodedTable extension;
};

// Serializes `table`'s schema and extension to `path`, atomically (temp
// file + fsync + rename). The fingerprint stored in the footer is
// ExtensionRegistry::ComputeFingerprint(table).
Result<SnapshotInfo> WriteSnapshot(const Table& table, const std::string& path);

// Reads and verifies the header, the schema section and the footer, and
// nothing in between: a cheap existence/identity probe whose cost does not
// grow with the file.
Result<SnapshotInfo> ReadSnapshotInfo(const std::string& path);

// Reads `path` once: the magic, the schema section and the footer, then
// each column page. It verifies every checksum, every dictionary entry and
// every code (EncodedTable::CodeCheck). A rejected file fails with a
// kParseError naming the section; within a page, a checksum mismatch wins
// over anything else wrong with it. A failed read is a kIoError. The scan
// never returns part of a file.
Result<ScannedSnapshot> ScanSnapshot(const std::string& path,
                                     const ScanOptions& options);

// ScanSnapshot with `decode`: the whole-file load.
Result<ScannedSnapshot> LoadSnapshot(const std::string& path);

}  // namespace dbre::store

#endif  // DBRE_STORE_SNAPSHOT_H_
