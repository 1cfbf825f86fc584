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
// half-visible snapshot. The loader mmaps the file when it can (falling
// back to a buffered read) and adopts the pages' codes and dictionaries as
// the in-memory encoding.
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

// A decoded snapshot: the schema and the encoded extension, ready for
// Table::AdoptExtension. `fingerprint` comes from the verified footer, so
// the caller can intern without re-hashing (ExtensionRegistry::
// InternPrecomputed).
struct LoadedSnapshot {
  RelationSchema schema;
  EncodedTable extension;
  uint64_t fingerprint = 0;
};

// Serializes `table`'s schema and extension to `path`, atomically (temp
// file + fsync + rename). The fingerprint stored in the footer is
// ExtensionRegistry::ComputeFingerprint(table).
Result<SnapshotInfo> WriteSnapshot(const Table& table, const std::string& path);

// Verifies the footer only (magic + checksum) and returns its metadata
// without decoding any pages. Cheap existence/identity probe.
Result<SnapshotInfo> ReadSnapshotInfo(const std::string& path);

// Decodes `path` fully, verifying every checksum. A mismatch anywhere —
// header, schema, any column page, footer — fails with a structured error
// naming the corrupt section; it never returns a partial extension.
Result<LoadedSnapshot> LoadSnapshot(const std::string& path);

}  // namespace dbre::store

#endif  // DBRE_STORE_SNAPSHOT_H_
