// A process-wide pool of loaded extensions keyed by content.
//
// Many dbred sessions reverse-engineer the same legacy database: each one
// loads the same DDL and the same CSV extensions into its own catalog. The
// expensive artifacts — the dictionary-coded columns and every memoized
// partition in the `QueryCache` — depend only
// on the extension's content, so the registry interns tables by a content
// fingerprint: the first session to load an extension donates its storage
// and cache, and every later identical load adopts them via
// `Table::AdoptSharedExtension` (shared_ptr swaps; the columns just loaded
// are freed). Partitions computed by any session's pipeline then serve all
// of them.
//
// Thread safe; entries are cheap (a Table copy shares columns and cache) and
// bounded by `max_entries` with FIFO eviction — eviction only drops the
// registry's reference, never a live session's.
#ifndef DBRE_RELATIONAL_EXTENSION_REGISTRY_H_
#define DBRE_RELATIONAL_EXTENSION_REGISTRY_H_

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <vector>

#include "relational/database.h"
#include "relational/table.h"

namespace dbre {

class ExtensionRegistry {
 public:
  struct Stats {
    uint64_t lookups = 0;
    uint64_t hits = 0;       // an identical extension was already interned
    uint64_t entries = 0;    // live canonical extensions
    uint64_t evictions = 0;
    uint64_t releases = 0;   // entries dropped by Sweep (unreferenced)
    uint64_t resident_bytes = 0;  // ApproximateBytes of live entries
  };

  explicit ExtensionRegistry(size_t max_entries = 256)
      : max_entries_(max_entries) {}

  ExtensionRegistry(const ExtensionRegistry&) = delete;
  ExtensionRegistry& operator=(const ExtensionRegistry&) = delete;

  // Interns `table`'s extension. On a content hit the table adopts the
  // canonical storage and query cache and this returns true; on a miss the
  // table's own (cache materialized first) becomes canonical and this
  // returns false. Tables whose extension cannot be encoded are left
  // untouched.
  bool Intern(Table* table);

  // Intern with a fingerprint the caller already knows — the snapshot load
  // path (src/store/) reads it from a checksummed footer instead of
  // re-hashing every row. The fingerprint is only a bucket key: storage is
  // shared exclusively after AdoptSharedExtension verified byte equality of
  // the column layout and every row, so a wrong (or adversarially colliding)
  // fingerprint can cost a cache miss but never aliases distinct
  // extensions. Doubles as the forced-collision test hook.
  bool InternPrecomputed(Table* table, uint64_t fingerprint);

  // The content fingerprint Intern buckets by: FNV-1a over the column
  // layout (names and declared types) and every cell's type tag and payload
  // bytes, in row order. Stable across processes and builds — it is stored
  // in snapshot footers on disk. Two tables may share storage only if their
  // fingerprints agree AND they compare byte-equal.
  static uint64_t ComputeFingerprint(const Table& table);

  // Interns every relation of `database` in name order; returns the number
  // of hits.
  size_t InternDatabase(Database* database);

  // Drops every canonical entry no longer referenced by any live table.
  // The canonical copy's query cache is the sharing token — Intern
  // materializes it before donating and every adopter holds the same
  // shared_ptr — so a use count of one means the last referencing session
  // closed and the storage (codes, dictionaries, memoized partitions,
  // paged-source handle) can be returned. Called by the session manager
  // after each session close; returns the number of entries released. The
  // dbre_extension_registry_{live_entries,resident_bytes} gauges track the
  // result, proving memory actually comes back.
  size_t Sweep();

  Stats stats() const;

  void Clear();

 private:
  // Keeps the resident-bytes counter and the process-wide gauges in step
  // with entries_. Lock held.
  void AccountInsertLocked(const Table& table);
  void AccountEraseLocked(const Table& table);

  mutable std::mutex mutex_;
  size_t max_entries_;
  // fingerprint → canonical tables with that fingerprint (collisions are
  // resolved by AdoptSharedExtension's exact comparison).
  std::map<uint64_t, std::vector<Table>> entries_;
  std::deque<uint64_t> insertion_order_;  // for FIFO eviction
  Stats stats_;
};

}  // namespace dbre

#endif  // DBRE_RELATIONAL_EXTENSION_REGISTRY_H_
