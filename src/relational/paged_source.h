// The seam between the relational engine and out-of-core storage.
//
// A PagedSource is a read-only, dictionary-encoded column store whose
// backing bytes live on disk behind a buffer pool (src/pagestore/). The
// relational layer never sees pages: it sees per-column dictionaries and
// code streams through the two interfaces below, and `EncodedTable`
// wraps them so QueryCache / algebra / the SQL executor run the same
// algorithms over paged and in-memory extensions — with byte-identical
// results, enforced by the paged crosscheck tests.
//
// Layering: this header lives in relational/ so relational code can hold
// and consume paged sources without depending on pagestore (which itself
// links relational for Value). pagestore implements the interfaces.
//
// Error contract: a source is fully verified when it is opened: every
// checksum, every dictionary entry, and every code, which is NULL or below
// its column's dict_size. Steady-state reads of an open source therefore
// fail only on real environment faults (disk death, truncation underneath
// a live file), and a code read from one can index a dictionary-sized
// array. Cursors fail fast — transient I/O errors are retried inside the
// buffer pool; a persistent failure aborts the process rather than
// silently degrading the byte-identical invariant. Paths that can report
// errors cleanly (open, dictionary walks) return Status.
#ifndef DBRE_RELATIONAL_PAGED_SOURCE_H_
#define DBRE_RELATIONAL_PAGED_SOURCE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

#include "common/status.h"
#include "relational/value.h"

namespace dbre {

// Streams one column's dictionary codes. Fetch returns a pointer to an
// aligned buffer holding `count` codes starting at row `start`; the
// pointer is valid until the next Fetch/At on the same cursor. `count`
// must not exceed relational/column_batch.h's kBatchSize. At() reads a
// single code (cached-page fast path, for random access).
class PagedCodeCursor {
 public:
  virtual ~PagedCodeCursor() = default;
  virtual const uint32_t* Fetch(size_t start, size_t count) = 0;
  virtual uint32_t At(size_t row) = 0;
};

// A read-only paged extension: N columns over `num_rows` rows, each
// column a dictionary (codes 0..dict_size-1; NULL is the encoder's
// sentinel code, never a dictionary entry) plus a code stream.
class PagedSource {
 public:
  virtual ~PagedSource() = default;

  virtual size_t num_rows() const = 0;
  virtual size_t num_columns() const = 0;
  // The extension's content fingerprint (snapshot footer), identical to
  // ExtensionRegistry::ComputeFingerprint over the decoded rows.
  virtual uint64_t fingerprint() const = 0;

  virtual uint32_t dict_size(size_t column) const = 0;
  virtual bool has_null(size_t column) const = 0;
  virtual DataType declared_type(size_t column) const = 0;

  virtual std::unique_ptr<PagedCodeCursor> Codes(size_t column) const = 0;

  // Random access into the dictionary; kInvalidArgument past dict_size.
  virtual Result<Value> DictValueAt(size_t column, uint32_t code) const = 0;

  // Streams the dictionary in code order (0, 1, ..., dict_size-1).
  virtual Status ForEachDictValue(
      size_t column,
      const std::function<void(uint32_t code, const Value& value)>& fn)
      const = 0;
};

}  // namespace dbre

#endif  // DBRE_RELATIONAL_PAGED_SOURCE_H_
