// A table: a relation schema plus its extension (set of tuples), held as
// dictionary-coded columns (relational/encoded_table.h) or a paged source.
//
// Provides the primitive the paper's algorithms are built on — the ‖·‖
// operator (`select count distinct X from R`) — along with projections and
// constraint verification. Following SQL `count(distinct ...)` semantics,
// tuples containing NULL in any projected attribute are skipped by the
// distinct-counting operations.
#ifndef DBRE_RELATIONAL_TABLE_H_
#define DBRE_RELATIONAL_TABLE_H_

#include <functional>
#include <memory>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "relational/attribute_set.h"
#include "relational/encoded_table.h"
#include "relational/paged_source.h"
#include "relational/schema.h"
#include "relational/value.h"

namespace dbre {

class ExtensionRegistry;
class QueryCache;

// A set of projected rows, usable for inclusion / intersection tests.
using ValueVectorSet = std::unordered_set<ValueVector, ValueVectorHash>;

class Table {
 public:
  Table() = default;
  explicit Table(RelationSchema schema);

  const RelationSchema& schema() const { return schema_; }
  // For constraint and name edits; the attribute list is fixed once the
  // table exists (DropAttributes removes columns together with their data).
  RelationSchema& mutable_schema() { return schema_; }

  size_t num_rows() const { return extension_.num_rows(); }

  // The extension itself: dictionary-coded columns in memory, or the paged
  // source's column map. Readers that need memoized query results go
  // through query_cache() instead.
  const EncodedTable& extension() const { return extension_; }

  // Whether the extension lives on disk behind a buffer pool instead of in
  // memory. Paged tables are read-only: Insert/UpdateRows/DeleteRows fail
  // until MakeResident copies the codes into memory.
  bool is_paged() const { return extension_.paged(); }
  const std::shared_ptr<const PagedSource>& paged_source() const {
    return extension_.paged_source();
  }
  // The content fingerprint of the paged extension (snapshot footer).
  uint64_t paged_fingerprint() const {
    return extension_.paged_source()->fingerprint();
  }

  // Replaces the extension with a paged source whose physical columns
  // 0..arity-1 match the schema's attributes in order (declared types must
  // agree). The table becomes read-only.
  Status AdoptPagedExtension(std::shared_ptr<const PagedSource> source);

  // Copies a paged extension's codes and dictionaries into memory so the
  // table can be mutated; no-op when already in memory. Mutations never
  // write through the buffer pool.
  Status MakeResident();

  // Appends a tuple after validating arity, value types and not-null
  // declarations. Unique declarations are NOT checked here (that would make
  // bulk loads quadratic); use VerifyUniqueConstraints after loading.
  Status Insert(ValueVector row);

  void Clear();

  // --- Mutation path for live sessions (docs/INCREMENTAL.md) -------------
  //
  // Both mutators take a row selection: row ids in strictly ascending
  // order, each below num_rows() (the DML front end selects them over the
  // codes). Anything else fails invalid_argument, changing nothing.

  // In-place update: assigns values[k] to column columns[k] of every row
  // in `rows`. Values are validated against declared types and not-null
  // declarations up front; an empty selection leaves the extension, its
  // cache and any pending delta untouched. Returns the number of updated
  // rows. The touched columns are renumbered back to first-appearance
  // order. Fails failed_precondition on a paged extension (call
  // MakeResident first).
  Result<size_t> UpdateRows(const std::vector<size_t>& columns,
                            const ValueVector& values,
                            const std::vector<size_t>& rows);

  // Removes every row in `rows`; returns how many. Row removal is a
  // structural change: the cache rebuilds cold (row-positional state
  // cannot be patched). Fails failed_precondition on a paged extension.
  Result<size_t> DeleteRows(const std::vector<size_t>& rows);

  // Detaches this table's extension from every sharing peer — the
  // ExtensionRegistry's canonical copy or a sibling session adopted via
  // AdoptSharedExtension — before a mutation: the shared query cache is
  // demoted to this table's private delta base and every column still
  // referenced elsewhere is copied, so a write through this table can never
  // surface in another session's extension or invalidate the registry's
  // fingerprint-stamped snapshot. Mutators detach the columns they write
  // implicitly; exposed so the service layer can detach up front when it
  // journals a mutation batch.
  void DetachForMutation();

  // Whether an incremental cache rebuild against a captured base is
  // pending (diagnostics and tests).
  bool has_pending_delta() const { return delta_base_ != nullptr; }

  // Streams every row of the extension in row order, decoded through the
  // extension's dictionaries (paged rows page-by-page). The row reference
  // is only valid during the call. Fails only when the extension cannot
  // encode (never for loadable paged sources).
  Status ForEachRow(const std::function<void(const ValueVector&)>& fn) const;

  // Removes `attributes` from the schema and their columns from the
  // extension (used by Restruct when dependent attributes migrate to new
  // relations) — a column-map edit in either mode, no codes move. Fails
  // not_found, changing nothing, if any is missing.
  Status DropAttributes(const AttributeSet& attributes);

  // Column indexes for `attributes`, in the set's (sorted) order.
  Result<std::vector<size_t>> ProjectionIndexes(
      const AttributeSet& attributes) const;

  // Distinct projection r[X] excluding sub-rows containing NULL.
  Result<ValueVectorSet> DistinctProjection(
      const AttributeSet& attributes) const;

  // ‖r[X]‖ — the number of distinct non-NULL sub-rows on `attributes`.
  Result<size_t> DistinctCount(const AttributeSet& attributes) const;

  // Verifies every declared unique constraint against the extension. NULLs
  // are excluded from the uniqueness check (SQL UNIQUE semantics).
  Status VerifyUniqueConstraints() const;

  // Verifies declared not-null attributes against the extension.
  Status VerifyNotNullConstraints() const;

  // The memoized query results over this extension (see
  // relational/query_cache.h), built lazily on first use and dropped by
  // every mutating member. Copying a Table shares the cache (it is
  // immutable and both copies start with identical extensions); a
  // subsequent mutation of either copy detaches only that copy. Safe to
  // call from multiple threads concurrently, but not concurrently with a
  // mutation — the discovery algorithms only mutate between query phases.
  Result<std::shared_ptr<QueryCache>> query_cache() const;

  // Rewires this table to share `other`'s columns and query cache when
  // both hold the same extension over the same column layout (equal
  // attribute names, types and rows, in order). Partitions memoized through
  // either table then serve both — the service layer uses this to pool
  // work across sessions that load the same extension (see
  // relational/extension_registry.h). Returns false, changing nothing, if
  // the layouts or extensions differ.
  bool AdoptSharedExtension(const Table& other);

  // Replaces the extension wholesale with one built outside the Insert
  // path — the snapshot loader (src/store/) adopts a snapshot's codes, and
  // Restruct installs the relations it gathers from partition
  // representatives. Columns must match the schema's arity and declared
  // types, and every dictionary value its column's type (Insert's message
  // on a mismatch); not-null declarations are the caller's to honour.
  Status AdoptExtension(EncodedTable extension);

  // Grows the extension to `extended`, which must be a copy of extension()
  // with rows appended column by column (CSV ingest). Validation is the
  // appender's; like Insert, this keeps memoized work for an incremental
  // cache rebuild.
  void AppendExtension(EncodedTable extended);

  // Heap bytes of the extension: codes, dictionary values, string payloads
  // and any append index (EncodedTable::ApproximateBytes); the schema and
  // any query cache are not counted. Used for per-session memory
  // accounting.
  size_t ApproximateBytes() const;

 private:
  friend class ExtensionRegistry;

  // The error for `value` not matching column `column`'s declared type.
  Status TypeMismatch(size_t column, const Value& value) const;

  // Checks a mutator's row selection: paged extensions are read-only, and
  // row ids must ascend strictly below num_rows().
  Status CheckMutation(const char* mutator,
                        const std::vector<size_t>& rows) const;

  // Declared attribute types, in schema order.
  std::vector<DataType> Types() const;

  // Captures the current cache as the pending delta base so the next
  // query_cache() rebuilds incrementally (QueryCache::BuildDelta) instead
  // of cold. NoteAppend marks an append-only batch; NoteUpdate additionally
  // records in-place-updated schema columns; NoteStructural (row removal,
  // attribute drops, wholesale adoption) discards any pending delta.
  void NoteAppend();
  void NoteUpdate(const std::vector<size_t>& columns);
  void NoteStructural();

  RelationSchema schema_;
  EncodedTable extension_;
  mutable std::shared_ptr<QueryCache> cache_;
  // Pending incremental rebuild: the cache as of delta_base_rows_ rows,
  // with delta_updated_columns_ (sorted, unique) updated in place since.
  // Mutable because query_cache() (const) consumes the delta.
  mutable std::shared_ptr<QueryCache> delta_base_;
  mutable size_t delta_base_rows_ = 0;
  mutable std::vector<size_t> delta_updated_columns_;
};

}  // namespace dbre

#endif  // DBRE_RELATIONAL_TABLE_H_
