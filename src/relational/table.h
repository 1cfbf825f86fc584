// An in-memory table: a relation schema plus its extension (set of tuples).
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
  explicit Table(RelationSchema schema) : schema_(std::move(schema)) {}

  const RelationSchema& schema() const { return schema_; }
  RelationSchema& mutable_schema() { return schema_; }

  size_t num_rows() const {
    return paged_ != nullptr ? paged_->num_rows() : rows_->size();
  }

  // Materialized row access. A paged table has no materialized rows —
  // these die loudly rather than silently return an empty extension;
  // row-shaped consumers go through the query cache's RowReader instead.
  const std::vector<ValueVector>& rows() const {
    if (paged_ != nullptr) DiePagedAccess("rows()");
    return *rows_;
  }
  const ValueVector& row(size_t i) const {
    if (paged_ != nullptr) DiePagedAccess("row()");
    return (*rows_)[i];
  }

  // Whether the extension lives on disk behind a buffer pool instead of in
  // memory. Paged tables are read-only: Insert fails, and row()/rows()
  // abort (see above).
  bool is_paged() const { return paged_ != nullptr; }
  const std::shared_ptr<const PagedSource>& paged_source() const {
    return paged_;
  }
  // Physical source columns behind the schema's attributes, in order.
  const std::vector<uint32_t>& paged_columns() const {
    return paged_columns_;
  }
  // The content fingerprint of the paged extension (snapshot footer).
  uint64_t paged_fingerprint() const { return paged_->fingerprint(); }

  // Replaces the extension with a paged source whose physical columns
  // 0..arity-1 match the schema's attributes in order (declared types must
  // agree). The table becomes read-only.
  Status AdoptPagedExtension(std::shared_ptr<const PagedSource> source);

  // The shared row storage. Copying a Table shares it (copy-on-write: the
  // first mutation of either copy detaches that copy), and the query cache
  // pins it so lazily encoded columns always read the extension they were
  // built against, even if this Table is destroyed or mutated meanwhile.
  std::shared_ptr<const std::vector<ValueVector>> shared_rows() const {
    return rows_;
  }

  // Appends a tuple after validating arity, value types and not-null
  // declarations. Unique declarations are NOT checked here (that would make
  // bulk loads quadratic); use VerifyUniqueConstraints after loading.
  Status Insert(ValueVector row);

  // Appends without validation; for generators that construct rows known to
  // be well-formed.
  void InsertUnchecked(ValueVector row) {
    NoteAppend();
    mutable_rows_delta().push_back(std::move(row));
  }

  // Pre-sizes the row storage for a bulk load of `additional_rows` further
  // tuples, so the append loop never reallocates (and re-moves) the row
  // vector mid-load.
  void Reserve(size_t additional_rows) {
    NoteAppend();
    auto& rows = mutable_rows_delta();
    rows.reserve(rows.size() + additional_rows);
  }

  void Clear() {
    NoteStructural();
    paged_.reset();
    paged_columns_.clear();
    rows_ = std::make_shared<std::vector<ValueVector>>();
  }

  // --- Mutation path for live sessions (docs/INCREMENTAL.md) -------------

  // In-place update: assigns values[k] to column columns[k] of every row
  // satisfying `predicate`. Values are validated against declared types and
  // not-null declarations up front; a predicate matching nothing leaves the
  // extension, its cache and any pending delta untouched. Returns the
  // number of updated rows. Fails failed_precondition on a paged extension
  // (call EnsureMaterialized first).
  Result<size_t> UpdateRows(
      const std::vector<size_t>& columns, const ValueVector& values,
      const std::function<bool(const ValueVector&)>& predicate);

  // Removes every row satisfying `predicate`; returns how many. Row
  // removal is a structural change: the cache rebuilds cold (row-positional
  // state cannot be patched). Fails failed_precondition on a paged
  // extension.
  Result<size_t> DeleteRows(
      const std::function<bool(const ValueVector&)>& predicate);

  // Converts a paged (read-only) extension into materialized rows so it
  // can be mutated; no-op when already materialized. Mutations never write
  // through the buffer pool.
  Status EnsureMaterialized();

  // Detaches this table's extension from every sharing peer — the
  // ExtensionRegistry's canonical copy or a sibling session adopted via
  // AdoptSharedExtension — before a mutation: the shared query cache is
  // demoted to this table's private delta base and the row storage is
  // copied if anyone else still references it, so a write through this
  // table can never surface in another session's extension or invalidate
  // the registry's fingerprint-stamped snapshot. Mutators detach
  // implicitly; exposed so the service layer can detach up front when it
  // journals a mutation batch.
  void DetachForMutation();

  // Whether an incremental cache rebuild against a captured base is
  // pending (diagnostics and tests).
  bool has_pending_delta() const { return delta_base_ != nullptr; }

  // Streams every row of the extension in row order, in either mode:
  // materialized rows are visited directly; paged rows decode through the
  // query cache page-by-page. The row reference is only valid during the
  // call. Fails only when the extension cannot encode (never for loadable
  // paged sources).
  Status ForEachRow(const std::function<void(const ValueVector&)>& fn) const;

  // Removes `attributes` from the schema and their columns from the
  // extension in one projection pass (used by Restruct when dependent
  // attributes migrate to new relations). A paged extension only edits its
  // column map. Fails not_found, changing nothing, if any is missing.
  Status DropAttributes(const AttributeSet& attributes);

  // Column indexes for `attributes`, in the set's (sorted) order.
  Result<std::vector<size_t>> ProjectionIndexes(
      const AttributeSet& attributes) const;

  // The projected sub-row of `row` following `indexes`.
  static ValueVector ProjectRow(const ValueVector& row,
                                const std::vector<size_t>& indexes);

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

  // The dictionary-encoded image of this extension plus its memoized query
  // results (see relational/query_cache.h), built lazily on first use and
  // dropped by every mutating member. Copying a Table shares the cache (it
  // is immutable and both copies start with identical rows); a subsequent
  // mutation of either copy detaches only that copy. Safe to call from
  // multiple threads concurrently, but not concurrently with a mutation —
  // the discovery algorithms only mutate between query phases.
  Result<std::shared_ptr<QueryCache>> query_cache() const;

  // Rewires this table to share `other`'s row storage and query cache when
  // both hold the same extension over the same column layout (equal
  // attribute names, types and rows, in order). Partitions and dictionaries
  // memoized through either table then serve both — the service layer uses
  // this to pool work across sessions that load the same extension (see
  // relational/extension_registry.h). Returns false, changing nothing, if
  // the layouts or extensions differ.
  bool AdoptSharedExtension(const Table& other);

  // Replaces the extension wholesale with storage the caller built outside
  // the Insert path — the snapshot loader (src/store/) decodes column pages
  // straight into a row vector and installs it here in one move, and
  // Restruct installs the relations it gathers from partition
  // representatives. Rows must match the schema's arity and cells its
  // declared types (Insert's message on a mismatch); not-null declarations
  // are the caller's to honour.
  Status AdoptExtension(std::shared_ptr<std::vector<ValueVector>> rows);

  // Rough heap footprint of the extension (row vectors plus string
  // payloads; the schema and any query cache are not counted). Used for
  // per-session memory accounting.
  size_t ApproximateBytes() const;

 private:
  friend class ExtensionRegistry;

  [[noreturn]] static void DiePagedAccess(const char* what);

  // The error for `value` not matching column `column`'s declared type.
  Status TypeMismatch(size_t column, const Value& value) const;

  // Copy-on-write access for mutators. Callers must reset cache_ first: a
  // cache held only by this table then releases its pin on the storage and
  // the common single-owner case mutates in place with no copy.
  std::vector<ValueVector>& mutable_rows() {
    if (paged_ != nullptr) DiePagedAccess("mutable_rows()");
    if (rows_.use_count() > 1) {
      rows_ = std::make_shared<std::vector<ValueVector>>(*rows_);
    }
    return *rows_;
  }

  // COW access for delta-tracked mutators (append / in-place update). A
  // pending delta base necessarily pins the pre-mutation storage; when the
  // base cache is exclusively ours (no registry canonical copy, no sibling
  // session — use_count 1) that pin is discounted, so a solo session
  // mutates in place: the base's ready code columns are immutable copies
  // and BuildDelta never re-encodes through the base, so growing or
  // updating the shared vector under it is safe. Any cross-table sharing
  // still copies.
  std::vector<ValueVector>& mutable_rows_delta() {
    if (paged_ != nullptr) DiePagedAccess("mutable_rows()");
    const long discounted =
        delta_base_ != nullptr && delta_base_.use_count() == 1 &&
                delta_pinned_rows_ == rows_.get()
            ? 1
            : 0;
    if (rows_.use_count() > 1 + discounted) {
      rows_ = std::make_shared<std::vector<ValueVector>>(*rows_);
    }
    return *rows_;
  }

  // Captures the current cache as the pending delta base so the next
  // query_cache() rebuilds incrementally (QueryCache::BuildDelta) instead
  // of cold. NoteAppend marks an append-only batch; NoteUpdate additionally
  // records in-place-updated schema columns; NoteStructural (row removal,
  // attribute drops, wholesale adoption) discards any pending delta.
  void NoteAppend();
  void NoteUpdate(const std::vector<size_t>& columns);
  void NoteStructural();

  RelationSchema schema_;
  std::shared_ptr<std::vector<ValueVector>> rows_ =
      std::make_shared<std::vector<ValueVector>>();
  std::shared_ptr<const PagedSource> paged_;
  std::vector<uint32_t> paged_columns_;
  mutable std::shared_ptr<QueryCache> cache_;
  // Pending incremental rebuild: the cache as of delta_base_rows_ rows,
  // with delta_updated_columns_ (sorted, unique) updated in place since.
  // delta_pinned_rows_ remembers which storage the base was built over, so
  // mutable_rows_delta only discounts its pin while they still coincide.
  // Mutable because query_cache() (const) consumes the delta.
  mutable std::shared_ptr<QueryCache> delta_base_;
  mutable size_t delta_base_rows_ = 0;
  mutable std::vector<size_t> delta_updated_columns_;
  mutable const void* delta_pinned_rows_ = nullptr;
};

}  // namespace dbre

#endif  // DBRE_RELATIONAL_TABLE_H_
