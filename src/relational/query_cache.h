// Memoized extension-query engine over a dictionary-encoded table.
//
// The elicitation pipeline valuates the same handful of projections over and
// over: IND-Discovery asks ‖r[A]‖ for every attribute list appearing in the
// workload, RHS-Discovery re-groups by the same LHS for every candidate
// dependent, and the miners walk overlapping attribute-set lattices. A
// `QueryCache` owns one immutable `EncodedTable` and memoizes, per
// `(column list, NULL policy)`:
//
//   * `CodePartition` — the grouping of rows by their projected code tuple
//     (TANE-style π_X, with singletons kept so |π_X| is exact);
//   * the decoded distinct projection as a `ValueVectorSet` (needed when two
//     tables' projections must be compared — codes are table-local).
//
// FD checks reroute through cached partitions: X → A holds iff refining the
// cached π_X (NULL-LHS rows skipped) by the cached π_A (NULLs grouped as
// values) splits no class — one flat O(rows) pass over two uint32 arrays,
// equivalently |π_X| == |π_{X∪A}|. The g3 error uses the same two arrays.
//
// Single-attribute projections — the bulk of what IND-Discovery asks — skip
// the grouping machinery entirely: the column's dictionary IS the distinct
// projection, so ‖r[A]‖ is its size and cross-table intersection probes one
// dictionary against the other's memoized `ValueSet` (see DictionarySet).
//
// Thread safety: all entry points may be called concurrently; a single
// internal mutex guards the memo tables and the lazy paged dictionary
// loads (queries are per-projection, not per-row, so contention is
// negligible). Reading encoded() directly is safe only for columns passed
// through a locked ensure first (EnsureEncoded or any query over them). The
// cache shares its table's columns, which writers copy before touching
// while shared, so a cache never sees its source change; `Table::
// query_cache()` drops the cache on every mutation.
#ifndef DBRE_RELATIONAL_QUERY_CACHE_H_
#define DBRE_RELATIONAL_QUERY_CACHE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/flat_hash.h"
#include "common/status.h"
#include "relational/encoded_table.h"
#include "relational/table.h"

namespace dbre {

// How a NULL inside a projected sub-row participates in grouping.
enum class NullPolicy {
  kSkipNullRows,  // rows with a NULL in the key are excluded (SQL
                  // count(distinct ...) / FD-LHS semantics)
  kNullAsValue,   // NULL is an ordinary group (partition / FD-RHS semantics)
};

// A set of single values, usable for dictionary inclusion / intersection.
using ValueSet = std::unordered_set<Value, ValueHash>;

// π_X over code columns. Group ids are dense and a pure function of the
// extension (multi-column partitions assign them in first-appearance row
// order; single-column partitions reuse the dictionary codes, with the NULL
// group — if any — appended last), so re-partitioning an identical
// extension is deterministic.
struct CodePartition {
  static constexpr uint32_t kSkipped = UINT32_MAX;

  std::vector<uint32_t> group_of_row;   // kSkipped for excluded rows
  std::vector<uint32_t> representative; // group id → first row in the group
  size_t included_rows = 0;             // rows with a valid group

  size_t num_groups() const { return representative.size(); }
};

// Flat probe keys for one column's dictionary, in code order — what the
// batched membership kernels consume instead of per-code Value decoding.
// `int64_keys` carries the raw values of an int64 column, making key
// equality exact; other columns get no keys (their dictionaries are not
// streamed).
struct DictionaryKeys {
  std::vector<uint64_t> int64_keys;  // empty unless declared int64
};

// The three exact valuations of one cross-table join, as memoized here
// (mirrors JoinCounts in algebra.h, which depends on this header).
struct JoinCountsValue {
  size_t n_left = 0;
  size_t n_right = 0;
  size_t n_join = 0;
};

class QueryCache {
 public:
  explicit QueryCache(EncodedTable encoded) : encoded_(std::move(encoded)) {}

  QueryCache(const QueryCache&) = delete;
  QueryCache& operator=(const QueryCache&) = delete;

  // Builds a cache over a mutated extension by reusing `base`'s work
  // instead of starting cold. `encoded` is the mutated extension whose
  // first `base_rows` rows are identical to base's on every column NOT in
  // `updated_columns` (sorted schema indexes of in-place updated columns).
  // The extension already carries its own codes, so only memos move: when
  // no rows were appended, memoized partitions/sets/keys/FD verdicts
  // whose column sets avoid `updated_columns` carry over as shared
  // pointers. The cross-table join memo never carries over (its keys are
  // peer cache identities). Every observable answer of the returned cache
  // is byte-identical to a cold build over `encoded` — the incremental
  // path's correctness hinge, proven by the table_mutation and incremental
  // suites.
  static std::unique_ptr<QueryCache> BuildDelta(
      QueryCache& base, size_t base_rows, EncodedTable encoded,
      const std::vector<size_t>& updated_columns);

  // Readable for any column that has gone through a locked ensure (below).
  const EncodedTable& encoded() const { return encoded_; }

  // Readies `columns` (paged dictionaries load lazily), after which
  // encoded()'s code arrays and dictionaries for them may be read directly.
  void EnsureEncoded(const std::vector<size_t>& columns);

  // Whether column `column` holds any NULL cell.
  bool ColumnHasNull(size_t column);

  // The distinct non-NULL values of one column as a memoized shared set —
  // the decoded dictionary. Cross-table single-attribute primitives probe
  // the smaller side's dictionary against the larger side's set.
  std::shared_ptr<const ValueSet> DictionarySet(size_t column);

  // Flat-integer variant of DictionarySet for int64 columns — nullptr if
  // `column` is not declared int64 (callers then fall back to the
  // Value-based set). Every int64 dictionary holds only ints: writers
  // enforce the type, and the snapshot scan refuses a mistyped entry.
  std::shared_ptr<const FlatSet64> Int64DictionarySet(size_t column);

  // Memoized π over `columns` (indexes into the schema; order matters only
  // for decoding, not for grouping — callers pass their query's order).
  std::shared_ptr<const CodePartition> Partition(
      const std::vector<size_t>& columns, NullPolicy policy);

  // ‖r[columns]‖ — distinct non-NULL sub-row count. Single columns read
  // their dictionary size; no partition is built.
  size_t DistinctCount(const std::vector<size_t>& columns);

  // Decoded distinct projection (NULL-skipping), memoized and shared so the
  // join primitives probe it without copying.
  std::shared_ptr<const ValueVectorSet> DistinctProjection(
      const std::vector<size_t>& columns);

  // Whether lhs → rhs holds: rows with NULL in `lhs_columns` are skipped,
  // NULLs in `rhs_columns` compare like ordinary values (the semantics of
  // FunctionalDependencyHolds in algebra.h). Before the O(rows) refinement
  // pass, three exact distinct-count prunes run over the memoized partition
  // sizes: all-singleton LHS or a single RHS class ⇒ holds; NULL-free LHS
  // with more RHS than LHS classes ⇒ fails (each is a proof, never an
  // estimate).
  bool FdHolds(const std::vector<size_t>& lhs_columns,
               const std::vector<size_t>& rhs_columns);

  // g3 error of lhs → rhs (see FunctionalDependencyError in algebra.h).
  double FdError(const std::vector<size_t>& lhs_columns,
                 const std::vector<size_t>& rhs_columns);

  // Flat dictionary probe keys of one column, memoized and shared.
  std::shared_ptr<const DictionaryKeys> DictKeys(size_t column);

  // Memo for cross-table join counts (keyed by the peer cache's identity
  // and both ordered column lists). The stored weak_ptr guards against
  // address reuse after the peer table mutates: a lookup only hits when
  // the peer's cache object is still the one the entry was stored under.
  bool LookupJoinCounts(const std::shared_ptr<const QueryCache>& peer,
                        const std::vector<size_t>& my_columns,
                        const std::vector<size_t>& peer_columns,
                        JoinCountsValue* out);
  void StoreJoinCounts(const std::shared_ptr<const QueryCache>& peer,
                       const std::vector<size_t>& my_columns,
                       const std::vector<size_t>& peer_columns,
                       const JoinCountsValue& counts);

 private:
  using PartitionKey = std::pair<std::vector<size_t>, int>;
  using FdKey = std::pair<std::vector<size_t>, std::vector<size_t>>;
  using JoinMemoKey =
      std::tuple<const void*, std::vector<size_t>, std::vector<size_t>>;
  struct JoinMemoEntry {
    std::weak_ptr<const QueryCache> peer;
    JoinCountsValue counts;
  };

  void EnsureColumnsLocked(const std::vector<size_t>& columns);
  std::shared_ptr<const CodePartition> BuildPartition(
      const std::vector<size_t>& columns, NullPolicy policy) const;
  bool ComputeFdHolds(const std::vector<size_t>& lhs_columns,
                      const std::vector<size_t>& rhs_columns);
  double ComputeFdError(const std::vector<size_t>& lhs_columns,
                        const std::vector<size_t>& rhs_columns);

  EncodedTable encoded_;  // paged columns ready lazily under mutex_
  std::mutex mutex_;
  std::map<PartitionKey, std::shared_ptr<const CodePartition>> partitions_;
  std::map<std::vector<size_t>, std::shared_ptr<const ValueVectorSet>>
      distinct_sets_;
  std::map<size_t, std::shared_ptr<const ValueSet>> dictionary_sets_;
  std::map<size_t, std::shared_ptr<const FlatSet64>> int64_dictionary_sets_;
  std::map<size_t, std::shared_ptr<const DictionaryKeys>> dictionary_keys_;
  std::map<JoinMemoKey, JoinMemoEntry> join_memo_;
  // FD verdicts are pure functions of the extension and the two column
  // lists, so reruns skip the O(rows) refinement pass entirely. BuildDelta carries an entry
  // over only when both sides avoid the updated columns — same rule as the
  // partitions it was derived from.
  std::map<FdKey, bool> fd_verdicts_;
  std::map<FdKey, double> fd_errors_;
};

}  // namespace dbre

#endif  // DBRE_RELATIONAL_QUERY_CACHE_H_
