// Dictionary-encoded columnar extension — the one in-memory form of a Table.
//
// Every extension query the elicitation algorithms issue (‖r[X]‖ distinct
// counts, set intersections, FD checks) boils down to grouping and comparing
// projected sub-rows. An `EncodedTable` holds each column as dense
// `uint32_t` codes (equal values ⇔ equal codes, NULL ⇔ `kNullCode`) plus
// the dictionary the codes index, after which every query primitive runs over
// flat integer arrays with no per-row allocation — and the extension is
// never held a second time as rows.
//
// Codes are assigned in first-appearance (row) order, so an encoding is a
// pure function of the extension: two tables with equal rows have
// byte-identical code columns and dictionaries — the determinism guarantee
// the parallel discovery paths rely on. Every writer keeps that invariant:
// appends continue the numbering through a per-column `DictionaryIndex`, and
// in-place rewrites renumber the touched columns (Renumber).
//
// Equality folds ±0.0 into one code; the dictionary keeps the sign of the
// column's first zero, so every zero of a double column decodes with that
// sign. NaN never equals anything, so every NaN cell is its own code.
//
// Sharing: columns are held by shared_ptr, so copying an EncodedTable (a
// Table copy, a QueryCache build, a registry entry) shares the codes. A
// shared column is immutable; writers detach the column they touch first
// (MutableColumn copies it when anyone else holds it), so a write through
// one table never shows in another.
//
// Paged mode: an EncodedTable can instead wrap a read-only PagedSource
// (relational/paged_source.h) whose codes and dictionaries live on disk
// behind a buffer pool. Snapshot codes were written from this encoding, so
// the paged code stream and dictionary are byte-identical to the in-memory
// ones — every consumer reading through codes_reader()/DecodeValue()
// computes the same answer in both modes. Small dictionaries (<=
// kPagedDictMaterializeLimit entries) are materialized at EnsureColumn so
// hot Decode loops stay in memory; larger ones stream through the pool.
// Membership probes stream either kind of dictionary into the same
// memoized sets (QueryCache::DictionarySet / Int64DictionarySet).
#ifndef DBRE_RELATIONAL_ENCODED_TABLE_H_
#define DBRE_RELATIONAL_ENCODED_TABLE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "relational/paged_source.h"
#include "relational/value.h"

namespace dbre {

class DictionaryIndex;

class EncodedTable {
  struct Column;  // one column's codes and dictionary; see below

 public:
  // Code reserved for NULL cells; never a dictionary index.
  static constexpr uint32_t kNullCode = UINT32_MAX;

  // Paged dictionaries up to this many entries are materialized in memory
  // at EnsureColumn; larger ones stay on disk and stream on demand.
  static constexpr uint32_t kPagedDictMaterializeLimit = 4096;

  // An empty in-memory extension with one column per declared type.
  explicit EncodedTable(std::vector<DataType> types = {});

  // A paged encoding: logical column `c` reads physical column
  // `column_map[c]` of `source`. No codes are held in memory, ever.
  EncodedTable(std::shared_ptr<const PagedSource> source,
               std::vector<DataType> types, std::vector<uint32_t> column_map);

  size_t num_rows() const {
    return paged_ != nullptr ? paged_->num_rows() : num_rows_;
  }
  size_t num_columns() const { return types_.size(); }

  bool paged() const { return paged_ != nullptr; }
  const std::shared_ptr<const PagedSource>& paged_source() const {
    return paged_;
  }
  // Physical source column behind logical column `c` (paged mode only).
  uint32_t paged_column(size_t c) const { return paged_columns_[c]; }

  // Paged mode: loads column `c`'s dictionary metadata (and a small
  // dictionary) if not done yet. In-memory columns are always ready.
  // Idempotent, NOT thread-safe: QueryCache serializes calls under its
  // mutex, and every reader of a paged column goes through a locked ensure
  // first.
  void EnsureColumn(size_t c);

  bool column_ready(size_t c) const { return columns_[c] != nullptr; }

  // The declared attribute type of column `c`.
  DataType declared_type(size_t c) const { return types_[c]; }

  // Dense codes of column `c`, one per row. In-memory mode only — paged
  // consumers stream through codes_reader() instead.
  const std::vector<uint32_t>& codes(size_t c) const {
    return columns_[c]->codes;
  }

  // Column `c`'s resident dictionary, code → value. Requires the
  // dictionary to be resident: always in in-memory mode, in paged mode
  // only up to kPagedDictMaterializeLimit entries.
  const std::vector<Value>& dictionary(size_t c) const {
    return columns_[c]->dictionary;
  }

  // Mode-agnostic code access. In-memory mode serves pointers straight
  // into the code vector; paged mode streams pages through a cursor.
  // Fetch's pointer is valid until the next Fetch/At on the same reader;
  // `count` must not exceed column_batch.h's kBatchSize.
  class CodeReader {
   public:
    explicit CodeReader(const uint32_t* codes) : codes_(codes) {}
    explicit CodeReader(std::unique_ptr<PagedCodeCursor> cursor)
        : cursor_(std::move(cursor)) {}

    const uint32_t* Fetch(size_t start, size_t count) {
      return codes_ != nullptr ? codes_ + start
                               : cursor_->Fetch(start, count);
    }
    uint32_t At(size_t row) {
      return codes_ != nullptr ? codes_[row] : cursor_->At(row);
    }

   private:
    const uint32_t* codes_ = nullptr;
    std::unique_ptr<PagedCodeCursor> cursor_;
  };

  // A reader over column `c`'s codes. Requires column_ready(c).
  CodeReader codes_reader(size_t c) const;

  // Number of distinct non-NULL values in column `c` (codes are
  // 0..dict_size-1). Requires column_ready(c).
  size_t dict_size(size_t c) const { return columns_[c]->dict_count; }

  bool has_null(size_t c) const { return columns_[c]->has_null; }

  // The value a code stands for. Requires column_ready(c) and a resident
  // dictionary (see dictionary()).
  const Value& Decode(size_t c, uint32_t code) const {
    return columns_[c]->dictionary[code];
  }

  // The value a code stands for, in either mode; non-resident paged
  // dictionaries read through the buffer pool. Requires column_ready(c).
  Value DecodeValue(size_t c, uint32_t code) const;

  // Streams column `c`'s dictionary in code order. Requires
  // column_ready(c).
  Status ForEachDictValue(
      size_t c,
      const std::function<void(uint32_t code, const Value& value)>& fn) const;

  // Mode-agnostic row projection: decodes the sub-row of `row` on the
  // columns fixed at construction. Rows read in increasing order stay
  // page-local in paged mode.
  class RowReader {
   public:
    RowReader(const EncodedTable* encoded, std::vector<size_t> columns);

    // Overwrites `*out` with the projected sub-row of `row`.
    void Read(size_t row, ValueVector* out);

   private:
    const EncodedTable* encoded_;
    std::vector<size_t> columns_;
    std::vector<CodeReader> readers_;
  };
  RowReader row_reader(std::vector<size_t> columns) const {
    return RowReader(this, std::move(columns));
  }

  // --- Writers (in-memory mode) -------------------------------------------

  // Appends cells to one column, continuing its first-appearance numbering
  // through the column's DictionaryIndex. Typed appends must match the
  // declared type; nothing here re-checks.
  class ColumnWriter {
   public:
    void AppendNull();
    void AppendInt(int64_t v) { column_->codes.push_back(AddInt(v)); }
    void AppendReal(double v) { column_->codes.push_back(AddReal(v)); }
    void AppendBool(bool v) { column_->codes.push_back(AddBool(v)); }
    void AppendText(std::string_view v) {
      column_->codes.push_back(AddText(v));
    }
    void Append(const Value& value);

    // The code of `value` (kNullCode for NULL), added to the dictionary if
    // it is new.
    uint32_t CodeFor(const Value& value);

   private:
    friend class EncodedTable;

    ColumnWriter(Column* column, DataType type)
        : column_(column), type_(type) {}

    DictionaryIndex& Index();
    // The code stored under `key` for which same(code) holds, or the next
    // code, whose dictionary entry make() builds.
    template <typename Same, typename Make>
    uint32_t FindOrAdd(uint64_t key, const Same& same, const Make& make);
    uint32_t AddInt(int64_t v);
    uint32_t AddReal(double v);
    uint32_t AddBool(bool v);
    uint32_t AddText(std::string_view v);

    Column* column_;
    DataType type_;
  };

  // A writer appending to column `c`, detached first from every other
  // holder (copied if shared).
  ColumnWriter Writer(size_t c) {
    return ColumnWriter(MutableColumn(c), types_[c]);
  }

  // Copies every column another holder shares, so writes through this
  // extension never show in another.
  void Detach();

  // Appends one row (arity and types already checked by the caller).
  void AppendRow(const ValueVector& row);

  // Records `rows` rows appended column by column through Writer(); every
  // column must have grown by exactly that many codes.
  void CommitAppendedRows(size_t rows);

  // Pre-sizes every column's codes for `rows` rows in all, so a bulk load
  // appends without reallocating.
  void ReserveRows(size_t rows);

  // Ends a bulk load: releases every column's append index (Insert rebuilds
  // one on demand) and trims spare capacity, so the extension holds
  // exactly its codes and dictionaries.
  void Compact();

  // The encoding's invariant over one column's codes, checked as they
  // stream by: every code is NULL or below the dictionary size, the codes
  // take their first appearances in order, and (Finish) every entry is
  // used. AdoptColumn and the snapshot scan share it.
  class CodeCheck {
   public:
    explicit CodeCheck(size_t dict_size) : dict_size_(dict_size) {}

    // Checks the column's next `n` codes.
    Status Feed(const uint32_t* codes, size_t n);
    // Checks, after the last code, that every entry was used.
    Status Finish() const;
    bool has_null() const { return has_null_; }

   private:
    size_t dict_size_;
    uint32_t next_ = 0;  // the code the next first appearance must take
    bool has_null_ = false;
  };

  // Installs column `c` of an extension with no rows yet from a dictionary
  // and codes in this encoding's layout (a snapshot page). Fails, changing
  // nothing, unless the codes pass CodeCheck. Once every column is
  // installed, CommitAppendedRows records the rows.
  Status AdoptColumn(size_t c, std::vector<Value> dictionary,
                     std::vector<uint32_t> codes);

  // Writes `value` into column `c` at each of `rows`, then renumbers the
  // column back to first-appearance order. A NaN takes a fresh code in
  // every cell, as each NaN does.
  void SetCells(size_t c, const std::vector<size_t>& rows, const Value& value);

  // Removes rows `rows` (strictly ascending, each in range), renumbering
  // each column.
  void EraseRows(const std::vector<size_t>& rows);

  // Keeps only the columns `kept` (ascending), in either mode: a column-map
  // edit, no codes move.
  void KeepColumns(const std::vector<size_t>& kept);

  // The extension made of rows `rows` (in that order) of this one,
  // projected on `columns`: codes are gathered and renumbered, and only the
  // surviving dictionary entries are copied. Either mode; requires every
  // projected column ready.
  EncodedTable Gather(const std::vector<size_t>& columns,
                      const std::vector<uint32_t>& rows) const;

  // An in-memory copy of a paged extension: codes streamed out of the
  // source, dictionaries copied. Identity for an in-memory extension.
  EncodedTable Resident() const;

  // Whether both in-memory extensions hold the same rows: equal codes and
  // dictionaries column by column (shared columns compare by pointer).
  bool SameExtension(const EncodedTable& other) const;

  // Heap bytes of an in-memory extension: code vectors, dictionary Values,
  // string payloads and any append index, each counted at its capacity.
  size_t ApproximateBytes() const;

 private:
  // One column. In memory: a code per row and the whole dictionary. Paged:
  // only the (possibly materialized) dictionary and the source's metadata.
  struct Column {
    Column();
    Column(const Column& other);  // copies everything but the index
    Column& operator=(const Column&) = delete;
    ~Column();

    std::vector<uint32_t> codes;    // per row (in-memory mode)
    std::vector<Value> dictionary;  // code → value, when resident
    uint32_t dict_count = 0;        // distinct non-NULL values
    bool has_null = false;
    // Value → code lookup for appends, built on first use and dropped by
    // any renumbering. Never shared: a copied column rebuilds its own.
    std::unique_ptr<DictionaryIndex> index;
  };

  // Column `c`, detached from every other holder (copied if shared) so the
  // caller may write it.
  Column* MutableColumn(size_t c);

  // Restores first-appearance order on column `c` after its codes were
  // rewritten: codes are renumbered in order of first appearance and
  // dictionary entries no longer referenced are dropped.
  void Renumber(size_t c);

  std::vector<DataType> types_;
  std::vector<std::shared_ptr<Column>> columns_;
  size_t num_rows_ = 0;
  std::shared_ptr<const PagedSource> paged_;
  std::vector<uint32_t> paged_columns_;
};

}  // namespace dbre

#endif  // DBRE_RELATIONAL_ENCODED_TABLE_H_
