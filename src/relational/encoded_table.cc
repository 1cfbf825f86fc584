#include "relational/encoded_table.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <numeric>
#include <string_view>
#include <utility>

#include "common/flat_hash.h"
#include "relational/column_batch.h"

namespace dbre {
namespace {

// Paged dictionary reads happen after the source verified clean at open;
// a failure here is a real environment fault and EnsureColumn/DecodeValue
// have no error channel (see the contract in relational/paged_source.h).
[[noreturn]] void DiePagedDict(const Status& status) {
  std::fprintf(stderr,
               "dbre: unrecoverable paged dictionary read failure: %s\n",
               status.ToString().c_str());
  std::abort();
}

// -0.0 and 0.0 compare equal but have distinct bit patterns; fold them.
uint64_t DoubleKey(double d) {
  return std::bit_cast<uint64_t>(d == 0.0 ? 0.0 : d);
}

uint64_t TextKey(std::string_view text) {
  return std::hash<std::string_view>()(text);
}

}  // namespace

// Open addressing over (64-bit key, code) slots, linear probing with
// Fibonacci hashing, doubling at a 2/3 load factor. Keys are exact images
// for int64/double/bool, so a key match is a value match; string keys are
// hashes, so the caller's `same(code)` confirms against the dictionary.
class DictionaryIndex {
 public:
  DictionaryIndex(DataType type, const std::vector<Value>& dictionary) {
    Allocate(dictionary.size());
    for (uint32_t code = 0; code < dictionary.size(); ++code) {
      const Value& value = dictionary[code];
      switch (type) {
        case DataType::kInt64:
          Place(static_cast<uint64_t>(value.as_int()), code);
          break;
        case DataType::kDouble:
          // NaN is never a key: each NaN keeps its own code.
          if (!std::isnan(value.as_real())) {
            Place(DoubleKey(value.as_real()), code);
          }
          break;
        case DataType::kBool:
          Place(value.as_bool() ? 1 : 0, code);
          break;
        case DataType::kString:
          Place(TextKey(value.as_text()), code);
          break;
      }
    }
  }

  // The code stored under `key` for which same(code) holds, storing `fresh`
  // first if there is none.
  template <typename Same>
  uint32_t FindOrInsert(uint64_t key, uint32_t fresh, const Same& same) {
    size_t i = Start(key);
    while (codes_[i] != kEmpty) {
      if (keys_[i] == key && same(codes_[i])) return codes_[i];
      i = (i + 1) & mask_;
    }
    keys_[i] = key;
    codes_[i] = fresh;
    if (++size_ * 3 > codes_.size() * 2) Grow();
    return fresh;
  }

  size_t bytes() const {
    return keys_.capacity() * sizeof(uint64_t) +
           codes_.capacity() * sizeof(uint32_t);
  }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;

  void Allocate(size_t expected) {
    const int bits = flat_hash_internal::CapacityBits(expected);
    shift_ = 64 - bits;
    mask_ = (size_t{1} << bits) - 1;
    keys_.assign(size_t{1} << bits, 0);
    codes_.assign(size_t{1} << bits, kEmpty);
  }

  size_t Start(uint64_t key) const {
    return (key * flat_hash_internal::kMultiplier) >> shift_;
  }

  // Inserts a key known to be absent.
  void Place(uint64_t key, uint32_t code) {
    size_t i = Start(key);
    while (codes_[i] != kEmpty) i = (i + 1) & mask_;
    keys_[i] = key;
    codes_[i] = code;
    ++size_;
  }

  void Grow() {
    std::vector<uint64_t> keys = std::move(keys_);
    std::vector<uint32_t> codes = std::move(codes_);
    Allocate(codes.size());
    size_ = 0;
    for (size_t i = 0; i < codes.size(); ++i) {
      if (codes[i] != kEmpty) Place(keys[i], codes[i]);
    }
  }

  std::vector<uint64_t> keys_;
  std::vector<uint32_t> codes_;
  size_t size_ = 0;
  int shift_ = 64;
  size_t mask_ = 0;
};

EncodedTable::Column::Column() = default;

EncodedTable::Column::Column(const Column& other)
    : codes(other.codes),
      dictionary(other.dictionary),
      dict_count(other.dict_count),
      has_null(other.has_null),
      typed(other.typed) {}

EncodedTable::Column::~Column() = default;

EncodedTable::EncodedTable(std::vector<DataType> types)
    : types_(std::move(types)) {
  columns_.reserve(types_.size());
  for (size_t c = 0; c < types_.size(); ++c) {
    columns_.push_back(std::make_shared<Column>());
  }
}

EncodedTable::EncodedTable(std::shared_ptr<const PagedSource> source,
                           std::vector<DataType> types,
                           std::vector<uint32_t> column_map)
    : types_(std::move(types)),
      columns_(types_.size()),
      paged_(std::move(source)),
      paged_columns_(std::move(column_map)) {}

void EncodedTable::EnsureColumn(size_t c) {
  if (columns_[c] != nullptr) return;
  // Paged: a fresh column object, so copies of this encoding that share
  // other columns never see this one change under them.
  auto column = std::make_shared<Column>();
  const uint32_t pc = paged_columns_[c];
  column->has_null = paged_->has_null(pc);
  column->typed = paged_->typed(pc);
  column->dict_count = paged_->dict_size(pc);
  if (column->dict_count <= kPagedDictMaterializeLimit) {
    column->dictionary.reserve(column->dict_count);
    Status status =
        paged_->ForEachDictValue(pc, [&](uint32_t, const Value& value) {
          column->dictionary.push_back(value);
        });
    if (!status.ok()) DiePagedDict(status);
  }
  columns_[c] = std::move(column);
}

EncodedTable::CodeReader EncodedTable::codes_reader(size_t c) const {
  if (paged_ != nullptr) {
    return CodeReader(paged_->Codes(paged_columns_[c]));
  }
  return CodeReader(columns_[c]->codes.data());
}

Value EncodedTable::DecodeValue(size_t c, uint32_t code) const {
  const Column& column = *columns_[c];
  if (code < column.dictionary.size()) return column.dictionary[code];
  Result<Value> value = paged_->DictValueAt(paged_columns_[c], code);
  if (!value.ok()) DiePagedDict(value.status());
  return *std::move(value);
}

Status EncodedTable::ForEachDictValue(
    size_t c,
    const std::function<void(uint32_t code, const Value& value)>& fn) const {
  const Column& column = *columns_[c];
  if (column.dictionary.size() == column.dict_count) {
    for (uint32_t code = 0; code < column.dict_count; ++code) {
      fn(code, column.dictionary[code]);
    }
    return Status::Ok();
  }
  return paged_->ForEachDictValue(paged_columns_[c], fn);
}

EncodedTable::RowReader::RowReader(const EncodedTable* encoded,
                                   std::vector<size_t> columns)
    : encoded_(encoded), columns_(std::move(columns)) {
  readers_.reserve(columns_.size());
  for (size_t c : columns_) readers_.push_back(encoded_->codes_reader(c));
}

void EncodedTable::RowReader::Read(size_t row, ValueVector* out) {
  out->clear();
  out->reserve(columns_.size());
  for (size_t k = 0; k < columns_.size(); ++k) {
    uint32_t code = readers_[k].At(row);
    out->push_back(code == kNullCode
                       ? Value::Null()
                       : encoded_->DecodeValue(columns_[k], code));
  }
}

DictionaryIndex& EncodedTable::ColumnWriter::Index() {
  if (column_->index == nullptr) {
    column_->index =
        std::make_unique<DictionaryIndex>(type_, column_->dictionary);
  }
  return *column_->index;
}

void EncodedTable::ColumnWriter::AppendNull() {
  column_->has_null = true;
  column_->codes.push_back(kNullCode);
}

void EncodedTable::ColumnWriter::Append(const Value& value) {
  column_->codes.push_back(CodeFor(value));
  if (value.is_null()) column_->has_null = true;
}

uint32_t EncodedTable::ColumnWriter::CodeFor(const Value& value) {
  if (value.is_null()) return kNullCode;
  switch (type_) {
    case DataType::kInt64:
      return AddInt(value.as_int());
    case DataType::kDouble:
      return AddReal(value.as_real());
    case DataType::kBool:
      return AddBool(value.as_bool());
    case DataType::kString:
      return AddText(value.as_text());
  }
  return kNullCode;
}

template <typename Same, typename Make>
uint32_t EncodedTable::ColumnWriter::FindOrAdd(uint64_t key, const Same& same,
                                               const Make& make) {
  const uint32_t fresh = column_->dict_count;
  const uint32_t code = Index().FindOrInsert(key, fresh, same);
  if (code == fresh) {
    column_->dictionary.push_back(make());
    ++column_->dict_count;
  }
  return code;
}

namespace {

constexpr auto kExactKey = [](uint32_t) { return true; };

}  // namespace

uint32_t EncodedTable::ColumnWriter::AddInt(int64_t v) {
  return FindOrAdd(static_cast<uint64_t>(v), kExactKey,
                   [v] { return Value::Int(v); });
}

uint32_t EncodedTable::ColumnWriter::AddReal(double v) {
  if (std::isnan(v)) {
    // NaN never equals anything (Value::operator== included): always fresh.
    column_->dictionary.push_back(Value::Real(v));
    return column_->dict_count++;
  }
  return FindOrAdd(DoubleKey(v), kExactKey, [v] { return Value::Real(v); });
}

uint32_t EncodedTable::ColumnWriter::AddBool(bool v) {
  return FindOrAdd(v ? 1 : 0, kExactKey, [v] { return Value::Boolean(v); });
}

uint32_t EncodedTable::ColumnWriter::AddText(std::string_view v) {
  const std::vector<Value>& dictionary = column_->dictionary;
  return FindOrAdd(
      TextKey(v),
      [&](uint32_t code) { return dictionary[code].as_text() == v; },
      [v] { return Value::Text(std::string(v)); });
}

EncodedTable::Column* EncodedTable::MutableColumn(size_t c) {
  std::shared_ptr<Column>& column = columns_[c];
  if (column.use_count() > 1) column = std::make_shared<Column>(*column);
  return column.get();
}

void EncodedTable::Detach() {
  for (size_t c = 0; c < columns_.size(); ++c) MutableColumn(c);
}

void EncodedTable::AppendRow(const ValueVector& row) {
  for (size_t c = 0; c < row.size(); ++c) Writer(c).Append(row[c]);
  ++num_rows_;
}

void EncodedTable::CommitAppendedRows(size_t rows) {
  num_rows_ += rows;
  for (const auto& column : columns_) {
    if (column->codes.size() != num_rows_) {
      std::fprintf(stderr, "dbre: column-wise append left ragged columns\n");
      std::abort();
    }
  }
}

void EncodedTable::ReserveRows(size_t rows) {
  for (size_t c = 0; c < columns_.size(); ++c) {
    MutableColumn(c)->codes.reserve(rows);
  }
}

void EncodedTable::Compact() {
  for (size_t c = 0; c < columns_.size(); ++c) {
    Column& column = *MutableColumn(c);
    column.index.reset();
    column.codes.shrink_to_fit();
    column.dictionary.shrink_to_fit();
  }
}

Status EncodedTable::AdoptColumn(size_t c, std::vector<Value> dictionary,
                                 std::vector<uint32_t> codes) {
  bool has_null = false;
  uint32_t next = 0;  // the code the next first appearance must take
  for (const uint32_t code : codes) {
    if (code == kNullCode) {
      has_null = true;
    } else if (code >= dictionary.size()) {
      return InvalidArgumentError("out-of-range code");
    } else if (code == next) {
      ++next;
    } else if (code > next) {
      return InvalidArgumentError("codes out of first-appearance order");
    }
  }
  if (next != dictionary.size()) {
    return InvalidArgumentError("unused dictionary entries");
  }
  Column& column = *MutableColumn(c);
  column.codes = std::move(codes);
  column.dictionary = std::move(dictionary);
  column.dict_count = next;
  column.has_null = has_null;
  column.index.reset();
  return Status::Ok();
}

void EncodedTable::SetCells(size_t c, const std::vector<size_t>& rows,
                            const Value& value) {
  ColumnWriter writer = Writer(c);
  std::vector<uint32_t>& codes = columns_[c]->codes;
  // One CodeFor per cell: a NaN is never found, so each cell gets its own.
  for (size_t row : rows) codes[row] = writer.CodeFor(value);
  Renumber(c);
}

void EncodedTable::Renumber(size_t c) {
  Column& column = *MutableColumn(c);
  std::vector<uint32_t> remap(column.dictionary.size(), kNullCode);
  uint32_t next = 0;
  bool identity = true;
  bool has_null = false;
  for (uint32_t& code : column.codes) {
    if (code == kNullCode) {
      has_null = true;
      continue;
    }
    uint32_t& to = remap[code];
    if (to == kNullCode) {
      identity &= code == next;
      to = next++;
    }
    code = to;
  }
  column.has_null = has_null;
  if (identity && next == column.dictionary.size()) return;
  std::vector<Value> dictionary(next);
  for (uint32_t from = 0; from < remap.size(); ++from) {
    if (remap[from] != kNullCode) {
      dictionary[remap[from]] = std::move(column.dictionary[from]);
    }
  }
  column.dictionary = std::move(dictionary);
  column.dict_count = next;
  column.index.reset();
}

void EncodedTable::EraseRows(const std::vector<size_t>& rows) {
  for (size_t c = 0; c < columns_.size(); ++c) {
    std::vector<uint32_t>& codes = MutableColumn(c)->codes;
    size_t out = 0, next = 0;
    for (size_t r = 0; r < codes.size(); ++r) {
      if (next < rows.size() && rows[next] == r) {
        ++next;
        continue;
      }
      codes[out++] = codes[r];
    }
    codes.resize(out);
    Renumber(c);
  }
  num_rows_ -= rows.size();
}

void EncodedTable::KeepColumns(const std::vector<size_t>& kept) {
  std::vector<DataType> types;
  std::vector<std::shared_ptr<Column>> columns;
  std::vector<uint32_t> paged_columns;
  for (size_t c : kept) {
    types.push_back(types_[c]);
    columns.push_back(columns_[c]);
    if (paged_ != nullptr) paged_columns.push_back(paged_columns_[c]);
  }
  types_ = std::move(types);
  columns_ = std::move(columns);
  paged_columns_ = std::move(paged_columns);
}

EncodedTable EncodedTable::Gather(const std::vector<size_t>& columns,
                                  const std::vector<uint32_t>& rows) const {
  std::vector<DataType> types;
  types.reserve(columns.size());
  for (size_t c : columns) types.push_back(types_[c]);
  EncodedTable out(std::move(types));
  out.num_rows_ = rows.size();
  // Paged sources read best in row order: visit the rows ascending and
  // scatter the codes into their output positions.
  std::vector<uint32_t> order(rows.size());
  std::iota(order.begin(), order.end(), 0u);
  if (paged_ != nullptr && !std::is_sorted(rows.begin(), rows.end())) {
    std::sort(order.begin(), order.end(),
              [&rows](uint32_t a, uint32_t b) { return rows[a] < rows[b]; });
  }
  for (size_t k = 0; k < columns.size(); ++k) {
    const size_t c = columns[k];
    Column& column = *out.columns_[k];
    CodeReader reader = codes_reader(c);
    column.codes.resize(rows.size());
    for (uint32_t i : order) column.codes[i] = reader.At(rows[i]);
    // Renumber in output order, copying each surviving value once.
    std::vector<uint32_t> remap(dict_size(c), kNullCode);
    for (uint32_t& code : column.codes) {
      if (code == kNullCode) {
        column.has_null = true;
        continue;
      }
      uint32_t& to = remap[code];
      if (to == kNullCode) {
        to = column.dict_count++;
        column.dictionary.push_back(DecodeValue(c, code));
      }
      code = to;
    }
  }
  return out;
}

EncodedTable EncodedTable::Resident() const {
  if (paged_ == nullptr) return *this;
  EncodedTable out(types_);
  out.num_rows_ = num_rows();
  for (size_t c = 0; c < columns_.size(); ++c) {
    const uint32_t pc = paged_columns_[c];
    Column& column = *out.columns_[c];
    column.has_null = paged_->has_null(pc);
    column.typed = paged_->typed(pc);
    column.dict_count = paged_->dict_size(pc);
    column.dictionary.reserve(column.dict_count);
    Status status =
        paged_->ForEachDictValue(pc, [&column](uint32_t, const Value& value) {
          column.dictionary.push_back(value);
        });
    if (!status.ok()) DiePagedDict(status);
    column.codes.resize(out.num_rows_);
    std::unique_ptr<PagedCodeCursor> cursor = paged_->Codes(pc);
    batch::BatchIterator batches(out.num_rows_);
    size_t start = 0;
    size_t count = 0;
    while (batches.Next(&start, &count)) {
      const uint32_t* codes = cursor->Fetch(start, count);
      std::copy(codes, codes + count, column.codes.begin() + start);
    }
  }
  return out;
}

bool EncodedTable::SameExtension(const EncodedTable& other) const {
  if (paged_ != nullptr || other.paged_ != nullptr) return false;
  if (num_rows_ != other.num_rows_ || types_ != other.types_) return false;
  for (size_t c = 0; c < columns_.size(); ++c) {
    const Column& ours = *columns_[c];
    const Column& theirs = *other.columns_[c];
    if (&ours == &theirs) continue;
    if (ours.codes != theirs.codes || ours.dictionary != theirs.dictionary) {
      return false;
    }
  }
  return true;
}

size_t EncodedTable::ApproximateBytes() const {
  size_t bytes = 0;
  for (const auto& column : columns_) {
    if (column == nullptr) continue;
    bytes += sizeof(uint32_t) * column->codes.capacity();
    bytes += sizeof(Value) * column->dictionary.capacity();
    for (const Value& value : column->dictionary) {
      if (value.is_text()) bytes += value.as_text().capacity();
    }
    if (column->index != nullptr) bytes += column->index->bytes();
  }
  return bytes;
}

}  // namespace dbre
