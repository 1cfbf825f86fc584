#include "relational/encoded_table.h"

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "common/flat_hash.h"
#include "relational/table.h"

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

// Builds the dictionary for column `c` with a flat fixed-capacity map over
// a 64-bit packing of the payload. Returns false (leaving the outputs
// cleared) on the first cell whose tag does not match, so the caller can
// fall back to generic Value hashing. `always_fresh` marks values that
// never compare equal to anything (NaN) and therefore always get a fresh
// code, matching Value::operator== semantics.
template <typename MatchesFn, typename KeyFn, typename FreshFn>
bool PackedEncode(const std::vector<ValueVector>& rows, size_t c,
                  MatchesFn matches, KeyFn key_of, FreshFn always_fresh,
                  std::vector<uint32_t>* codes, std::vector<Value>* dictionary,
                  bool* has_null) {
  FlatMap64 assigned(rows.size());
  uint32_t next = 0;
  for (const ValueVector& row : rows) {
    const Value& value = row[c];
    if (value.is_null()) {
      *has_null = true;
      codes->push_back(EncodedTable::kNullCode);
      continue;
    }
    if (!matches(value)) {
      codes->clear();
      dictionary->clear();
      *has_null = false;
      return false;
    }
    if (always_fresh(value)) {
      codes->push_back(next);
      dictionary->push_back(value);
      ++next;
      continue;
    }
    uint32_t code = assigned.FindOrInsert(key_of(value), next);
    if (code == next) {
      dictionary->push_back(value);
      ++next;
    }
    codes->push_back(code);
  }
  return true;
}

constexpr auto kNeverFresh = [](const Value&) { return false; };

// -0.0 and 0.0 compare equal but have distinct bit patterns; fold them.
uint64_t DoubleKey(double d) {
  return std::bit_cast<uint64_t>(d == 0.0 ? 0.0 : d);
}

}  // namespace

EncodedTable::EncodedTable(
    std::shared_ptr<const std::vector<ValueVector>> rows,
    std::vector<DataType> types)
    : rows_(std::move(rows)), types_(std::move(types)) {
  columns_.resize(types_.size());
}

EncodedTable::EncodedTable(std::shared_ptr<const PagedSource> source,
                           std::vector<DataType> types,
                           std::vector<uint32_t> column_map)
    : types_(std::move(types)),
      paged_(std::move(source)),
      paged_columns_(std::move(column_map)) {
  columns_.resize(types_.size());
}

Result<EncodedTable> EncodedTable::Build(const Table& table) {
  if (table.num_rows() >= kNullCode) {
    return InternalError("extension too large to encode: " +
                         table.schema().name());
  }
  std::vector<DataType> types;
  types.reserve(table.schema().arity());
  for (const Attribute& attribute : table.schema().attributes()) {
    types.push_back(attribute.type);
  }
  EncodedTable encoded(table.shared_rows(), std::move(types));
  for (size_t c = 0; c < encoded.num_columns(); ++c) encoded.EnsureColumn(c);
  return encoded;
}

void EncodedTable::EnsureColumn(size_t c) {
  Column& column = columns_[c];
  if (column.ready) return;
  if (paged_ != nullptr) {
    uint32_t pc = paged_columns_[c];
    column.has_null = paged_->has_null(pc);
    column.typed = paged_->typed(pc);
    column.dict_count = paged_->dict_size(pc);
    if (column.dict_count <= kPagedDictMaterializeLimit) {
      column.dictionary.reserve(column.dict_count);
      Status status = paged_->ForEachDictValue(
          pc, [&](uint32_t, const Value& value) {
            column.dictionary.push_back(value);
          });
      if (!status.ok()) DiePagedDict(status);
    }
    column.ready = true;
    return;
  }
  column.codes.reserve(rows_->size());
  column.typed = EncodeDeclared(c, &column);
  if (!column.typed) EncodeGeneric(c, &column);
  column.dict_count = static_cast<uint32_t>(column.dictionary.size());
  column.ready = true;
}

void EncodedTable::ExtendColumnFrom(const EncodedTable& base, size_t c,
                                    size_t base_rows) {
  Column& column = columns_[c];
  if (column.ready) return;
  const Column& from = base.columns_[c];
  column.codes.reserve(rows_->size());
  column.codes.assign(from.codes.begin(), from.codes.end());
  column.dictionary = from.dictionary;
  column.has_null = from.has_null;
  if (rows_->size() == base_rows) {
    // Pure in-place update of some other column: no suffix to encode, the
    // base encoding is this encoding. Skip the dictionary-map seeding —
    // it is O(dict) in Value hashes and dominates large-extension deltas.
    column.dict_count = from.dict_count;
    column.typed = from.typed;
    column.ready = true;
    return;
  }
  // Seed the generic encoder's map with the base dictionary. Value::Hash
  // and Value::operator== fold ±0.0 exactly like the typed fast paths, and
  // NaN dictionary entries never match a lookup (each NaN stays its own
  // code), so the seeded map is byte-for-byte the state a cold generic
  // encode reaches after base_rows rows — and cold typed and cold generic
  // encodes produce identical dictionaries by construction.
  std::unordered_map<Value, uint32_t, ValueHash> assigned;
  assigned.reserve(column.dictionary.size() + (rows_->size() - base_rows));
  for (uint32_t code = 0; code < column.dictionary.size(); ++code) {
    assigned.try_emplace(column.dictionary[code], code);
  }
  bool typed = from.typed;
  auto matches_declared = [this, c](const Value& v) {
    switch (types_[c]) {
      case DataType::kInt64:
        return v.is_int();
      case DataType::kDouble:
        return v.is_real();
      case DataType::kBool:
        return v.is_bool();
      case DataType::kString:
        return v.is_text();
    }
    return false;
  };
  for (size_t r = base_rows; r < rows_->size(); ++r) {
    const Value& value = (*rows_)[r][c];
    if (value.is_null()) {
      column.has_null = true;
      column.codes.push_back(kNullCode);
      continue;
    }
    if (typed && !matches_declared(value)) typed = false;
    auto [it, inserted] =
        assigned.try_emplace(value, static_cast<uint32_t>(assigned.size()));
    if (inserted) column.dictionary.push_back(value);
    column.codes.push_back(it->second);
  }
  column.typed = typed;
  column.dict_count = static_cast<uint32_t>(column.dictionary.size());
  column.ready = true;
}

EncodedTable::CodeReader EncodedTable::codes_reader(size_t c) const {
  if (paged_ != nullptr) {
    return CodeReader(paged_->Codes(paged_columns_[c]));
  }
  return CodeReader(columns_[c].codes.data());
}

Value EncodedTable::DecodeValue(size_t c, uint32_t code) const {
  const Column& column = columns_[c];
  if (code < column.dictionary.size()) return column.dictionary[code];
  Result<Value> value = paged_->DictValueAt(paged_columns_[c], code);
  if (!value.ok()) DiePagedDict(value.status());
  return *std::move(value);
}

Status EncodedTable::ForEachDictValue(
    size_t c,
    const std::function<void(uint32_t code, const Value& value)>& fn) const {
  const Column& column = columns_[c];
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

bool EncodedTable::EncodeDeclared(size_t c, Column* column) {
  const std::vector<ValueVector>& rows = *rows_;
  switch (types_[c]) {
    case DataType::kInt64:
      return PackedEncode(
          rows, c, [](const Value& v) { return v.is_int(); },
          [](const Value& v) { return static_cast<uint64_t>(v.as_int()); },
          kNeverFresh, &column->codes, &column->dictionary,
          &column->has_null);
    case DataType::kDouble:
      // NaN never equals anything (Value::operator== included), so every
      // NaN occurrence is its own dictionary entry, never a map key.
      return PackedEncode(
          rows, c, [](const Value& v) { return v.is_real(); },
          [](const Value& v) { return DoubleKey(v.as_real()); },
          [](const Value& v) { return std::isnan(v.as_real()); },
          &column->codes, &column->dictionary, &column->has_null);
    case DataType::kBool:
      return PackedEncode(
          rows, c, [](const Value& v) { return v.is_bool(); },
          [](const Value& v) { return static_cast<uint64_t>(v.as_bool()); },
          kNeverFresh, &column->codes, &column->dictionary,
          &column->has_null);
    case DataType::kString: {
      // Keys view into the pinned row storage, which outlives the build.
      std::unordered_map<std::string_view, uint32_t> assigned;
      assigned.reserve(rows.size());
      for (const ValueVector& row : rows) {
        const Value& value = row[c];
        if (value.is_null()) {
          column->has_null = true;
          column->codes.push_back(kNullCode);
          continue;
        }
        if (!value.is_text()) {
          column->codes.clear();
          column->dictionary.clear();
          column->has_null = false;
          return false;
        }
        auto [it, inserted] =
            assigned.try_emplace(std::string_view(value.as_text()),
                                 static_cast<uint32_t>(assigned.size()));
        if (inserted) column->dictionary.push_back(value);
        column->codes.push_back(it->second);
      }
      return true;
    }
  }
  return false;
}

void EncodedTable::EncodeGeneric(size_t c, Column* column) {
  std::unordered_map<Value, uint32_t, ValueHash> assigned;
  assigned.reserve(rows_->size());
  for (const ValueVector& row : *rows_) {
    const Value& value = row[c];
    if (value.is_null()) {
      column->has_null = true;
      column->codes.push_back(kNullCode);
      continue;
    }
    auto [it, inserted] =
        assigned.try_emplace(value, static_cast<uint32_t>(assigned.size()));
    if (inserted) column->dictionary.push_back(value);
    column->codes.push_back(it->second);
  }
}

ValueVector EncodedTable::DecodeRow(size_t row,
                                    const std::vector<size_t>& columns) const {
  ValueVector out;
  out.reserve(columns.size());
  for (size_t c : columns) {
    uint32_t code = columns_[c].codes[row];
    out.push_back(code == kNullCode ? Value::Null() : Decode(c, code));
  }
  return out;
}

}  // namespace dbre
