#include "relational/table.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <mutex>
#include <numeric>

#include "relational/query_cache.h"

namespace dbre {
namespace {

// Guards lazy cache construction across tables. Builds happen once per
// table per load, so a single process-wide mutex never contends in practice
// while keeping Table itself copyable (a per-table mutex would not be).
std::mutex g_query_cache_mutex;

}  // namespace

Table::Table(RelationSchema schema) : schema_(std::move(schema)) {
  extension_ = EncodedTable(Types());
}

std::vector<DataType> Table::Types() const {
  std::vector<DataType> types;
  types.reserve(schema_.arity());
  for (const Attribute& attribute : schema_.attributes()) {
    types.push_back(attribute.type);
  }
  return types;
}

Status Table::TypeMismatch(size_t column, const Value& value) const {
  return InvalidArgumentError("type mismatch for " + schema_.name() + "." +
                              schema_.attributes()[column].name +
                              ": value " + value.ToString());
}

Status Table::AdoptPagedExtension(
    std::shared_ptr<const PagedSource> source) {
  if (source == nullptr) {
    return InvalidArgumentError("AdoptPagedExtension: null source");
  }
  if (source->num_columns() != schema_.arity()) {
    return InvalidArgumentError(
        "arity mismatch adopting paged extension for " + schema_.name() +
        ": got " + std::to_string(source->num_columns()) + " columns, want " +
        std::to_string(schema_.arity()));
  }
  for (size_t c = 0; c < schema_.arity(); ++c) {
    const Attribute& attribute = schema_.attributes()[c];
    if (source->declared_type(c) != attribute.type) {
      return InvalidArgumentError("declared type mismatch for " +
                                  schema_.name() + "." + attribute.name +
                                  " adopting paged extension");
    }
  }
  std::vector<uint32_t> column_map(schema_.arity());
  std::iota(column_map.begin(), column_map.end(), 0u);
  std::lock_guard<std::mutex> lock(g_query_cache_mutex);
  NoteStructural();
  extension_ =
      EncodedTable(std::move(source), Types(), std::move(column_map));
  return Status::Ok();
}

Status Table::MakeResident() {
  if (!is_paged()) return Status::Ok();
  return AdoptExtension(extension_.Resident());
}

Result<std::shared_ptr<QueryCache>> Table::query_cache() const {
  std::lock_guard<std::mutex> lock(g_query_cache_mutex);
  if (cache_ == nullptr) {
    if (num_rows() >= EncodedTable::kNullCode) {
      return InternalError("extension too large to encode: " +
                           schema_.name());
    }
    if (delta_base_ != nullptr && !is_paged() &&
        num_rows() >= delta_base_rows_) {
      cache_ = QueryCache::BuildDelta(*delta_base_, delta_base_rows_,
                                      extension_, delta_updated_columns_);
    } else {
      cache_ = std::make_shared<QueryCache>(extension_);
    }
    delta_base_.reset();
    delta_base_rows_ = 0;
    delta_updated_columns_.clear();
  }
  return cache_;
}

void Table::NoteAppend() {
  if (delta_base_ == nullptr && cache_ != nullptr && !is_paged()) {
    delta_base_ = std::move(cache_);
    delta_base_rows_ = num_rows();
    delta_updated_columns_.clear();
  }
  cache_.reset();
}

void Table::NoteUpdate(const std::vector<size_t>& columns) {
  NoteAppend();
  if (delta_base_ == nullptr) return;
  std::vector<size_t> sorted(columns);
  std::sort(sorted.begin(), sorted.end());
  std::vector<size_t> merged;
  merged.reserve(delta_updated_columns_.size() + sorted.size());
  std::set_union(delta_updated_columns_.begin(), delta_updated_columns_.end(),
                 sorted.begin(), sorted.end(), std::back_inserter(merged));
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  delta_updated_columns_ = std::move(merged);
}

void Table::NoteStructural() {
  cache_.reset();
  delta_base_.reset();
  delta_base_rows_ = 0;
  delta_updated_columns_.clear();
}

void Table::DetachForMutation() {
  if (is_paged()) return;  // read-only; MakeResident copies
  NoteAppend();
  extension_.Detach();
}

void Table::Clear() {
  NoteStructural();
  extension_ = EncodedTable(Types());
}

Result<size_t> Table::UpdateRows(const std::vector<size_t>& columns,
                                 const ValueVector& values,
                                 const RowPredicate& predicate) {
  if (is_paged()) {
    return FailedPreconditionError(
        "relation " + schema_.name() +
        " is paged and read-only; materialize before mutating");
  }
  if (columns.empty() || columns.size() != values.size()) {
    return InvalidArgumentError("UpdateRows: column/value count mismatch");
  }
  const std::vector<bool>& not_null = schema_.not_null_mask();
  for (size_t k = 0; k < columns.size(); ++k) {
    if (columns[k] >= schema_.arity()) {
      return InvalidArgumentError("UpdateRows: column index out of range");
    }
    const Attribute& attribute = schema_.attributes()[columns[k]];
    if (!values[k].MatchesType(attribute.type)) {
      return TypeMismatch(columns[k], values[k]);
    }
    if (values[k].is_null() && not_null[columns[k]]) {
      return InvalidArgumentError("NULL in not-null attribute " +
                                  schema_.name() + "." + attribute.name);
    }
  }
  // Match first: a predicate hitting nothing must not detach the shared
  // columns or invalidate the cache.
  std::vector<size_t> matched;
  for (size_t i = 0; i < num_rows(); ++i) {
    if (predicate(EncodedTable::RowView(&extension_, i))) matched.push_back(i);
  }
  if (matched.empty()) return size_t{0};
  NoteUpdate(columns);
  for (size_t k = 0; k < columns.size(); ++k) {
    extension_.SetCells(columns[k], matched, values[k]);
  }
  return matched.size();
}

Result<size_t> Table::DeleteRows(const RowPredicate& predicate) {
  if (is_paged()) {
    return FailedPreconditionError(
        "relation " + schema_.name() +
        " is paged and read-only; materialize before mutating");
  }
  std::vector<uint8_t> erase(num_rows(), 0);
  size_t matched = 0;
  for (size_t i = 0; i < num_rows(); ++i) {
    if (predicate(EncodedTable::RowView(&extension_, i))) {
      erase[i] = 1;
      ++matched;
    }
  }
  if (matched == 0) return size_t{0};
  NoteStructural();
  extension_.EraseRows(erase);
  return matched;
}

bool Table::AdoptSharedExtension(const Table& other) {
  if (&other == this) return true;
  const auto& ours = schema_.attributes();
  const auto& theirs = other.schema_.attributes();
  if (ours.size() != theirs.size()) return false;
  for (size_t i = 0; i < ours.size(); ++i) {
    if (ours[i].name != theirs[i].name || ours[i].type != theirs[i].type) {
      return false;
    }
  }
  if (is_paged() || other.is_paged()) {
    // Paged extensions share only with the exact same source over the same
    // column layout (the registry deduplicates sources by fingerprint, so
    // identical content means identical pointer).
    if (paged_source() != other.paged_source()) return false;
    for (size_t c = 0; c < ours.size(); ++c) {
      if (extension_.paged_column(c) != other.extension_.paged_column(c)) {
        return false;
      }
    }
    std::lock_guard<std::mutex> lock(g_query_cache_mutex);
    if (other.cache_ != nullptr) cache_ = other.cache_;
    return true;
  }
  if (!extension_.SameExtension(other.extension_)) return false;
  std::lock_guard<std::mutex> lock(g_query_cache_mutex);
  NoteStructural();
  extension_ = other.extension_;
  if (other.cache_ != nullptr) cache_ = other.cache_;
  return true;
}

Status Table::AdoptExtension(EncodedTable extension) {
  if (extension.paged() || extension.num_columns() != schema_.arity()) {
    return InvalidArgumentError(
        "arity mismatch adopting extension for " + schema_.name() + ": got " +
        std::to_string(extension.num_columns()) + ", want " +
        std::to_string(schema_.arity()));
  }
  for (size_t c = 0; c < extension.num_columns(); ++c) {
    const DataType type = schema_.attributes()[c].type;
    for (uint32_t code = 0; code < extension.dict_size(c); ++code) {
      const Value& value = extension.Decode(c, code);
      if (!value.MatchesType(type)) return TypeMismatch(c, value);
    }
    if (extension.declared_type(c) != type) {
      return InvalidArgumentError("declared type mismatch for " +
                                  schema_.name() + "." +
                                  schema_.attributes()[c].name +
                                  " adopting extension");
    }
  }
  std::lock_guard<std::mutex> lock(g_query_cache_mutex);
  NoteStructural();
  extension_ = std::move(extension);
  return Status::Ok();
}

void Table::AppendExtension(EncodedTable extended) {
  NoteAppend();
  extension_ = std::move(extended);
}

size_t Table::ApproximateBytes() const {
  if (is_paged()) {
    // The extension lives on disk behind the shared buffer pool, whose
    // budget the service accounts separately; only the handle is heap.
    return sizeof(Table) + sizeof(uint32_t) * extension_.num_columns();
  }
  return extension_.ApproximateBytes();
}

Status Table::Insert(ValueVector row) {
  if (is_paged()) {
    return FailedPreconditionError("relation " + schema_.name() +
                                   " is paged and read-only");
  }
  if (row.size() != schema_.arity()) {
    return InvalidArgumentError(
        "arity mismatch inserting into " + schema_.name() + ": got " +
        std::to_string(row.size()) + ", want " +
        std::to_string(schema_.arity()));
  }
  const std::vector<bool>& not_null = schema_.not_null_mask();
  for (size_t i = 0; i < row.size(); ++i) {
    const Attribute& attribute = schema_.attributes()[i];
    if (!row[i].MatchesType(attribute.type)) return TypeMismatch(i, row[i]);
    if (row[i].is_null() && not_null[i]) {
      return InvalidArgumentError("NULL in not-null attribute " +
                                  schema_.name() + "." + attribute.name);
    }
  }
  NoteAppend();
  extension_.AppendRow(row);
  return Status::Ok();
}

Status Table::ForEachRow(
    const std::function<void(const ValueVector&)>& fn) const {
  const EncodedTable* encoded = &extension_;
  std::shared_ptr<QueryCache> cache;
  std::vector<size_t> columns(schema_.arity());
  std::iota(columns.begin(), columns.end(), size_t{0});
  if (is_paged()) {
    // Paged dictionaries materialize inside the query cache.
    DBRE_ASSIGN_OR_RETURN(cache, query_cache());
    cache->EnsureEncoded(columns);
    encoded = &cache->encoded();
  }
  EncodedTable::RowReader reader = encoded->row_reader(std::move(columns));
  ValueVector row;
  const size_t rows = num_rows();
  for (size_t i = 0; i < rows; ++i) {
    reader.Read(i, &row);
    fn(row);
  }
  return Status::Ok();
}

Status Table::DropAttributes(const AttributeSet& attributes) {
  for (const std::string& name : attributes) {
    DBRE_RETURN_IF_ERROR(schema_.AttributeIndex(name).status());
  }
  std::vector<size_t> kept;
  for (size_t i = 0; i < schema_.arity(); ++i) {
    if (!attributes.Contains(schema_.attributes()[i].name)) kept.push_back(i);
  }
  for (const std::string& name : attributes) {
    DBRE_RETURN_IF_ERROR(schema_.RemoveAttribute(name));
  }
  NoteStructural();
  extension_.KeepColumns(kept);
  return Status::Ok();
}

Result<std::vector<size_t>> Table::ProjectionIndexes(
    const AttributeSet& attributes) const {
  if (attributes.empty()) {
    return InvalidArgumentError("projection on empty attribute set");
  }
  std::vector<size_t> indexes;
  indexes.reserve(attributes.size());
  for (const std::string& name : attributes) {
    DBRE_ASSIGN_OR_RETURN(size_t index, schema_.AttributeIndex(name));
    indexes.push_back(index);
  }
  return indexes;
}

Result<ValueVectorSet> Table::DistinctProjection(
    const AttributeSet& attributes) const {
  DBRE_ASSIGN_OR_RETURN(std::vector<size_t> indexes,
                        ProjectionIndexes(attributes));
  DBRE_ASSIGN_OR_RETURN(std::shared_ptr<QueryCache> cache, query_cache());
  return *cache->DistinctProjection(indexes);
}

Result<size_t> Table::DistinctCount(const AttributeSet& attributes) const {
  DBRE_ASSIGN_OR_RETURN(std::vector<size_t> indexes,
                        ProjectionIndexes(attributes));
  DBRE_ASSIGN_OR_RETURN(std::shared_ptr<QueryCache> cache, query_cache());
  return cache->DistinctCount(indexes);
}

Status Table::VerifyUniqueConstraints() const {
  for (const AttributeSet& unique : schema_.unique_constraints()) {
    DBRE_ASSIGN_OR_RETURN(std::vector<size_t> indexes,
                          ProjectionIndexes(unique));
    DBRE_ASSIGN_OR_RETURN(std::shared_ptr<QueryCache> cache, query_cache());
    // Unique iff no two NULL-free sub-rows coincide: every included row is
    // its own partition group.
    std::shared_ptr<const CodePartition> partition =
        cache->Partition(indexes, NullPolicy::kSkipNullRows);
    if (partition->num_groups() != partition->included_rows) {
      return FailedPreconditionError("unique constraint " + schema_.name() +
                                     "." + unique.ToString() +
                                     " is violated");
    }
  }
  return Status::Ok();
}

Status Table::VerifyNotNullConstraints() const {
  const AttributeSet not_null = schema_.NotNullAttributes();
  if (not_null.empty()) return Status::Ok();
  std::vector<size_t> indexes;
  for (const std::string& name : not_null) {
    DBRE_ASSIGN_OR_RETURN(size_t index, schema_.AttributeIndex(name));
    indexes.push_back(index);
  }
  // Report the NULL a row scan would meet first: earliest row, then
  // attribute order. A paged source records per-column NULL presence, so
  // it reports without a scan.
  size_t first_row = num_rows();
  const Attribute* violated = nullptr;
  for (size_t index : indexes) {
    if (is_paged()) {
      if (!paged_source()->has_null(extension_.paged_column(index))) continue;
      violated = &schema_.attributes()[index];
      break;
    }
    if (!extension_.has_null(index)) continue;
    const std::vector<uint32_t>& codes = extension_.codes(index);
    const size_t row = static_cast<size_t>(
        std::find(codes.begin(), codes.end(), EncodedTable::kNullCode) -
        codes.begin());
    if (violated == nullptr || row < first_row) {
      first_row = row;
      violated = &schema_.attributes()[index];
    }
  }
  if (violated != nullptr) {
    return FailedPreconditionError("not-null attribute " + schema_.name() +
                                   "." + violated->name + " contains NULL");
  }
  return Status::Ok();
}

}  // namespace dbre
