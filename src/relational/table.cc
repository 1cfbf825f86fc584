#include "relational/table.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
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

Status Table::TypeMismatch(size_t column, const Value& value) const {
  return InvalidArgumentError("type mismatch for " + schema_.name() + "." +
                              schema_.attributes()[column].name +
                              ": value " + value.ToString());
}

void Table::DiePagedAccess(const char* what) {
  std::fprintf(stderr,
               "dbre: Table::%s called on a paged extension; row-shaped "
               "consumers must read through the query cache\n",
               what);
  std::abort();
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
  std::lock_guard<std::mutex> lock(g_query_cache_mutex);
  NoteStructural();
  rows_ = std::make_shared<std::vector<ValueVector>>();
  paged_ = std::move(source);
  paged_columns_.resize(schema_.arity());
  std::iota(paged_columns_.begin(), paged_columns_.end(), 0u);
  return Status::Ok();
}

Result<std::shared_ptr<QueryCache>> Table::query_cache() const {
  std::lock_guard<std::mutex> lock(g_query_cache_mutex);
  if (cache_ == nullptr) {
    if (num_rows() >= EncodedTable::kNullCode) {
      return InternalError("extension too large to encode: " +
                           schema_.name());
    }
    std::vector<DataType> types;
    types.reserve(schema_.arity());
    for (const Attribute& attribute : schema_.attributes()) {
      types.push_back(attribute.type);
    }
    if (paged_ != nullptr) {
      cache_ = std::make_shared<QueryCache>(
          EncodedTable(paged_, std::move(types), paged_columns_));
    } else if (delta_base_ != nullptr && rows_->size() >= delta_base_rows_) {
      cache_ = QueryCache::BuildDelta(*delta_base_, delta_base_rows_,
                                      shared_rows(), std::move(types),
                                      delta_updated_columns_);
    } else {
      cache_ = std::make_shared<QueryCache>(
          EncodedTable(shared_rows(), std::move(types)));
    }
    delta_base_.reset();
    delta_base_rows_ = 0;
    delta_updated_columns_.clear();
    delta_pinned_rows_ = nullptr;
  }
  return cache_;
}

void Table::NoteAppend() {
  if (delta_base_ == nullptr && cache_ != nullptr && paged_ == nullptr) {
    delta_base_ = std::move(cache_);
    delta_base_rows_ = rows_->size();
    delta_updated_columns_.clear();
    delta_pinned_rows_ = rows_.get();
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
  delta_pinned_rows_ = nullptr;
}

void Table::DetachForMutation() {
  if (paged_ != nullptr) return;  // read-only; EnsureMaterialized detaches
  NoteAppend();
  mutable_rows_delta();
}

Status Table::EnsureMaterialized() {
  if (paged_ == nullptr) return Status::Ok();
  auto rows = std::make_shared<std::vector<ValueVector>>();
  rows->reserve(num_rows());
  DBRE_RETURN_IF_ERROR(ForEachRow(
      [&rows](const ValueVector& row) { rows->push_back(row); }));
  std::lock_guard<std::mutex> lock(g_query_cache_mutex);
  NoteStructural();
  paged_.reset();
  paged_columns_.clear();
  rows_ = std::move(rows);
  return Status::Ok();
}

Result<size_t> Table::UpdateRows(
    const std::vector<size_t>& columns, const ValueVector& values,
    const std::function<bool(const ValueVector&)>& predicate) {
  if (paged_ != nullptr) {
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
  // storage or invalidate the cache.
  std::vector<size_t> matched;
  for (size_t i = 0; i < rows_->size(); ++i) {
    if (predicate((*rows_)[i])) matched.push_back(i);
  }
  if (matched.empty()) return size_t{0};
  NoteUpdate(columns);
  auto& rows = mutable_rows_delta();
  for (size_t i : matched) {
    for (size_t k = 0; k < columns.size(); ++k) {
      rows[i][columns[k]] = values[k];
    }
  }
  return matched.size();
}

Result<size_t> Table::DeleteRows(
    const std::function<bool(const ValueVector&)>& predicate) {
  if (paged_ != nullptr) {
    return FailedPreconditionError(
        "relation " + schema_.name() +
        " is paged and read-only; materialize before mutating");
  }
  size_t matched = 0;
  for (const ValueVector& row : *rows_) {
    if (predicate(row)) ++matched;
  }
  if (matched == 0) return size_t{0};
  NoteStructural();
  auto& rows = mutable_rows();
  rows.erase(std::remove_if(rows.begin(), rows.end(), predicate),
             rows.end());
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
  if (paged_ != nullptr || other.paged_ != nullptr) {
    // Paged extensions share only with the exact same source over the same
    // column layout (the registry deduplicates sources by fingerprint, so
    // identical content means identical pointer).
    if (paged_ != other.paged_ || paged_columns_ != other.paged_columns_) {
      return false;
    }
    std::lock_guard<std::mutex> lock(g_query_cache_mutex);
    if (other.cache_ != nullptr) cache_ = other.cache_;
    return true;
  }
  if (rows_ != other.rows_ && *rows_ != *other.rows_) return false;
  std::lock_guard<std::mutex> lock(g_query_cache_mutex);
  NoteStructural();
  rows_ = other.rows_;
  if (other.cache_ != nullptr) cache_ = other.cache_;
  return true;
}

Status Table::AdoptExtension(std::shared_ptr<std::vector<ValueVector>> rows) {
  if (rows == nullptr) {
    return InvalidArgumentError("AdoptExtension: null row storage");
  }
  for (const ValueVector& row : *rows) {
    if (row.size() != schema_.arity()) {
      return InvalidArgumentError(
          "arity mismatch adopting extension for " + schema_.name() +
          ": got " + std::to_string(row.size()) + ", want " +
          std::to_string(schema_.arity()));
    }
    for (size_t i = 0; i < row.size(); ++i) {
      if (!row[i].MatchesType(schema_.attributes()[i].type)) {
        return TypeMismatch(i, row[i]);
      }
    }
  }
  std::lock_guard<std::mutex> lock(g_query_cache_mutex);
  NoteStructural();
  paged_.reset();
  paged_columns_.clear();
  rows_ = std::move(rows);
  return Status::Ok();
}

size_t Table::ApproximateBytes() const {
  if (paged_ != nullptr) {
    // The extension lives on disk behind the shared buffer pool, whose
    // budget the service accounts separately; only the handle is heap.
    return sizeof(Table) + sizeof(uint32_t) * paged_columns_.capacity();
  }
  size_t bytes = sizeof(ValueVector) * rows_->capacity();
  for (const ValueVector& row : *rows_) {
    bytes += sizeof(Value) * row.capacity();
    for (const Value& value : row) {
      if (value.is_text()) bytes += value.as_text().capacity();
    }
  }
  return bytes;
}

Status Table::Insert(ValueVector row) {
  if (paged_ != nullptr) {
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
  mutable_rows_delta().push_back(std::move(row));
  return Status::Ok();
}

Status Table::ForEachRow(
    const std::function<void(const ValueVector&)>& fn) const {
  if (paged_ == nullptr) {
    for (const ValueVector& row : *rows_) fn(row);
    return Status::Ok();
  }
  DBRE_ASSIGN_OR_RETURN(std::shared_ptr<QueryCache> cache, query_cache());
  std::vector<size_t> columns(schema_.arity());
  std::iota(columns.begin(), columns.end(), size_t{0});
  cache->EnsureEncoded(columns);
  EncodedTable::RowReader reader =
      cache->encoded().row_reader(std::move(columns));
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
  if (paged_ != nullptr) {
    // Projection only: the on-disk source keeps all its columns and the
    // column map stops referencing the dropped ones.
    std::vector<uint32_t> columns;
    columns.reserve(kept.size());
    for (size_t index : kept) columns.push_back(paged_columns_[index]);
    paged_columns_ = std::move(columns);
    return Status::Ok();
  }
  // Builds fresh storage rather than editing in place: the rows are
  // usually still shared with the catalog this table was cloned from.
  auto projected = std::make_shared<std::vector<ValueVector>>();
  projected->reserve(rows_->size());
  for (const ValueVector& row : *rows_) {
    projected->push_back(ProjectRow(row, kept));
  }
  rows_ = std::move(projected);
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

ValueVector Table::ProjectRow(const ValueVector& row,
                              const std::vector<size_t>& indexes) {
  ValueVector out;
  out.reserve(indexes.size());
  for (size_t index : indexes) out.push_back(row[index]);
  return out;
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
  if (paged_ != nullptr) {
    // The snapshot records per-column NULL presence; no scan needed.
    for (size_t index : indexes) {
      if (paged_->has_null(paged_columns_[index])) {
        return FailedPreconditionError(
            "not-null attribute " + schema_.name() + "." +
            schema_.attributes()[index].name + " contains NULL");
      }
    }
    return Status::Ok();
  }
  for (const ValueVector& row : rows()) {
    for (size_t index : indexes) {
      if (row[index].is_null()) {
        return FailedPreconditionError(
            "not-null attribute " + schema_.name() + "." +
            schema_.attributes()[index].name + " contains NULL");
      }
    }
  }
  return Status::Ok();
}

}  // namespace dbre
