// The row-at-a-time Restruct, kept as the reference the partition-based
// implementation in src/core/restruct.cc is crosschecked against.
//
// Hidden objects sort a decoded distinct projection and insert it row by
// row with full validation; FD splits group rows in an
// unordered_map<ValueVector, ValueVector> (first witness wins); moved
// attributes are erased from every row right after each split. Reads
// decoded rows, and is compared against paged runs of the real Restruct on
// an in-memory copy.
#ifndef DBRE_TESTS_SUPPORT_RESTRUCT_REFERENCE_H_
#define DBRE_TESTS_SUPPORT_RESTRUCT_REFERENCE_H_

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/string_util.h"
#include "core/restruct.h"
#include "relational/algebra.h"
#include "relational/csv.h"
#include "support/table_rows.h"

namespace dbre::reference {

inline std::string UniqueName(const Database& database, std::string base) {
  if (base.empty()) base = "relation";
  std::string name = base;
  int suffix = 2;
  while (database.HasRelation(name)) {
    name = base + "_" + std::to_string(suffix++);
  }
  return name;
}

inline void RewriteIndSides(std::vector<InclusionDependency>* inds,
                            size_t exempt, const std::string& source_relation,
                            const AttributeSet& covered,
                            const std::string& target_relation) {
  for (size_t i = 0; i < inds->size(); ++i) {
    if (i == exempt) continue;
    InclusionDependency& ind = (*inds)[i];
    if (ind.lhs_relation == source_relation &&
        covered.ContainsAll(ind.LhsAttributeSet())) {
      ind.lhs_relation = target_relation;
    }
    if (ind.rhs_relation == source_relation &&
        covered.ContainsAll(ind.RhsAttributeSet())) {
      ind.rhs_relation = target_relation;
    }
  }
}

inline Status CreateRelationFrom(Database* database, const std::string& name,
                                 const Table& source,
                                 const std::vector<std::string>& attributes,
                                 const AttributeSet& key,
                                 std::vector<ValueVector> rows) {
  RelationSchema schema(name);
  for (const std::string& attribute : attributes) {
    DBRE_ASSIGN_OR_RETURN(DataType type,
                          source.schema().AttributeType(attribute));
    DBRE_RETURN_IF_ERROR(schema.AddAttribute(attribute, type));
  }
  DBRE_RETURN_IF_ERROR(schema.DeclareUnique(key));
  Table table(std::move(schema));
  for (ValueVector& row : rows) {
    DBRE_RETURN_IF_ERROR(table.Insert(std::move(row)));
  }
  return database->AddTable(std::move(table));
}

// Erases one attribute's cell from every row.
inline Status DropAttributeByRows(Table* table, const std::string& name) {
  DBRE_ASSIGN_OR_RETURN(size_t index, table->schema().AttributeIndex(name));
  std::vector<ValueVector> rows = Rows(*table);
  DBRE_RETURN_IF_ERROR(table->mutable_schema().RemoveAttribute(name));
  std::vector<DataType> types;
  for (const Attribute& attribute : table->schema().attributes()) {
    types.push_back(attribute.type);
  }
  EncodedTable extension(std::move(types));
  for (ValueVector& row : rows) {
    row.erase(row.begin() + static_cast<ptrdiff_t>(index));
    extension.AppendRow(row);
  }
  return table->AdoptExtension(std::move(extension));
}

inline Result<RestructResult> Restruct(
    const Database& database, const std::vector<FunctionalDependency>& fds,
    const std::vector<QualifiedAttributes>& hidden,
    const std::vector<InclusionDependency>& inds, ExpertOracle* oracle) {
  if (oracle == nullptr) return InvalidArgumentError("oracle is null");

  RestructResult result;
  result.database = database.Clone();
  result.inds = inds;

  for (const QualifiedAttributes& h : hidden) {
    DBRE_ASSIGN_OR_RETURN(const Table* source,
                          result.database.GetTable(h.relation));
    std::string requested = oracle->NameHiddenObjectRelation(h);
    std::string base = requested.empty()
                           ? h.relation + "_" + Join(h.attributes.names(), "_")
                           : requested;
    std::string name = UniqueName(result.database, base);
    DBRE_ASSIGN_OR_RETURN(ValueVectorSet values,
                          source->DistinctProjection(h.attributes));
    std::vector<ValueVector> rows(values.begin(), values.end());
    std::sort(rows.begin(), rows.end());
    DBRE_RETURN_IF_ERROR(CreateRelationFrom(
        &result.database, name, *source, h.attributes.names(), h.attributes,
        std::move(rows)));
    result.provenance[name] = "hidden object " + h.ToString();
    result.inds.emplace_back(h.relation, h.attributes.names(), name,
                             h.attributes.names());
    RewriteIndSides(&result.inds, result.inds.size() - 1, h.relation,
                    h.attributes, name);
  }

  for (const FunctionalDependency& fd : fds) {
    DBRE_ASSIGN_OR_RETURN(Table * source,
                          result.database.GetMutableTable(fd.relation));
    for (const std::string& attribute : fd.lhs.Union(fd.rhs)) {
      if (!source->schema().HasAttribute(attribute)) {
        return FailedPreconditionError(
            "FD " + fd.ToString() + " references attribute " + attribute +
            " already moved by an earlier FD; FDs in F must not overlap");
      }
    }
    std::string requested = oracle->NameRelationForFd(fd);
    std::string base = requested.empty()
                           ? fd.relation + "_" + Join(fd.lhs.names(), "_")
                           : requested;
    std::string name = UniqueName(result.database, base);

    AttributeSet all = fd.lhs.Union(fd.rhs);
    std::vector<std::string> attribute_order;
    for (const std::string& a : fd.lhs) attribute_order.push_back(a);
    for (const std::string& b : fd.rhs) attribute_order.push_back(b);
    DBRE_ASSIGN_OR_RETURN(std::vector<size_t> lhs_indexes,
                          OrderedProjectionIndexes(*source, fd.lhs.names()));
    DBRE_ASSIGN_OR_RETURN(std::vector<size_t> all_indexes,
                          OrderedProjectionIndexes(*source, attribute_order));
    std::unordered_map<ValueVector, ValueVector, ValueVectorHash> projected;
    DBRE_RETURN_IF_ERROR(source->ForEachRow([&](const ValueVector& row) {
      ValueVector key = ProjectRow(row, lhs_indexes);
      if (std::any_of(key.begin(), key.end(),
                      [](const Value& v) { return v.is_null(); })) {
        return;
      }
      projected.try_emplace(std::move(key),
                            ProjectRow(row, all_indexes));
    }));
    std::vector<ValueVector> rows;
    rows.reserve(projected.size());
    for (auto& [key, row] : projected) rows.push_back(std::move(row));
    std::sort(rows.begin(), rows.end());
    DBRE_RETURN_IF_ERROR(CreateRelationFrom(&result.database, name, *source,
                                            attribute_order, fd.lhs,
                                            std::move(rows)));
    result.provenance[name] = "FD " + fd.ToString();

    DBRE_ASSIGN_OR_RETURN(source,
                          result.database.GetMutableTable(fd.relation));
    for (const std::string& attribute : fd.rhs) {
      DBRE_RETURN_IF_ERROR(DropAttributeByRows(source, attribute));
    }
    result.inds.emplace_back(fd.relation, fd.lhs.names(), name,
                             fd.lhs.names());
    RewriteIndSides(&result.inds, result.inds.size() - 1, fd.relation, all,
                    name);
  }

  result.inds.erase(
      std::remove_if(result.inds.begin(), result.inds.end(),
                     [](const InclusionDependency& ind) {
                       return ind.lhs_relation == ind.rhs_relation &&
                              ind.lhs_attributes == ind.rhs_attributes;
                     }),
      result.inds.end());
  result.inds = SortedUnique(std::move(result.inds));
  result.keys = result.database.KeySet();
  for (const InclusionDependency& ind : result.inds) {
    if (IsKeyBased(result.database, ind)) result.rics.push_back(ind);
  }
  return result;
}

// Everything a Restruct result determines, as one comparable string:
// each relation's schema and CSV extension (row order included), the
// rewritten INDs, RICs, keys and provenance.
inline std::string Describe(const RestructResult& result) {
  std::string out;
  for (const std::string& name : result.database.RelationNames()) {
    const Table& table = **result.database.GetTable(name);
    out += table.schema().ToString() + "\n" + WriteCsvText(table);
  }
  for (const InclusionDependency& ind : result.inds) {
    out += "ind " + ind.ToString() + "\n";
  }
  for (const InclusionDependency& ric : result.rics) {
    out += "ric " + ric.ToString() + "\n";
  }
  for (const QualifiedAttributes& key : result.keys) {
    out += "key " + key.ToString() + "\n";
  }
  for (const auto& [name, origin] : result.provenance) {
    out += "from " + name + ": " + origin + "\n";
  }
  return out;
}

}  // namespace dbre::reference

#endif  // DBRE_TESTS_SUPPORT_RESTRUCT_REFERENCE_H_
