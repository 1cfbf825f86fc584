// Reference row-at-a-time implementations of the relational/algebra.h
// primitives. The library runs them over dictionary-coded columns and the
// per-table query cache (relational/query_cache.h); these decode every row
// and hash a ValueVector per row. They exist for the encoded-vs-naive
// crosscheck tests and benchmarks — both families must agree on every
// input.
#ifndef DBRE_TESTS_SUPPORT_NAIVE_ALGEBRA_H_
#define DBRE_TESTS_SUPPORT_NAIVE_ALGEBRA_H_

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "relational/algebra.h"
#include "support/table_rows.h"

namespace dbre::naive {

inline bool HasNull(const ValueVector& row) {
  for (const Value& value : row) {
    if (value.is_null()) return true;
  }
  return false;
}

inline Result<ValueVectorSet> OrderedDistinctProjection(
    const Table& table, const std::vector<std::string>& attributes) {
  DBRE_ASSIGN_OR_RETURN(std::vector<size_t> indexes,
                        OrderedProjectionIndexes(table, attributes));
  ValueVectorSet distinct;
  distinct.reserve(table.num_rows());
  for (const ValueVector& row : Rows(table)) {
    ValueVector projected = ProjectRow(row, indexes);
    if (HasNull(projected)) continue;
    distinct.insert(std::move(projected));
  }
  return distinct;
}

inline Result<JoinCounts> ComputeJoinCounts(const Database& database,
                                            const EquiJoin& join) {
  DBRE_RETURN_IF_ERROR(join.Validate());
  DBRE_ASSIGN_OR_RETURN(const Table* left,
                        database.GetTable(join.left_relation));
  DBRE_ASSIGN_OR_RETURN(const Table* right,
                        database.GetTable(join.right_relation));
  DBRE_ASSIGN_OR_RETURN(
      ValueVectorSet left_values,
      naive::OrderedDistinctProjection(*left, join.left_attributes));
  DBRE_ASSIGN_OR_RETURN(
      ValueVectorSet right_values,
      naive::OrderedDistinctProjection(*right, join.right_attributes));

  JoinCounts counts;
  counts.n_left = left_values.size();
  counts.n_right = right_values.size();
  const ValueVectorSet& probe =
      left_values.size() <= right_values.size() ? left_values : right_values;
  const ValueVectorSet& build =
      left_values.size() <= right_values.size() ? right_values : left_values;
  for (const ValueVector& row : probe) {
    if (build.contains(row)) ++counts.n_join;
  }
  return counts;
}

inline Result<bool> InclusionHolds(
    const Database& database, const std::string& lhs_relation,
    const std::vector<std::string>& lhs_attributes,
    const std::string& rhs_relation,
    const std::vector<std::string>& rhs_attributes) {
  if (lhs_attributes.size() != rhs_attributes.size()) {
    return InvalidArgumentError(
        "inclusion test with mismatched attribute arity");
  }
  DBRE_ASSIGN_OR_RETURN(const Table* lhs, database.GetTable(lhs_relation));
  DBRE_ASSIGN_OR_RETURN(const Table* rhs, database.GetTable(rhs_relation));
  DBRE_ASSIGN_OR_RETURN(ValueVectorSet rhs_values,
                        naive::OrderedDistinctProjection(*rhs, rhs_attributes));
  DBRE_ASSIGN_OR_RETURN(std::vector<size_t> lhs_indexes,
                        OrderedProjectionIndexes(*lhs, lhs_attributes));
  for (const ValueVector& row : Rows(*lhs)) {
    ValueVector projected = ProjectRow(row, lhs_indexes);
    if (HasNull(projected)) continue;
    if (!rhs_values.contains(projected)) return false;
  }
  return true;
}

inline Result<bool> FunctionalDependencyHolds(const Table& table,
                                              const AttributeSet& lhs,
                                              const AttributeSet& rhs) {
  if (lhs.empty() || rhs.empty()) {
    return InvalidArgumentError("FD check with empty side");
  }
  DBRE_ASSIGN_OR_RETURN(std::vector<size_t> lhs_indexes,
                        table.ProjectionIndexes(lhs));
  DBRE_ASSIGN_OR_RETURN(std::vector<size_t> rhs_indexes,
                        table.ProjectionIndexes(rhs));
  std::unordered_map<ValueVector, ValueVector, ValueVectorHash> witness;
  witness.reserve(table.num_rows());
  for (const ValueVector& row : Rows(table)) {
    ValueVector key = ProjectRow(row, lhs_indexes);
    if (HasNull(key)) continue;
    ValueVector dependent = ProjectRow(row, rhs_indexes);
    auto [it, inserted] = witness.try_emplace(std::move(key), dependent);
    if (!inserted && it->second != dependent) return false;
  }
  return true;
}

inline Result<double> FunctionalDependencyError(const Table& table,
                                                const AttributeSet& lhs,
                                                const AttributeSet& rhs) {
  if (lhs.empty() || rhs.empty()) {
    return InvalidArgumentError("FD error with empty side");
  }
  DBRE_ASSIGN_OR_RETURN(std::vector<size_t> lhs_indexes,
                        table.ProjectionIndexes(lhs));
  DBRE_ASSIGN_OR_RETURN(std::vector<size_t> rhs_indexes,
                        table.ProjectionIndexes(rhs));
  // group key → (rhs value → count)
  std::unordered_map<ValueVector,
                     std::unordered_map<ValueVector, size_t, ValueVectorHash>,
                     ValueVectorHash>
      groups;
  size_t total = 0;
  for (const ValueVector& row : Rows(table)) {
    ValueVector key = ProjectRow(row, lhs_indexes);
    if (HasNull(key)) continue;
    ++total;
    ++groups[std::move(key)][ProjectRow(row, rhs_indexes)];
  }
  if (total == 0) return 0.0;
  size_t kept = 0;
  for (const auto& [key, counts] : groups) {
    size_t best = 0;
    for (const auto& [value, count] : counts) best = std::max(best, count);
    kept += best;
  }
  return static_cast<double>(total - kept) / static_cast<double>(total);
}

}  // namespace dbre::naive

#endif  // DBRE_TESTS_SUPPORT_NAIVE_ALGEBRA_H_
