#include "relational/algebra.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "obs/metrics.h"
#include "relational/column_batch.h"
#include "relational/query_cache.h"

namespace dbre {
namespace {

// Counts inclusions refuted by the exact cardinality pre-pass
// (‖lhs‖ > ‖rhs‖), before any membership probe.
obs::Counter* CardinalityRefutes() {
  static obs::Counter* const refutes = obs::Registry::Default().GetCounter(
      "dbre_sketch_refutes_total", {{"kind", "cardinality"}},
      "Candidates refuted by a provable sketch/count pre-pass");
  return refutes;
}

// Probe loops run after the paged source verified clean at open; a failure
// here is a real environment fault and the count/bool entry points have no
// error channel (see the contract in relational/paged_source.h).
void CheckStream(const Status& status) {
  if (status.ok()) return;
  std::fprintf(stderr, "dbre: unrecoverable paged stream failure: %s\n",
               status.ToString().c_str());
  std::abort();
}

// Number of probe-dictionary values present in the build column, exact:
// vectorized over the flat int64 dictionary keys when both sides are
// declared int64, and over decoded Values otherwise. Paged and resident
// columns take the same path: either kind of dictionary streams into the
// build side's memoized set.
size_t SingleColumnIntersection(QueryCache& probe_cache, size_t probe_column,
                                QueryCache& build_cache,
                                size_t build_column) {
  const EncodedTable& probe_encoded = probe_cache.encoded();
  const size_t n = probe_encoded.dict_size(probe_column);
  if (n == 0) return 0;
  std::shared_ptr<const DictionaryKeys> keys =
      probe_cache.DictKeys(probe_column);
  if (!keys->int64_keys.empty()) {
    std::shared_ptr<const FlatSet64> build_ints =
        build_cache.Int64DictionarySet(build_column);
    if (build_ints != nullptr) {
      std::vector<uint8_t> present(n);
      return batch::ProbeSet(*build_ints, keys->int64_keys.data(), n,
                             present.data());
    }
  }
  std::shared_ptr<const ValueSet> build_set =
      build_cache.DictionarySet(build_column);
  size_t joined = 0;
  CheckStream(probe_encoded.ForEachDictValue(
      probe_column, [&](uint32_t, const Value& value) {
        if (build_set->contains(value)) ++joined;
      }));
  return joined;
}

}  // namespace

Result<std::vector<size_t>> OrderedProjectionIndexes(
    const Table& table, const std::vector<std::string>& attributes) {
  if (attributes.empty()) {
    return InvalidArgumentError("projection on empty attribute list");
  }
  std::vector<size_t> indexes;
  indexes.reserve(attributes.size());
  for (const std::string& name : attributes) {
    DBRE_ASSIGN_OR_RETURN(size_t index, table.schema().AttributeIndex(name));
    indexes.push_back(index);
  }
  return indexes;
}

Result<ValueVectorSet> OrderedDistinctProjection(
    const Table& table, const std::vector<std::string>& attributes) {
  DBRE_ASSIGN_OR_RETURN(std::vector<size_t> indexes,
                        OrderedProjectionIndexes(table, attributes));
  DBRE_ASSIGN_OR_RETURN(std::shared_ptr<QueryCache> cache,
                        table.query_cache());
  return *cache->DistinctProjection(indexes);
}

Result<JoinCounts> ComputeJoinCounts(const Database& database,
                                     const EquiJoin& join) {
  DBRE_RETURN_IF_ERROR(join.Validate());
  DBRE_ASSIGN_OR_RETURN(const Table* left,
                        database.GetTable(join.left_relation));
  DBRE_ASSIGN_OR_RETURN(const Table* right,
                        database.GetTable(join.right_relation));
  DBRE_ASSIGN_OR_RETURN(std::vector<size_t> left_indexes,
                        OrderedProjectionIndexes(*left, join.left_attributes));
  DBRE_ASSIGN_OR_RETURN(
      std::vector<size_t> right_indexes,
      OrderedProjectionIndexes(*right, join.right_attributes));
  DBRE_ASSIGN_OR_RETURN(std::shared_ptr<QueryCache> left_cache,
                        left->query_cache());
  DBRE_ASSIGN_OR_RETURN(std::shared_ptr<QueryCache> right_cache,
                        right->query_cache());

  // Re-asked joins (discovery passes revisit the workload's links) hit the
  // memo; the weak_ptr inside validates the peer cache is still the same
  // object, so a mutated table can never serve stale counts.
  JoinCountsValue memo;
  if (left_cache->LookupJoinCounts(right_cache, left_indexes, right_indexes,
                                   &memo)) {
    return JoinCounts{memo.n_left, memo.n_right, memo.n_join};
  }

  JoinCounts counts;
  if (left_indexes.size() == 1) {
    // Single-attribute joins (the common case): each side's dictionary is
    // its distinct projection; probe the smaller dictionary against the
    // larger side.
    const size_t lc = left_indexes[0];
    const size_t rc = right_indexes[0];
    left_cache->EnsureEncoded(left_indexes);
    right_cache->EnsureEncoded(right_indexes);
    counts.n_left = left_cache->encoded().dict_size(lc);
    counts.n_right = right_cache->encoded().dict_size(rc);
    const bool probe_left = counts.n_left <= counts.n_right;
    counts.n_join = SingleColumnIntersection(
        probe_left ? *left_cache : *right_cache, probe_left ? lc : rc,
        probe_left ? *right_cache : *left_cache, probe_left ? rc : lc);
    left_cache->StoreJoinCounts(
        right_cache, left_indexes, right_indexes,
        JoinCountsValue{counts.n_left, counts.n_right, counts.n_join});
    return counts;
  }

  // Multi-attribute: the distinct counts come from the memoized partitions;
  // the intersection probes the smaller side's decoded representatives
  // against the larger side's distinct projection.
  std::shared_ptr<const CodePartition> left_part =
      left_cache->Partition(left_indexes, NullPolicy::kSkipNullRows);
  std::shared_ptr<const CodePartition> right_part =
      right_cache->Partition(right_indexes, NullPolicy::kSkipNullRows);
  counts.n_left = left_part->num_groups();
  counts.n_right = right_part->num_groups();
  const bool probe_left = counts.n_left <= counts.n_right;
  QueryCache& probe_cache = probe_left ? *left_cache : *right_cache;
  QueryCache& build_cache = probe_left ? *right_cache : *left_cache;
  const std::vector<size_t>& probe_columns =
      probe_left ? left_indexes : right_indexes;
  const std::vector<size_t>& build_columns =
      probe_left ? right_indexes : left_indexes;
  const CodePartition& probe_part = probe_left ? *left_part : *right_part;
  if (probe_part.num_groups() > 0) {
    std::shared_ptr<const ValueVectorSet> build_set =
        build_cache.DistinctProjection(build_columns);
    EncodedTable::RowReader reader =
        probe_cache.encoded().row_reader(probe_columns);
    ValueVector sub_row;
    for (uint32_t rep : probe_part.representative) {
      reader.Read(rep, &sub_row);
      if (build_set->contains(sub_row)) ++counts.n_join;
    }
  }
  left_cache->StoreJoinCounts(
      right_cache, left_indexes, right_indexes,
      JoinCountsValue{counts.n_left, counts.n_right, counts.n_join});
  return counts;
}

Result<bool> InclusionHolds(const Database& database,
                            const std::string& lhs_relation,
                            const std::vector<std::string>& lhs_attributes,
                            const std::string& rhs_relation,
                            const std::vector<std::string>& rhs_attributes) {
  if (lhs_attributes.size() != rhs_attributes.size()) {
    return InvalidArgumentError(
        "inclusion test with mismatched attribute arity");
  }
  DBRE_ASSIGN_OR_RETURN(const Table* lhs, database.GetTable(lhs_relation));
  DBRE_ASSIGN_OR_RETURN(const Table* rhs, database.GetTable(rhs_relation));
  DBRE_ASSIGN_OR_RETURN(std::vector<size_t> rhs_indexes,
                        OrderedProjectionIndexes(*rhs, rhs_attributes));
  DBRE_ASSIGN_OR_RETURN(std::vector<size_t> lhs_indexes,
                        OrderedProjectionIndexes(*lhs, lhs_attributes));
  DBRE_ASSIGN_OR_RETURN(std::shared_ptr<QueryCache> rhs_cache,
                        rhs->query_cache());
  DBRE_ASSIGN_OR_RETURN(std::shared_ptr<QueryCache> lhs_cache,
                        lhs->query_cache());
  if (lhs_indexes.size() == 1) {
    // Single attribute: r_i[Y] ⊆ r_j[Z] iff every lhs dictionary value is
    // in the rhs dictionary. A strictly larger lhs dictionary refutes
    // outright (exact cardinalities); otherwise the exact intersection
    // decides.
    const size_t lc = lhs_indexes[0];
    const size_t rc = rhs_indexes[0];
    lhs_cache->EnsureEncoded(lhs_indexes);
    rhs_cache->EnsureEncoded(rhs_indexes);
    const size_t lhs_size = lhs_cache->encoded().dict_size(lc);
    if (lhs_size > rhs_cache->encoded().dict_size(rc)) {
      CardinalityRefutes()->Add(1);
      return false;
    }
    return SingleColumnIntersection(*lhs_cache, lc, *rhs_cache, rc) ==
           lhs_size;
  }
  // Multi-attribute: a larger lhs projection refutes outright (exact
  // memoized counts); otherwise every decoded lhs representative must be
  // in the rhs projection.
  std::shared_ptr<const CodePartition> lhs_part =
      lhs_cache->Partition(lhs_indexes, NullPolicy::kSkipNullRows);
  if (lhs_part->num_groups() == 0) return true;
  if (lhs_part->num_groups() > rhs_cache->DistinctCount(rhs_indexes)) {
    CardinalityRefutes()->Add(1);
    return false;
  }
  std::shared_ptr<const ValueVectorSet> rhs_values =
      rhs_cache->DistinctProjection(rhs_indexes);
  EncodedTable::RowReader reader =
      lhs_cache->encoded().row_reader(lhs_indexes);
  ValueVector sub_row;
  for (uint32_t rep : lhs_part->representative) {
    reader.Read(rep, &sub_row);
    if (!rhs_values->contains(sub_row)) return false;
  }
  return true;
}

Result<size_t> IntersectionSize(const Database& database,
                                const EquiJoin& join) {
  DBRE_ASSIGN_OR_RETURN(JoinCounts counts, ComputeJoinCounts(database, join));
  return counts.n_join;
}

Result<bool> FunctionalDependencyHolds(const Table& table,
                                       const AttributeSet& lhs,
                                       const AttributeSet& rhs) {
  if (lhs.empty() || rhs.empty()) {
    return InvalidArgumentError("FD check with empty side");
  }
  DBRE_ASSIGN_OR_RETURN(std::vector<size_t> lhs_indexes,
                        table.ProjectionIndexes(lhs));
  DBRE_ASSIGN_OR_RETURN(std::vector<size_t> rhs_indexes,
                        table.ProjectionIndexes(rhs));
  DBRE_ASSIGN_OR_RETURN(std::shared_ptr<QueryCache> cache,
                        table.query_cache());
  return cache->FdHolds(lhs_indexes, rhs_indexes);
}

Result<double> FunctionalDependencyError(const Table& table,
                                         const AttributeSet& lhs,
                                         const AttributeSet& rhs) {
  if (lhs.empty() || rhs.empty()) {
    return InvalidArgumentError("FD error with empty side");
  }
  DBRE_ASSIGN_OR_RETURN(std::vector<size_t> lhs_indexes,
                        table.ProjectionIndexes(lhs));
  DBRE_ASSIGN_OR_RETURN(std::vector<size_t> rhs_indexes,
                        table.ProjectionIndexes(rhs));
  DBRE_ASSIGN_OR_RETURN(std::shared_ptr<QueryCache> cache,
                        table.query_cache());
  return cache->FdError(lhs_indexes, rhs_indexes);
}

}  // namespace dbre
