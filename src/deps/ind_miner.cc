#include "deps/ind_miner.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>

#include "relational/algebra.h"
#include "relational/query_cache.h"

namespace dbre {
namespace {

struct AttributeColumn {
  std::string relation;
  std::string attribute;
  DataType type;
  bool is_key_target = false;  // attribute alone is a declared key
  size_t distinct = 0;         // dictionary size (distinct non-NULL values)
};

}  // namespace

Result<std::vector<InclusionDependency>> MineUnaryInds(
    const Database& database, const IndMinerOptions& options,
    IndMinerStats* stats) {
  IndMinerStats local_stats;
  IndMinerStats* s = stats != nullptr ? stats : &local_stats;
  *s = IndMinerStats{};

  // One pass over the catalog: encode every attribute and note its exact
  // distinct count, which the O(n²) pair loop below uses to prune.
  std::vector<AttributeColumn> columns;
  for (const std::string& relation : database.RelationNames()) {
    DBRE_ASSIGN_OR_RETURN(const Table* table, database.GetTable(relation));
    DBRE_ASSIGN_OR_RETURN(std::shared_ptr<QueryCache> cache,
                          table->query_cache());
    size_t index = 0;
    for (const Attribute& attribute : table->schema().attributes()) {
      AttributeColumn column;
      column.relation = relation;
      column.attribute = attribute.name;
      column.type = attribute.type;
      column.is_key_target =
          table->schema().IsKey(AttributeSet::Single(attribute.name));
      column.distinct = cache->DistinctCount({index});
      columns.push_back(std::move(column));
      ++index;
    }
  }

  std::vector<InclusionDependency> discovered;
  for (const AttributeColumn& lhs : columns) {
    if (lhs.distinct < options.min_lhs_distinct) continue;
    for (const AttributeColumn& rhs : columns) {
      if (&lhs == &rhs) continue;
      if (lhs.type != rhs.type) continue;
      if (lhs.relation == rhs.relation && lhs.attribute == rhs.attribute) {
        continue;
      }
      ++s->pairs_considered;
      if (options.key_targets_only && !rhs.is_key_target) continue;
      // Size pruning: a larger set cannot be included in a smaller one.
      if (lhs.distinct > rhs.distinct) continue;
      ++s->pairs_checked;
      DBRE_ASSIGN_OR_RETURN(
          bool included,
          InclusionHolds(database, lhs.relation, {lhs.attribute},
                         rhs.relation, {rhs.attribute}));
      if (included) {
        discovered.push_back(InclusionDependency::Single(
            lhs.relation, lhs.attribute, rhs.relation, rhs.attribute));
      }
    }
  }
  std::sort(discovered.begin(), discovered.end());
  s->discovered = discovered.size();
  return discovered;
}

Result<std::vector<InclusionDependency>> MineNaryInds(
    const Database& database, const NaryIndMinerOptions& options,
    NaryIndMinerStats* stats) {
  NaryIndMinerStats local_stats;
  NaryIndMinerStats* s = stats != nullptr ? stats : &local_stats;
  *s = NaryIndMinerStats{};

  DBRE_ASSIGN_OR_RETURN(
      std::vector<InclusionDependency> unary,
      MineUnaryInds(database, options.unary, &s->unary));
  std::vector<InclusionDependency> all = unary;

  // Fast membership test for the downward-closure filter.
  std::set<InclusionDependency> unary_set(unary.begin(), unary.end());
  auto unary_holds = [&](const std::string& lr, const std::string& la,
                         const std::string& rr, const std::string& ra) {
    return unary_set.contains(InclusionDependency::Single(lr, la, rr, ra));
  };

  std::vector<InclusionDependency> level = unary;
  for (size_t arity = 2; arity <= options.max_arity && !level.empty();
       ++arity) {
    // Group the previous level by relation pair.
    std::map<std::pair<std::string, std::string>,
             std::vector<const InclusionDependency*>>
        by_pair;
    for (const InclusionDependency& ind : level) {
      by_pair[{ind.lhs_relation, ind.rhs_relation}].push_back(&ind);
    }
    std::vector<InclusionDependency> next;
    std::set<InclusionDependency> seen;
    for (const auto& [pair, inds] : by_pair) {
      for (const InclusionDependency* a : inds) {
        for (const InclusionDependency* b : inds) {
          // Join on a shared (k−1)-prefix; extend with b's last pair.
          // For k=2 the prefix is empty: combine any two unary INDs with
          // distinct attributes, ordered by LHS attribute.
          const std::string& a_last = a->lhs_attributes.back();
          const std::string& b_last = b->lhs_attributes.back();
          if (a_last >= b_last) continue;
          bool same_prefix = true;
          for (size_t i = 0; i + 1 < a->lhs_attributes.size(); ++i) {
            if (a->lhs_attributes[i] != b->lhs_attributes[i] ||
                a->rhs_attributes[i] != b->rhs_attributes[i]) {
              same_prefix = false;
              break;
            }
          }
          if (!same_prefix) continue;
          // No attribute reuse on either side.
          if (std::find(a->lhs_attributes.begin(), a->lhs_attributes.end(),
                        b_last) != a->lhs_attributes.end()) {
            continue;
          }
          const std::string& b_rhs_last = b->rhs_attributes.back();
          if (std::find(a->rhs_attributes.begin(), a->rhs_attributes.end(),
                        b_rhs_last) != a->rhs_attributes.end()) {
            continue;
          }
          InclusionDependency candidate = *a;
          candidate.lhs_attributes.push_back(b_last);
          candidate.rhs_attributes.push_back(b_rhs_last);
          if (!seen.insert(candidate).second) continue;
          // Downward closure on unary projections (cheap necessary
          // condition; full (k−1)-ary closure is implied by construction
          // for k=2 and approximated above for k>2).
          bool closed = true;
          for (size_t i = 0; i < candidate.arity(); ++i) {
            if (!unary_holds(candidate.lhs_relation,
                             candidate.lhs_attributes[i],
                             candidate.rhs_relation,
                             candidate.rhs_attributes[i])) {
              closed = false;
              break;
            }
          }
          if (!closed) continue;
          ++s->candidates_generated;
          ++s->candidates_checked;
          DBRE_ASSIGN_OR_RETURN(bool holds, Satisfies(database, candidate));
          if (holds) next.push_back(std::move(candidate));
        }
      }
    }
    all.insert(all.end(), next.begin(), next.end());
    level = std::move(next);
  }
  all = SortedUnique(std::move(all));
  s->discovered = all.size();
  return all;
}

}  // namespace dbre
