#include "core/ind_discovery.h"

#include <algorithm>
#include <optional>

#include "common/string_util.h"
#include "common/thread_pool.h"

namespace dbre {

const char* JoinOutcomeKindName(JoinOutcomeKind kind) {
  switch (kind) {
    case JoinOutcomeKind::kEmptyIntersection:
      return "empty_intersection";
    case JoinOutcomeKind::kLeftIncluded:
      return "left_included";
    case JoinOutcomeKind::kRightIncluded:
      return "right_included";
    case JoinOutcomeKind::kBothIncluded:
      return "both_included";
    case JoinOutcomeKind::kNeiConceptualized:
      return "nei_conceptualized";
    case JoinOutcomeKind::kNeiForced:
      return "nei_forced";
    case JoinOutcomeKind::kNeiIgnored:
      return "nei_ignored";
    case JoinOutcomeKind::kError:
      return "error";
  }
  return "unknown";
}

namespace {

// Derives a unique name for a conceptualized intersection relation.
std::string DeriveIntersectionName(const Database& database,
                                   const EquiJoin& join) {
  std::string base = join.left_relation + "_" + join.right_relation + "_" +
                     Join(join.left_attributes, "_");
  std::string name = base;
  int suffix = 2;
  while (database.HasRelation(name)) {
    name = base + "_" + std::to_string(suffix++);
  }
  return name;
}

// Creates R_p(A_p) in `database` with the intersection extension of the
// join's two projections. Attribute names and types come from the join's
// left side; the attribute set is declared unique (its extension is a set).
Status ConceptualizeIntersection(Database* database, const EquiJoin& join,
                                 const std::string& name) {
  DBRE_ASSIGN_OR_RETURN(const Table* left,
                        database->GetTable(join.left_relation));
  DBRE_ASSIGN_OR_RETURN(const Table* right,
                        database->GetTable(join.right_relation));

  RelationSchema schema(name);
  for (const std::string& attribute : join.left_attributes) {
    DBRE_ASSIGN_OR_RETURN(DataType type,
                          left->schema().AttributeType(attribute));
    DBRE_RETURN_IF_ERROR(schema.AddAttribute(attribute, type,
                                             /*not_null=*/true));
  }
  DBRE_RETURN_IF_ERROR(schema.DeclareUnique(join.LeftAttributeSet()));

  Table table(std::move(schema));
  DBRE_ASSIGN_OR_RETURN(
      ValueVectorSet left_values,
      OrderedDistinctProjection(*left, join.left_attributes));
  DBRE_ASSIGN_OR_RETURN(
      ValueVectorSet right_values,
      OrderedDistinctProjection(*right, join.right_attributes));
  // The left attribute list may repeat names (it cannot: EquiJoin::Validate
  // rejects empty, and schema.AddAttribute rejects duplicates), so the
  // projected rows insert directly.
  for (const ValueVector& row : left_values) {
    if (right_values.contains(row)) {
      DBRE_RETURN_IF_ERROR(table.Insert(row));
    }
  }
  return database->AddTable(std::move(table));
}

}  // namespace

Result<IndDiscoveryResult> DiscoverInds(Database* database,
                                        const std::vector<EquiJoin>& joins,
                                        ExpertOracle* oracle,
                                        const IndDiscoveryOptions& options) {
  if (database == nullptr) return InvalidArgumentError("database is null");
  if (oracle == nullptr) return InvalidArgumentError("oracle is null");

  // Fan the per-join valuations out first: they only read the catalog
  // (conceptualized relations are added below, but a later join can never
  // reference one — their names are freshly derived), so each worker
  // writes its counts into the slot of its join and the classification
  // loop consumes the slots in input order. Results are byte-identical to
  // a sequential run for any thread count.
  std::vector<std::optional<Result<JoinCounts>>> all_counts(joins.size());
  ParallelFor(joins.size(), options.num_threads, [&](size_t i) {
    all_counts[i].emplace(ComputeJoinCounts(*database, joins[i]));
  });

  IndDiscoveryResult result;
  for (size_t join_index = 0; join_index < joins.size(); ++join_index) {
    const EquiJoin& join = joins[join_index];
    JoinOutcome outcome;
    outcome.join = join;

    const Result<JoinCounts>& counts = *all_counts[join_index];
    if (!counts.ok()) {
      if (!options.skip_invalid_joins) return counts.status();
      outcome.kind = JoinOutcomeKind::kError;
      outcome.detail = counts.status().ToString();
      result.outcomes.push_back(std::move(outcome));
      continue;
    }
    outcome.counts = *counts;
    result.extension_queries += 3;  // N_k, N_l, N_kl

    const JoinCounts& c = *counts;
    if (c.EmptyIntersection()) {
      // (i) — possible data-integrity problem; nothing elicited.
      outcome.kind = JoinOutcomeKind::kEmptyIntersection;
    } else if (c.LeftIncluded() || c.RightIncluded()) {
      // (ii)/(iii); both fire on equal value sets.
      if (c.n_left <= c.n_right && c.LeftIncluded()) {
        result.inds.emplace_back(join.left_relation, join.left_attributes,
                                 join.right_relation, join.right_attributes);
      }
      if (c.n_right <= c.n_left && c.RightIncluded()) {
        result.inds.emplace_back(join.right_relation, join.right_attributes,
                                 join.left_relation, join.left_attributes);
      }
      outcome.kind = c.LeftIncluded() && c.RightIncluded()
                         ? JoinOutcomeKind::kBothIncluded
                         : (c.LeftIncluded() ? JoinOutcomeKind::kLeftIncluded
                                             : JoinOutcomeKind::kRightIncluded);
    } else {
      // NEI: (iv)-(vii), expert decision.
      NeiDecision decision = oracle->DecideNonEmptyIntersection(join, c);
      switch (decision.action) {
        case NeiAction::kConceptualize: {
          std::string name = decision.relation_name.empty()
                                 ? DeriveIntersectionName(*database, join)
                                 : decision.relation_name;
          if (database->HasRelation(name)) {
            return AlreadyExistsError(
                "conceptualized relation name already in use: " + name);
          }
          DBRE_RETURN_IF_ERROR(
              ConceptualizeIntersection(database, join, name));
          result.new_relations.push_back(name);
          // R_p[A_p] ≪ R_k[A_k] and R_p[A_p] ≪ R_l[A_l].
          result.inds.emplace_back(name, join.left_attributes,
                                   join.left_relation, join.left_attributes);
          result.inds.emplace_back(name, join.left_attributes,
                                   join.right_relation,
                                   join.right_attributes);
          outcome.kind = JoinOutcomeKind::kNeiConceptualized;
          outcome.detail = name;
          break;
        }
        case NeiAction::kForceLeftInRight:
          result.inds.emplace_back(join.left_relation, join.left_attributes,
                                   join.right_relation,
                                   join.right_attributes);
          outcome.kind = JoinOutcomeKind::kNeiForced;
          outcome.detail = result.inds.back().ToString();
          break;
        case NeiAction::kForceRightInLeft:
          result.inds.emplace_back(join.right_relation,
                                   join.right_attributes, join.left_relation,
                                   join.left_attributes);
          outcome.kind = JoinOutcomeKind::kNeiForced;
          outcome.detail = result.inds.back().ToString();
          break;
        case NeiAction::kIgnore:
          outcome.kind = JoinOutcomeKind::kNeiIgnored;
          break;
      }
    }
    result.outcomes.push_back(std::move(outcome));
  }
  result.inds = SortedUnique(std::move(result.inds));
  return result;
}

}  // namespace dbre
