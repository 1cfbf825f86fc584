// Extension-query primitives used by the elicitation algorithms.
//
// IND-Discovery needs, for an equi-join R_k[A_k] ⋈ R_l[A_l]:
//   N_k  = ‖r_k[A_k]‖,  N_l = ‖r_l[A_l]‖,  N_kl = ‖r_k[A_k] ⋈ r_l[A_l]‖.
// Since both operands of the join are duplicate-free projections over the
// same attribute arity, the distinct join count equals the size of the
// intersection of the two projected value sets; these helpers compute all
// three counts in one pass over each table. NULL-containing sub-rows are
// excluded, matching SQL `count(distinct ...)`.
#ifndef DBRE_RELATIONAL_ALGEBRA_H_
#define DBRE_RELATIONAL_ALGEBRA_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "relational/database.h"
#include "relational/equi_join.h"
#include "relational/table.h"

namespace dbre {

// The three valuations of §6.1 for one equi-join.
struct JoinCounts {
  size_t n_left = 0;   // N_k
  size_t n_right = 0;  // N_l
  size_t n_join = 0;   // N_kl

  bool EmptyIntersection() const { return n_join == 0; }
  bool LeftIncluded() const { return n_join == n_left && n_left > 0; }
  bool RightIncluded() const { return n_join == n_right && n_right > 0; }
  bool ProperIntersection() const {
    return n_join > 0 && n_join != n_left && n_join != n_right;
  }
};

// Column indexes of `attributes` (in the given order, not sorted) within
// `table`'s schema.
Result<std::vector<size_t>> OrderedProjectionIndexes(
    const Table& table, const std::vector<std::string>& attributes);

// Distinct projection on an ordered attribute list (pairing preserved).
Result<ValueVectorSet> OrderedDistinctProjection(
    const Table& table, const std::vector<std::string>& attributes);

// Computes N_k, N_l, N_kl for `join` against `database`.
Result<JoinCounts> ComputeJoinCounts(const Database& database,
                                     const EquiJoin& join);

// Whether r_i[Y] ⊆ r_j[Z] holds in the extension, with Y and Z ordered
// attribute lists of equal arity. NULL-containing sub-rows on the left are
// ignored (an all-NULL row trivially satisfies a referential constraint).
Result<bool> InclusionHolds(const Database& database,
                            const std::string& lhs_relation,
                            const std::vector<std::string>& lhs_attributes,
                            const std::string& rhs_relation,
                            const std::vector<std::string>& rhs_attributes);

// Size of r_k[A_k] ∩ r_l[A_l] (same as JoinCounts::n_join).
Result<size_t> IntersectionSize(const Database& database,
                                const EquiJoin& join);

// Checks whether the functional dependency lhs → rhs holds in `table`:
// for all tuples t, t': t[lhs] = t'[lhs] ⇒ t[rhs] = t'[rhs].
// Tuples with NULL in `lhs` are skipped (their group identity is unknown);
// NULLs in `rhs` compare like ordinary values.
Result<bool> FunctionalDependencyHolds(const Table& table,
                                       const AttributeSet& lhs,
                                       const AttributeSet& rhs);

// The g3 error of lhs → rhs in `table`: the minimum fraction of
// (NULL-lhs-excluded) tuples that must be removed for the FD to hold —
// within each lhs group, everything but the plurality rhs value counts as
// a violation. 0.0 = holds exactly; legacy data with a few mispunched
// tuples scores just above 0. Returns 0.0 for empty tables.
Result<double> FunctionalDependencyError(const Table& table,
                                         const AttributeSet& lhs,
                                         const AttributeSet& rhs);

}  // namespace dbre

#endif  // DBRE_RELATIONAL_ALGEBRA_H_
