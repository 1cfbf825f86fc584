#include "core/restruct.h"

#include <algorithm>
#include <numeric>

#include "common/string_util.h"
#include "relational/algebra.h"
#include "relational/query_cache.h"

namespace dbre {
namespace {

// Makes `base` unique within `database` by numeric suffixing.
std::string UniqueName(const Database& database, std::string base) {
  if (base.empty()) base = "relation";
  std::string name = base;
  int suffix = 2;
  while (database.HasRelation(name)) {
    name = base + "_" + std::to_string(suffix++);
  }
  return name;
}

// Rewrites occurrences of `source_relation`[C] (C ⊆ covered) to
// `target_relation`[C] in every IND except index `exempt`.
void RewriteIndSides(std::vector<InclusionDependency>* inds, size_t exempt,
                     const std::string& source_relation,
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

// The rank of each dictionary code of column `c` in ascending Value order,
// so that comparing ranks compares the values they stand for.
Result<std::vector<uint32_t>> DictionaryRanks(const EncodedTable& encoded,
                                              size_t c) {
  std::vector<Value> values;
  values.reserve(encoded.dict_size(c));
  DBRE_RETURN_IF_ERROR(encoded.ForEachDictValue(
      c, [&values](uint32_t, const Value& value) { values.push_back(value); }));
  std::vector<uint32_t> order(values.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&values](uint32_t a, uint32_t b) {
    return values[a] < values[b];
  });
  std::vector<uint32_t> rank(values.size());
  for (uint32_t i = 0; i < order.size(); ++i) rank[order[i]] = i;
  return rank;
}

// The extension of a relation split off `source`: one row per group of the
// memoized NULL-skipping partition on `columns[0, key_width)`, taken from
// the group's first row — so rows conflicting under an expert-enforced FD
// resolve first-wins — and projected on `columns`, in ascending order of
// the key's values. Groups are ordered by dictionary ranks; the
// representatives' codes are gathered (in row order, page-local when
// paged) and only the dictionary entries they use are copied.
Result<EncodedTable> GatherRepresentatives(
    const Table& source, const std::vector<size_t>& columns,
    size_t key_width) {
  DBRE_ASSIGN_OR_RETURN(std::shared_ptr<QueryCache> cache,
                        source.query_cache());
  const std::vector<size_t> key(columns.begin(),
                                columns.begin() + key_width);
  std::shared_ptr<const CodePartition> partition =
      cache->Partition(key, NullPolicy::kSkipNullRows);
  cache->EnsureEncoded(columns);
  const EncodedTable& encoded = cache->encoded();

  std::vector<uint32_t> representatives;
  representatives.reserve(partition->num_groups());
  for (uint32_t row : partition->representative) {
    if (row != CodePartition::kSkipped) representatives.push_back(row);
  }
  // Single-column partitions index representatives by dictionary code.
  // Codes follow first appearance, so this is already row order; sorting
  // keeps the reads below moving forward whatever the code order.
  std::sort(representatives.begin(), representatives.end());
  const size_t groups = representatives.size();

  // Least-significant-digit radix sort of the groups by key: one stable
  // counting pass per key column, the column's value ranks as digits.
  std::vector<uint32_t> order(groups);
  std::iota(order.begin(), order.end(), 0u);
  std::vector<uint32_t> digit(groups);
  std::vector<uint32_t> sorted(groups);
  for (size_t k = key_width; k-- > 0;) {
    DBRE_ASSIGN_OR_RETURN(std::vector<uint32_t> rank_of,
                          DictionaryRanks(encoded, key[k]));
    EncodedTable::CodeReader codes = encoded.codes_reader(key[k]);
    std::vector<uint32_t> next(rank_of.size() + 1, 0);
    for (size_t g = 0; g < groups; ++g) {
      digit[g] = rank_of[codes.At(representatives[g])];
      ++next[digit[g] + 1];
    }
    std::partial_sum(next.begin(), next.end(), next.begin());
    for (uint32_t g : order) sorted[next[digit[g]]++] = g;
    order.swap(sorted);
  }
  std::vector<uint32_t> rows(groups);
  for (uint32_t i = 0; i < groups; ++i) rows[i] = representatives[order[i]];
  return encoded.Gather(columns, rows);
}

// Creates R_p with attributes `attributes` (types copied from `source`),
// key `key`, and `extension` (gathered from `source`'s columns, so already
// well-typed and NULL-free on the key).
Status CreateRelationFrom(Database* database, const std::string& name,
                          const Table& source,
                          const std::vector<std::string>& attributes,
                          const AttributeSet& key, EncodedTable extension) {
  RelationSchema schema(name);
  for (const std::string& attribute : attributes) {
    DBRE_ASSIGN_OR_RETURN(DataType type,
                          source.schema().AttributeType(attribute));
    DBRE_RETURN_IF_ERROR(schema.AddAttribute(attribute, type));
  }
  DBRE_RETURN_IF_ERROR(schema.DeclareUnique(key));
  Table table(std::move(schema));
  DBRE_RETURN_IF_ERROR(table.AdoptExtension(std::move(extension)));
  return database->AddTable(std::move(table));
}

}  // namespace

Result<RestructResult> Restruct(const Database& database,
                                const std::vector<FunctionalDependency>& fds,
                                const std::vector<QualifiedAttributes>& hidden,
                                const std::vector<InclusionDependency>& inds,
                                ExpertOracle* oracle) {
  if (oracle == nullptr) return InvalidArgumentError("oracle is null");

  RestructResult result;
  result.database = database.Clone();
  result.inds = inds;

  // Pass 1 — hidden objects.
  for (const QualifiedAttributes& h : hidden) {
    DBRE_ASSIGN_OR_RETURN(const Table* source,
                          result.database.GetTable(h.relation));
    std::string requested = oracle->NameHiddenObjectRelation(h);
    std::string base = requested.empty()
                           ? h.relation + "_" + Join(h.attributes.names(), "_")
                           : requested;
    std::string name = UniqueName(result.database, base);

    // Extension: distinct non-NULL projection of r_i on A_i.
    DBRE_ASSIGN_OR_RETURN(std::vector<size_t> indexes,
                          source->ProjectionIndexes(h.attributes));
    DBRE_ASSIGN_OR_RETURN(
        EncodedTable extension,
        GatherRepresentatives(*source, indexes, indexes.size()));
    DBRE_RETURN_IF_ERROR(CreateRelationFrom(
        &result.database, name, *source, h.attributes.names(), h.attributes,
        std::move(extension)));
    result.provenance[name] = "hidden object " + h.ToString();

    // Add R_i[A_i] ≪ R_p[A_i]; rewrite other occurrences of R_i[⊆A_i].
    result.inds.emplace_back(h.relation, h.attributes.names(), name,
                             h.attributes.names());
    RewriteIndSides(&result.inds, result.inds.size() - 1, h.relation,
                    h.attributes, name);
  }

  // Pass 2 — FD splitting. Each relation's moved attributes B_i leave it
  // after the pass, in one projection (DropAttributes); until then every
  // split reads the source's memoized partitions as RHS-Discovery left them.
  std::map<std::string, AttributeSet> moved;
  for (const FunctionalDependency& fd : fds) {
    DBRE_ASSIGN_OR_RETURN(const Table* source,
                          result.database.GetTable(fd.relation));
    AttributeSet& moved_here = moved[fd.relation];
    for (const std::string& attribute :
         fd.lhs.Union(fd.rhs)) {
      if (!source->schema().HasAttribute(attribute) ||
          moved_here.Contains(attribute)) {
        return FailedPreconditionError(
            "FD " + fd.ToString() + " references attribute " + attribute +
            " already moved by an earlier FD; FDs in F must not overlap");
      }
    }
    std::string requested = oracle->NameRelationForFd(fd);
    std::string base = requested.empty()
                           ? fd.relation + "_" +
                                 Join(fd.lhs.names(), "_")
                           : requested;
    std::string name = UniqueName(result.database, base);

    // Extension: one row per distinct non-NULL LHS value; dependent values
    // from the first witnessing tuple (first-wins resolves conflicts of
    // expert-enforced FDs).
    AttributeSet all = fd.lhs.Union(fd.rhs);
    std::vector<std::string> attribute_order;
    for (const std::string& a : fd.lhs) attribute_order.push_back(a);
    for (const std::string& b : fd.rhs) attribute_order.push_back(b);
    // Refuses an empty LHS: the key must project on some attribute.
    DBRE_RETURN_IF_ERROR(
        OrderedProjectionIndexes(*source, fd.lhs.names()).status());
    DBRE_ASSIGN_OR_RETURN(
        std::vector<size_t> all_indexes,
        OrderedProjectionIndexes(*source, attribute_order));
    DBRE_ASSIGN_OR_RETURN(
        EncodedTable extension,
        GatherRepresentatives(*source, all_indexes, fd.lhs.size()));
    DBRE_RETURN_IF_ERROR(CreateRelationFrom(&result.database, name, *source,
                                            attribute_order, fd.lhs,
                                            std::move(extension)));
    result.provenance[name] = "FD " + fd.ToString();
    moved_here = moved_here.Union(fd.rhs);

    // Add R_i[A_i] ≪ R_p[A_i]; rewrite other occurrences of
    // R_i[⊆ A_i ∪ B_i].
    result.inds.emplace_back(fd.relation, fd.lhs.names(), name,
                             fd.lhs.names());
    RewriteIndSides(&result.inds, result.inds.size() - 1, fd.relation, all,
                    name);
  }
  for (const auto& [relation, attributes] : moved) {
    if (attributes.empty()) continue;
    DBRE_ASSIGN_OR_RETURN(Table * table,
                          result.database.GetMutableTable(relation));
    DBRE_RETURN_IF_ERROR(table->DropAttributes(attributes));
  }

  // Drop INDs that became trivial through rewriting, then dedupe.
  result.inds.erase(
      std::remove_if(result.inds.begin(), result.inds.end(),
                     [](const InclusionDependency& ind) {
                       return ind.lhs_relation == ind.rhs_relation &&
                              ind.lhs_attributes == ind.rhs_attributes;
                     }),
      result.inds.end());
  result.inds = SortedUnique(std::move(result.inds));

  // Harvest K and RIC.
  result.keys = result.database.KeySet();
  for (const InclusionDependency& ind : result.inds) {
    if (IsKeyBased(result.database, ind)) result.rics.push_back(ind);
  }
  return result;
}

}  // namespace dbre
