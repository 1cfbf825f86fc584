#include "deps/armstrong.h"

#include <algorithm>
#include <set>

namespace dbre {

Result<Table> BuildArmstrongRelation(
    const std::string& name, const AttributeSet& universe,
    const std::vector<FunctionalDependency>& fds) {
  const std::vector<std::string>& columns = universe.names();
  const size_t k = columns.size();
  if (k == 0) return InvalidArgumentError("empty universe");
  if (k > 16) {
    return InvalidArgumentError(
        "Armstrong construction enumerates attribute subsets; universe too "
        "large (> 16)");
  }
  for (const FunctionalDependency& fd : fds) {
    if (!universe.ContainsAll(fd.lhs) || !universe.ContainsAll(fd.rhs)) {
      return InvalidArgumentError("FD " + fd.ToString() +
                                  " leaves the universe");
    }
  }

  // The closure lattice: closures of every attribute subset. These are
  // exactly the closed sets, and the family is intersection-closed.
  std::set<AttributeSet> closed;
  for (uint32_t mask = 0; mask < (1u << k); ++mask) {
    AttributeSet subset;
    for (size_t i = 0; i < k; ++i) {
      if (mask & (1u << i)) subset.Insert(columns[i]);
    }
    closed.insert(AttributeClosure(subset, fds));
  }
  closed.erase(universe);  // would duplicate the base tuple

  RelationSchema schema(name);
  for (const std::string& column : columns) {
    DBRE_RETURN_IF_ERROR(schema.AddAttribute(column, DataType::kInt64));
  }
  Table table(std::move(schema));

  // Base tuple: all zeros.
  DBRE_RETURN_IF_ERROR(table.Insert(ValueVector(k, Value::Int(0))));
  // One tuple per proper closed set C: agrees with the base exactly on C.
  int64_t tuple_index = 1;
  for (const AttributeSet& c : closed) {
    ValueVector row;
    row.reserve(k);
    for (size_t i = 0; i < k; ++i) {
      if (c.Contains(columns[i])) {
        row.push_back(Value::Int(0));
      } else {
        row.push_back(Value::Int(tuple_index * static_cast<int64_t>(k) +
                                 static_cast<int64_t>(i) + 1));
      }
    }
    DBRE_RETURN_IF_ERROR(table.Insert(std::move(row)));
    ++tuple_index;
  }
  return table;
}

}  // namespace dbre
