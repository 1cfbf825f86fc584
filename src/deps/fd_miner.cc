#include "deps/fd_miner.h"

#include <algorithm>
#include <memory>

#include "relational/query_cache.h"

namespace dbre {
namespace {

// Candidate LHS node in the levelwise search: X, its schema indexes in
// ascending order (the partition memo key), and |π_X|.
struct Node {
  AttributeSet attributes;
  std::vector<size_t> columns;
  size_t groups = 0;
};

std::vector<size_t> WithColumn(std::vector<size_t> columns, size_t column) {
  columns.insert(std::upper_bound(columns.begin(), columns.end(), column),
                 column);
  return columns;
}

}  // namespace

Result<std::vector<FunctionalDependency>> MineFds(
    const Table& table, const FdMinerOptions& options,
    FdMinerStats* stats) {
  FdMinerStats local_stats;
  FdMinerStats* s = stats != nullptr ? stats : &local_stats;
  *s = FdMinerStats{};

  const RelationSchema& schema = table.schema();
  const size_t arity = schema.arity();
  std::vector<FunctionalDependency> discovered;
  if (arity < 2) return discovered;

  // X → a holds iff |π_X| == |π_{X∪a}|, with NULL grouped as a value.
  // The table's query cache memoizes every partition, so π_{X∪a} built
  // for a check at one level is the node partition of the next.
  DBRE_ASSIGN_OR_RETURN(std::shared_ptr<QueryCache> cache,
                        table.query_cache());
  auto num_groups = [&cache](const std::vector<size_t>& columns) {
    return cache->Partition(columns, NullPolicy::kNullAsValue)->num_groups();
  };

  // Level 1 nodes: the single-column partitions.
  std::vector<Node> level;
  for (size_t c = 0; c < arity; ++c) {
    level.push_back(Node{AttributeSet::Single(schema.attributes()[c].name),
                         {c}, num_groups({c})});
    ++s->partitions_built;
  }

  auto column_index = [&](const std::string& name) -> size_t {
    return schema.AttributeIndex(name).value();
  };

  // Checks minimality: no discovered FD Y → a with Y ⊂ X exists.
  auto is_minimal = [&](const AttributeSet& lhs,
                        const std::string& dependent) {
    for (const FunctionalDependency& fd : discovered) {
      if (fd.rhs.Contains(dependent) && lhs.ContainsAll(fd.lhs) &&
          fd.lhs != lhs) {
        return false;
      }
    }
    return true;
  };

  for (size_t depth = 1; depth <= options.max_lhs_size && !level.empty();
       ++depth) {
    // Verify FDs X → a for every node X at this level and attribute a ∉ X
    // that keeps the candidate minimal.
    for (const Node& node : level) {
      for (size_t c = 0; c < arity; ++c) {
        const std::string& dependent = schema.attributes()[c].name;
        if (node.attributes.Contains(dependent)) continue;
        if (!is_minimal(node.attributes, dependent)) continue;
        if (options.max_checks != 0 &&
            s->candidates_checked >= options.max_checks) {
          std::sort(discovered.begin(), discovered.end());
          s->discovered = discovered.size();
          return discovered;
        }
        ++s->candidates_checked;
        if (num_groups(WithColumn(node.columns, c)) == node.groups) {
          discovered.emplace_back(schema.name(), node.attributes,
                                  AttributeSet::Single(dependent));
        }
      }
    }
    if (depth == options.max_lhs_size) break;

    // Generate the next level: extend each node with attributes greater
    // than its maximum (prefix-tree generation avoids duplicates). Skip
    // extensions X∪{a} when X → a was just discovered (supersets of a
    // determined attribute cannot yield minimal FDs through it, and the
    // node would carry a partition identical to X's).
    std::vector<Node> next;
    for (const Node& node : level) {
      const std::string& max_name = node.attributes.names().back();
      for (size_t c = 0; c < arity; ++c) {
        const std::string& name = schema.attributes()[c].name;
        if (name <= max_name) continue;
        AttributeSet extended = node.attributes;
        extended.Insert(name);
        bool redundant = false;
        for (const FunctionalDependency& fd : discovered) {
          if (extended.ContainsAll(fd.lhs) &&
              extended.ContainsAll(fd.rhs) &&
              !fd.lhs.ContainsAll(fd.rhs) && fd.lhs != extended) {
            // extended contains a discovered FD entirely; its partition is
            // degenerate w.r.t. minimal discovery through that RHS. We keep
            // generation simple: only skip when the *new* attribute is a
            // discovered RHS of a subset LHS.
            if (fd.rhs.Contains(name) && node.attributes.ContainsAll(fd.lhs)) {
              redundant = true;
              break;
            }
          }
        }
        if (redundant) continue;
        std::vector<size_t> columns =
            WithColumn(node.columns, column_index(name));
        const size_t groups = num_groups(columns);
        next.push_back(Node{std::move(extended), std::move(columns), groups});
      }
    }
    level = std::move(next);
  }

  std::sort(discovered.begin(), discovered.end());
  s->discovered = discovered.size();
  return discovered;
}

}  // namespace dbre
