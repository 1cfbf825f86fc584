// Row-shaped views of a Table for tests: the extension decoded through
// Table::ForEachRow, so assertions read the same rows in either backing.
#ifndef DBRE_TESTS_SUPPORT_TABLE_ROWS_H_
#define DBRE_TESTS_SUPPORT_TABLE_ROWS_H_

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "relational/table.h"

namespace dbre {

// Every row of `table`, decoded, in row order.
inline std::vector<ValueVector> Rows(const Table& table) {
  std::vector<ValueVector> rows;
  rows.reserve(table.num_rows());
  Status status =
      table.ForEachRow([&rows](const ValueVector& row) { rows.push_back(row); });
  if (!status.ok()) {
    std::fprintf(stderr, "Rows: %s\n", status.ToString().c_str());
    std::abort();
  }
  return rows;
}

// Identity of a table's column storage, one address per column: two tables
// share their codes exactly where these agree, and a write through either
// detaches (re-addresses) the columns it touches.
inline std::vector<const void*> Storage(const Table& table) {
  std::vector<const void*> columns;
  for (size_t c = 0; c < table.extension().num_columns(); ++c) {
    columns.push_back(&table.extension().codes(c));
  }
  return columns;
}

// The sub-row of `row` on `indexes`, in that order.
inline ValueVector ProjectRow(const ValueVector& row,
                              const std::vector<size_t>& indexes) {
  ValueVector out;
  out.reserve(indexes.size());
  for (size_t index : indexes) out.push_back(row[index]);
  return out;
}

// Appends every row through Table::Insert, aborting on a rejected row (test
// fixtures build well-formed tables).
inline void InsertRows(Table* table, const std::vector<ValueVector>& rows) {
  for (const ValueVector& row : rows) {
    Status status = table->Insert(row);
    if (!status.ok()) {
      std::fprintf(stderr, "InsertRows: %s\n", status.ToString().c_str());
      std::abort();
    }
  }
}

// Appends one row through Table::Insert, aborting if it is rejected.
inline void InsertOrDie(Table* table, ValueVector row) {
  InsertRows(table, {std::move(row)});
}

}  // namespace dbre

#endif  // DBRE_TESTS_SUPPORT_TABLE_ROWS_H_
