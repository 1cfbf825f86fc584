// CSV import/export for table extensions.
//
// Format: RFC-4180-style quoting ("..." with "" escapes), first line is a
// header naming the columns (any order; must cover the schema exactly).
// Empty unquoted fields and the literal NULL parse as the NULL value; a
// quoted empty string "" parses as an empty string for string columns.
#ifndef DBRE_RELATIONAL_CSV_H_
#define DBRE_RELATIONAL_CSV_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "relational/database.h"
#include "relational/table.h"

namespace dbre {

// Parses `csv_text` and appends the rows to `table` (which provides the
// schema and value types). Returns the number of rows loaded. Records are
// validated in row order and the first error wins; the rows before the
// failing record stay appended.
Result<size_t> LoadCsvText(std::string_view csv_text, Table* table);

// Reads `path` and appends its rows to `table`.
Result<size_t> LoadCsvFile(const std::string& path, Table* table);

// Renders `table` (header + all rows) as CSV text. Every cell reads back
// as the value it holds; doubles print as Value::ToString does when that
// round-trips bit-identically, and in their shortest exact form otherwise.
std::string WriteCsvText(const Table& table);

// Writes `table` to `path`, replacing any existing file.
Status WriteCsvFile(const Table& table, const std::string& path);

// Writes every relation of `database` to `directory/<Relation>.csv`
// (creating the directory if needed). Returns the number of files written.
Result<size_t> ExportDatabaseCsv(const Database& database,
                                 const std::string& directory);

// Loads `directory/<Relation>.csv` into every relation of `database` that
// has such a file (relations without a file keep their current extension).
// Returns the number of files loaded.
Result<size_t> ImportDatabaseCsv(const std::string& directory,
                                 Database* database);

}  // namespace dbre

#endif  // DBRE_RELATIONAL_CSV_H_
