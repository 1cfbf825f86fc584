// Live-session DML: INSERT / UPDATE / DELETE for the legacy subset.
//
// Real legacy databases keep taking writes while being reverse-engineered;
// this is the mutation front end the service layer journals and replays
// (docs/INCREMENTAL.md). The supported forms are:
//
//   INSERT INTO name [(cols)] VALUES (v, ...) [, (v, ...)]* ;
//   UPDATE name SET col = lit [, col = lit]* [WHERE conjunction] ;
//   DELETE FROM name [WHERE conjunction] ;
//
// where `conjunction` is `predicate [AND predicate]*` and a predicate is
// `col op literal` (op one of = != <> < <= > >=) or `col IS [NOT] NULL`.
// SQL NULL semantics: a comparison against a NULL cell is false (only
// IS NULL / IS NOT NULL match NULLs), and comparing incomparable types is
// false, never an error.
//
// Execution is two-phase: the whole script parses and validates first
// (unknown tables/columns, literal types against declared types, NULL into
// not-null attributes are all parse errors), then applies — so a journaled
// script is exactly what mutated the catalog, never a prefix. Paged
// (read-only) target tables are made resident (their codes copied into
// memory) before the first mutation touches them; mutations never write
// through the buffer pool.
#ifndef DBRE_SQL_DML_H_
#define DBRE_SQL_DML_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "relational/database.h"

namespace dbre::sql {

// Per-table effect of one script, in first-touch order. `updated_columns`
// are the schema indexes assigned by UPDATE statements (sorted, unique) —
// what the incremental re-validation driver keys its witness analysis on.
struct TableMutation {
  std::string table;
  size_t inserted = 0;
  size_t updated = 0;
  size_t deleted = 0;
  bool structural = false;  // rows removed: caches rebuilt cold
  std::vector<size_t> updated_columns;
};

struct DmlStats {
  size_t statements = 0;
  size_t rows_inserted = 0;
  size_t rows_updated = 0;
  size_t rows_deleted = 0;
  std::vector<TableMutation> tables;
};

// Executes a ';'-separated script of INSERT / UPDATE / DELETE statements
// against `database`. The script is parsed and validated in full before
// any row changes (see above).
Result<DmlStats> ExecuteDmlScript(std::string_view sql, Database* database);

}  // namespace dbre::sql

#endif  // DBRE_SQL_DML_H_
