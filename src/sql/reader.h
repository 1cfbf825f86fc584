// Readers the SQL front ends share over one TokenCursor: the token-to-
// ComparisonOp mapping (SELECT and DML), the typed literal and the
// `INSERT ... VALUES` row reader (DDL and DML). Each front end keeps its
// own rule for what happens to an inserted row through the row callback.
#ifndef DBRE_SQL_READER_H_
#define DBRE_SQL_READER_H_

#include <functional>
#include <optional>

#include "common/status.h"
#include "relational/database.h"
#include "sql/ast.h"
#include "sql/token.h"

namespace dbre::sql {

// Consumes a comparison operator (= <> != < <= > >=) and returns it;
// nullopt, consuming nothing, at any other token.
std::optional<ComparisonOp> MatchComparisonOp(TokenCursor& in);

// One literal at a column's declared `type`: a number, a quoted string
// (parsed at `type` unless it is a string column), NULL, or unquoted
// TRUE/FALSE for a bool column.
Result<Value> ParseLiteral(TokenCursor& in, DataType type);

// Reads `INSERT INTO name [(cols)] VALUES (v, ...) [, (v, ...)]* [;]`
// against `database`'s schemas and returns the target table. Each row
// (full arity, omitted columns NULL) goes to `on_row` as soon as its ')'
// is read; an error from it ends the read.
using InsertRowFn = std::function<Status(Table& table, ValueVector row)>;
Result<Table*> ReadInsert(TokenCursor& in, Database* database,
                          const InsertRowFn& on_row);

}  // namespace dbre::sql

#endif  // DBRE_SQL_READER_H_
