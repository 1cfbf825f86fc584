#include "sql/dml.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>

#include "sql/compare.h"
#include "sql/reader.h"

namespace dbre::sql {
namespace {

// One WHERE conjunct: `column op literal`, or `column IS [NOT] NULL`.
struct Conjunct {
  size_t column = 0;
  bool null_test = false;  // IS [NOT] NULL; `op` and `literal` unused
  bool negated = false;    // IS NOT NULL
  ComparisonOp op = ComparisonOp::kEq;
  Value literal;
};

// The rows satisfying every conjunct of `where`, ascending (all rows when
// it is empty). Each conjunct is evaluated once per dictionary entry of its
// column into a truth byte per code, plus one for the NULL lane, which only
// IS NULL selects; one pass over the codes then keeps the rows whose every
// byte is true. A comparison selects only on TRUE (sql/compare.h), so a
// NULL or NaN cell never matches one.
Result<std::vector<size_t>> SelectRows(const EncodedTable& extension,
                                       const std::vector<Conjunct>& where) {
  std::vector<const uint32_t*> codes;
  std::vector<std::vector<uint8_t>> truth;
  for (const Conjunct& conjunct : where) {
    std::vector<uint8_t> table(extension.dict_size(conjunct.column) + 1,
                               conjunct.null_test && conjunct.negated);
    table.back() = conjunct.null_test && !conjunct.negated;
    if (!conjunct.null_test) {
      DBRE_RETURN_IF_ERROR(extension.ForEachDictValue(
          conjunct.column, [&](uint32_t code, const Value& value) {
            Result<Ternary> result =
                Compare(conjunct.op, value, conjunct.literal);
            table[code] = result.ok() && *result == Ternary::kTrue;
          }));
    }
    codes.push_back(extension.codes(conjunct.column).data());
    truth.push_back(std::move(table));
  }
  std::vector<size_t> rows;
  for (size_t row = 0; row < extension.num_rows(); ++row) {
    bool selected = true;
    for (size_t k = 0; selected && k < codes.size(); ++k) {
      const uint32_t code = codes[k][row];
      selected = truth[k][code == EncodedTable::kNullCode ? truth[k].size() - 1
                                                          : code];
    }
    if (selected) rows.push_back(row);
  }
  return rows;
}

struct Statement {
  enum class Kind { kInsert, kUpdate, kDelete };
  Kind kind = Kind::kInsert;
  Table* table = nullptr;
  std::vector<ValueVector> insert_rows;  // kInsert
  std::vector<size_t> set_columns;       // kUpdate, sorted by parse order
  ValueVector set_values;                // kUpdate, parallel to set_columns
  std::vector<Conjunct> where;           // kUpdate/kDelete; empty = all rows
};

class DmlParser : public TokenCursor {
 public:
  DmlParser(std::vector<Token> tokens, Database* database)
      : TokenCursor(std::move(tokens)), database_(database) {}

  Result<std::vector<Statement>> Run() {
    std::vector<Statement> statements;
    while (!Check(TokenType::kEnd)) {
      if (Match(TokenType::kSemicolon)) continue;
      Statement statement;
      if (CheckKeyword("INSERT")) {
        DBRE_RETURN_IF_ERROR(ParseInsert(&statement));
      } else if (CheckKeyword("UPDATE")) {
        DBRE_RETURN_IF_ERROR(ParseUpdate(&statement));
      } else if (CheckKeyword("DELETE")) {
        DBRE_RETURN_IF_ERROR(ParseDelete(&statement));
      } else {
        return ErrorHere("expected INSERT, UPDATE or DELETE");
      }
      statements.push_back(std::move(statement));
    }
    return statements;
  }

 private:
  // The target of an UPDATE or DELETE.
  Result<Table*> ReadTable() {
    DBRE_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier());
    return database_->GetMutableTable(name);
  }

  // NULL into a not-null attribute is a parse error here, so the apply
  // phase cannot fail mid-script.
  Status CheckNotNull(const RelationSchema& schema, size_t column,
                      const Value& value) const {
    if (!value.is_null() || !schema.not_null_mask()[column]) {
      return Status::Ok();
    }
    return ErrorHere("NULL in not-null attribute " + schema.name() + "." +
                     schema.attributes()[column].name);
  }

  // conjunct [AND conjunct]* over `schema`; resolved to column indexes.
  Result<std::vector<Conjunct>> ParseWhere(const RelationSchema& schema) {
    std::vector<Conjunct> where;
    do {
      Conjunct conjunct;
      DBRE_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier());
      DBRE_ASSIGN_OR_RETURN(conjunct.column, schema.AttributeIndex(name));
      if (MatchKeyword("IS")) {
        conjunct.null_test = true;
        conjunct.negated = MatchKeyword("NOT");
        DBRE_RETURN_IF_ERROR(ExpectKeyword("NULL"));
      } else {
        std::optional<ComparisonOp> op = MatchComparisonOp(*this);
        if (!op) {
          return ErrorHere("expected comparison operator or IS [NOT] NULL");
        }
        conjunct.op = *op;
        DBRE_ASSIGN_OR_RETURN(
            conjunct.literal,
            ParseLiteral(*this, schema.attributes()[conjunct.column].type));
      }
      where.push_back(std::move(conjunct));
    } while (MatchKeyword("AND"));
    return where;
  }

  // Rows are checked as they are read and applied after the whole script
  // has validated.
  Status ParseInsert(Statement* statement) {
    statement->kind = Statement::Kind::kInsert;
    DBRE_ASSIGN_OR_RETURN(
        statement->table,
        ReadInsert(*this, database_, [&](Table& table, ValueVector row) {
          for (size_t i = 0; i < row.size(); ++i) {
            DBRE_RETURN_IF_ERROR(CheckNotNull(table.schema(), i, row[i]));
          }
          statement->insert_rows.push_back(std::move(row));
          return Status::Ok();
        }));
    return Status::Ok();
  }

  Status ParseUpdate(Statement* statement) {
    statement->kind = Statement::Kind::kUpdate;
    DBRE_RETURN_IF_ERROR(ExpectKeyword("UPDATE"));
    DBRE_ASSIGN_OR_RETURN(statement->table, ReadTable());
    const RelationSchema& schema = statement->table->schema();
    DBRE_RETURN_IF_ERROR(ExpectKeyword("SET"));
    do {
      DBRE_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier());
      DBRE_ASSIGN_OR_RETURN(size_t column, schema.AttributeIndex(name));
      if (std::find(statement->set_columns.begin(),
                    statement->set_columns.end(),
                    column) != statement->set_columns.end()) {
        return ErrorHere("duplicate SET column " + name);
      }
      DBRE_RETURN_IF_ERROR(Expect(TokenType::kEquals));
      DBRE_ASSIGN_OR_RETURN(
          Value value, ParseLiteral(*this, schema.attributes()[column].type));
      DBRE_RETURN_IF_ERROR(CheckNotNull(schema, column, value));
      statement->set_columns.push_back(column);
      statement->set_values.push_back(std::move(value));
    } while (Match(TokenType::kComma));
    if (MatchKeyword("WHERE")) {
      DBRE_ASSIGN_OR_RETURN(statement->where, ParseWhere(schema));
    }
    Match(TokenType::kSemicolon);
    return Status::Ok();
  }

  Status ParseDelete(Statement* statement) {
    statement->kind = Statement::Kind::kDelete;
    DBRE_RETURN_IF_ERROR(ExpectKeyword("DELETE"));
    DBRE_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    DBRE_ASSIGN_OR_RETURN(statement->table, ReadTable());
    if (MatchKeyword("WHERE")) {
      DBRE_ASSIGN_OR_RETURN(statement->where,
                            ParseWhere(statement->table->schema()));
    }
    Match(TokenType::kSemicolon);
    return Status::Ok();
  }

  Database* database_;
};

TableMutation* MutationFor(DmlStats* stats, const std::string& table) {
  for (TableMutation& mutation : stats->tables) {
    if (mutation.table == table) return &mutation;
  }
  stats->tables.push_back(TableMutation{});
  stats->tables.back().table = table;
  return &stats->tables.back();
}

}  // namespace

Result<DmlStats> ExecuteDmlScript(std::string_view sql, Database* database) {
  if (database == nullptr) return InvalidArgumentError("database is null");
  DBRE_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  DmlParser parser(std::move(tokens), database);
  DBRE_ASSIGN_OR_RETURN(std::vector<Statement> statements, parser.Run());

  // Copy every paged target's codes into memory up front: content-
  // preserving, so a failure here leaves the catalog logically unchanged
  // and the script unapplied. Mutations never write through the buffer
  // pool.
  for (Statement& statement : statements) {
    DBRE_RETURN_IF_ERROR(statement.table->MakeResident());
  }

  DmlStats stats;
  stats.statements = statements.size();
  for (Statement& statement : statements) {
    TableMutation* mutation =
        MutationFor(&stats, statement.table->schema().name());
    switch (statement.kind) {
      case Statement::Kind::kInsert:
        for (ValueVector& row : statement.insert_rows) {
          DBRE_RETURN_IF_ERROR(statement.table->Insert(std::move(row)));
        }
        mutation->inserted += statement.insert_rows.size();
        stats.rows_inserted += statement.insert_rows.size();
        break;
      case Statement::Kind::kUpdate: {
        DBRE_ASSIGN_OR_RETURN(
            std::vector<size_t> rows,
            SelectRows(statement.table->extension(), statement.where));
        DBRE_ASSIGN_OR_RETURN(
            size_t updated,
            statement.table->UpdateRows(statement.set_columns,
                                        statement.set_values, rows));
        mutation->updated += updated;
        stats.rows_updated += updated;
        if (updated > 0) {
          std::vector<size_t> merged = mutation->updated_columns;
          merged.insert(merged.end(), statement.set_columns.begin(),
                        statement.set_columns.end());
          std::sort(merged.begin(), merged.end());
          merged.erase(std::unique(merged.begin(), merged.end()),
                       merged.end());
          mutation->updated_columns = std::move(merged);
        }
        break;
      }
      case Statement::Kind::kDelete: {
        DBRE_ASSIGN_OR_RETURN(
            std::vector<size_t> rows,
            SelectRows(statement.table->extension(), statement.where));
        DBRE_ASSIGN_OR_RETURN(size_t deleted,
                              statement.table->DeleteRows(rows));
        mutation->deleted += deleted;
        stats.rows_deleted += deleted;
        if (deleted > 0) mutation->structural = true;
        break;
      }
    }
  }
  return stats;
}

}  // namespace dbre::sql
