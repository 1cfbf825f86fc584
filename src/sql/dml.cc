#include "sql/dml.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/string_util.h"
#include "sql/token.h"

namespace dbre::sql {
namespace {

// Numeric-coercing comparison mirroring the executor's CompareValues, but
// total: incomparable types yield nullopt and the predicate is false.
std::optional<int> Compare(const Value& a, const Value& b) {
  if (a.is_int() && b.is_int()) {
    return a.as_int() < b.as_int() ? -1 : (a.as_int() > b.as_int() ? 1 : 0);
  }
  if ((a.is_int() || a.is_real()) && (b.is_int() || b.is_real())) {
    double da = a.is_int() ? static_cast<double>(a.as_int()) : a.as_real();
    double db = b.is_int() ? static_cast<double>(b.as_int()) : b.as_real();
    if (da < db) return -1;
    if (da > db) return 1;
    if (da == db) return 0;
    return std::nullopt;  // NaN involved: no ordering, predicate false
  }
  if (a.is_text() && b.is_text()) {
    int cmp = a.as_text().compare(b.as_text());
    return cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
  }
  if (a.is_bool() && b.is_bool()) {
    return static_cast<int>(a.as_bool()) - static_cast<int>(b.as_bool());
  }
  return std::nullopt;
}

enum class Op { kEq, kNe, kLt, kLe, kGt, kGe, kIsNull, kIsNotNull };

struct SimplePredicate {
  size_t column = 0;
  Op op = Op::kEq;
  Value literal;
};

bool PredicateMatches(const SimplePredicate& predicate,
                      const EncodedTable::RowView& row) {
  const Value& cell = row[predicate.column];
  switch (predicate.op) {
    case Op::kIsNull:
      return cell.is_null();
    case Op::kIsNotNull:
      return !cell.is_null();
    default:
      break;
  }
  if (cell.is_null() || predicate.literal.is_null()) return false;
  std::optional<int> cmp = Compare(cell, predicate.literal);
  if (!cmp.has_value()) return false;
  switch (predicate.op) {
    case Op::kEq:
      return *cmp == 0;
    case Op::kNe:
      return *cmp != 0;
    case Op::kLt:
      return *cmp < 0;
    case Op::kLe:
      return *cmp <= 0;
    case Op::kGt:
      return *cmp > 0;
    case Op::kGe:
      return *cmp >= 0;
    default:
      return false;
  }
}

bool ConjunctionMatches(const std::vector<SimplePredicate>& where,
                        const EncodedTable::RowView& row) {
  for (const SimplePredicate& predicate : where) {
    if (!PredicateMatches(predicate, row)) return false;
  }
  return true;
}

struct Statement {
  enum class Kind { kInsert, kUpdate, kDelete };
  Kind kind = Kind::kInsert;
  Table* table = nullptr;
  std::string table_name;
  std::vector<ValueVector> insert_rows;  // kInsert
  std::vector<size_t> set_columns;       // kUpdate, sorted by parse order
  ValueVector set_values;                // kUpdate, parallel to set_columns
  std::vector<SimplePredicate> where;    // kUpdate/kDelete; empty = all rows
};

class DmlParser {
 public:
  DmlParser(std::vector<Token> tokens, Database* database)
      : tokens_(std::move(tokens)), database_(database) {}

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
  const Token& Peek(size_t ahead = 0) const {
    size_t index = pos_ + ahead;
    if (index >= tokens_.size()) index = tokens_.size() - 1;
    return tokens_[index];
  }
  bool Check(TokenType type) const { return Peek().type == type; }
  bool CheckKeyword(std::string_view keyword) const {
    return Peek().type == TokenType::kKeyword && Peek().text == keyword;
  }
  bool Match(TokenType type) {
    if (!Check(type)) return false;
    ++pos_;
    return true;
  }
  bool MatchKeyword(std::string_view keyword) {
    if (!CheckKeyword(keyword)) return false;
    ++pos_;
    return true;
  }
  Status ErrorHere(std::string_view message) const {
    return dbre::ParseError(std::string(message) + " at line " +
                            std::to_string(Peek().line) + " near " +
                            Peek().ToString());
  }
  Status Expect(TokenType type) {
    if (Match(type)) return Status::Ok();
    return ErrorHere(std::string("expected ") + TokenTypeName(type));
  }
  Status ExpectKeyword(std::string_view keyword) {
    if (MatchKeyword(keyword)) return Status::Ok();
    return ErrorHere("expected " + std::string(keyword));
  }
  Result<std::string> ExpectIdentifier() {
    if (!Check(TokenType::kIdentifier)) {
      return ErrorHere("expected identifier");
    }
    std::string text = Peek().text;
    ++pos_;
    return text;
  }

  Result<Value> ParseLiteral(DataType type) {
    const Token& token = Peek();
    switch (token.type) {
      case TokenType::kInteger:
      case TokenType::kDecimal: {
        DBRE_ASSIGN_OR_RETURN(Value value, Value::Parse(token.text, type));
        ++pos_;
        return value;
      }
      case TokenType::kString: {
        Value value = type == DataType::kString ? Value::Text(token.text)
                                                : Value();
        if (type != DataType::kString) {
          DBRE_ASSIGN_OR_RETURN(value, Value::Parse(token.text, type));
        }
        ++pos_;
        return value;
      }
      case TokenType::kKeyword:
        if (token.text == "NULL") {
          ++pos_;
          return Value::Null();
        }
        break;
      case TokenType::kIdentifier:
        // Unquoted TRUE/FALSE for booleans.
        if (type == DataType::kBool) {
          DBRE_ASSIGN_OR_RETURN(Value value, Value::Parse(token.text, type));
          ++pos_;
          return value;
        }
        break;
      default:
        break;
    }
    return ErrorHere("expected literal");
  }

  Result<Table*> ResolveTable(const std::string& name) {
    DBRE_ASSIGN_OR_RETURN(Table * table, database_->GetMutableTable(name));
    return table;
  }

  // predicate [AND predicate]* over `schema`; resolved to column indexes.
  Result<std::vector<SimplePredicate>> ParseWhere(
      const RelationSchema& schema) {
    std::vector<SimplePredicate> where;
    do {
      SimplePredicate predicate;
      DBRE_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier());
      DBRE_ASSIGN_OR_RETURN(predicate.column, schema.AttributeIndex(name));
      if (MatchKeyword("IS")) {
        predicate.op = MatchKeyword("NOT") ? Op::kIsNotNull : Op::kIsNull;
        DBRE_RETURN_IF_ERROR(ExpectKeyword("NULL"));
      } else {
        switch (Peek().type) {
          case TokenType::kEquals:
            predicate.op = Op::kEq;
            break;
          case TokenType::kNotEquals:
            predicate.op = Op::kNe;
            break;
          case TokenType::kLess:
            predicate.op = Op::kLt;
            break;
          case TokenType::kLessEquals:
            predicate.op = Op::kLe;
            break;
          case TokenType::kGreater:
            predicate.op = Op::kGt;
            break;
          case TokenType::kGreaterEquals:
            predicate.op = Op::kGe;
            break;
          default:
            return ErrorHere("expected comparison operator or IS [NOT] NULL");
        }
        ++pos_;
        DBRE_ASSIGN_OR_RETURN(
            predicate.literal,
            ParseLiteral(schema.attributes()[predicate.column].type));
      }
      where.push_back(std::move(predicate));
    } while (MatchKeyword("AND"));
    return where;
  }

  Status ParseInsert(Statement* statement) {
    statement->kind = Statement::Kind::kInsert;
    DBRE_RETURN_IF_ERROR(ExpectKeyword("INSERT"));
    DBRE_RETURN_IF_ERROR(ExpectKeyword("INTO"));
    DBRE_ASSIGN_OR_RETURN(statement->table_name, ExpectIdentifier());
    DBRE_ASSIGN_OR_RETURN(statement->table,
                          ResolveTable(statement->table_name));
    const RelationSchema& schema = statement->table->schema();
    const AttributeSet not_null = schema.NotNullAttributes();

    std::vector<size_t> column_indexes;
    if (Check(TokenType::kLeftParen)) {
      ++pos_;
      while (true) {
        DBRE_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier());
        DBRE_ASSIGN_OR_RETURN(size_t index, schema.AttributeIndex(name));
        column_indexes.push_back(index);
        if (!Match(TokenType::kComma)) break;
      }
      DBRE_RETURN_IF_ERROR(Expect(TokenType::kRightParen));
    } else {
      for (size_t i = 0; i < schema.arity(); ++i) column_indexes.push_back(i);
    }

    DBRE_RETURN_IF_ERROR(ExpectKeyword("VALUES"));
    while (true) {
      DBRE_RETURN_IF_ERROR(Expect(TokenType::kLeftParen));
      ValueVector row(schema.arity());  // defaults to NULLs
      size_t position = 0;
      while (true) {
        if (position >= column_indexes.size()) {
          return ErrorHere("too many values in INSERT row");
        }
        size_t column = column_indexes[position];
        DBRE_ASSIGN_OR_RETURN(
            Value value, ParseLiteral(schema.attributes()[column].type));
        row[column] = std::move(value);
        ++position;
        if (!Match(TokenType::kComma)) break;
      }
      if (position != column_indexes.size()) {
        return ErrorHere("too few values in INSERT row");
      }
      DBRE_RETURN_IF_ERROR(Expect(TokenType::kRightParen));
      // Validate now so the apply phase cannot fail mid-script.
      for (size_t i = 0; i < row.size(); ++i) {
        if (row[i].is_null() &&
            not_null.Contains(schema.attributes()[i].name)) {
          return ErrorHere("NULL in not-null attribute " + schema.name() +
                           "." + schema.attributes()[i].name);
        }
      }
      statement->insert_rows.push_back(std::move(row));
      if (!Match(TokenType::kComma)) break;
    }
    Match(TokenType::kSemicolon);
    return Status::Ok();
  }

  Status ParseUpdate(Statement* statement) {
    statement->kind = Statement::Kind::kUpdate;
    DBRE_RETURN_IF_ERROR(ExpectKeyword("UPDATE"));
    DBRE_ASSIGN_OR_RETURN(statement->table_name, ExpectIdentifier());
    DBRE_ASSIGN_OR_RETURN(statement->table,
                          ResolveTable(statement->table_name));
    const RelationSchema& schema = statement->table->schema();
    const AttributeSet not_null = schema.NotNullAttributes();
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
      DBRE_ASSIGN_OR_RETURN(Value value,
                            ParseLiteral(schema.attributes()[column].type));
      if (value.is_null() && not_null.Contains(schema.attributes()[column].name)) {
        return ErrorHere("NULL in not-null attribute " + schema.name() + "." +
                         schema.attributes()[column].name);
      }
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
    DBRE_ASSIGN_OR_RETURN(statement->table_name, ExpectIdentifier());
    DBRE_ASSIGN_OR_RETURN(statement->table,
                          ResolveTable(statement->table_name));
    if (MatchKeyword("WHERE")) {
      DBRE_ASSIGN_OR_RETURN(statement->where,
                            ParseWhere(statement->table->schema()));
    }
    Match(TokenType::kSemicolon);
    return Status::Ok();
  }

  std::vector<Token> tokens_;
  Database* database_;
  size_t pos_ = 0;
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
    TableMutation* mutation = MutationFor(&stats, statement.table_name);
    switch (statement.kind) {
      case Statement::Kind::kInsert:
        for (ValueVector& row : statement.insert_rows) {
          DBRE_RETURN_IF_ERROR(statement.table->Insert(std::move(row)));
        }
        mutation->inserted += statement.insert_rows.size();
        stats.rows_inserted += statement.insert_rows.size();
        break;
      case Statement::Kind::kUpdate: {
        const std::vector<SimplePredicate>& where = statement.where;
        DBRE_ASSIGN_OR_RETURN(
            size_t updated,
            statement.table->UpdateRows(
                statement.set_columns, statement.set_values,
                [&where](const EncodedTable::RowView& row) {
                  return ConjunctionMatches(where, row);
                }));
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
        const std::vector<SimplePredicate>& where = statement.where;
        DBRE_ASSIGN_OR_RETURN(
            size_t deleted,
            statement.table->DeleteRows(
                [&where](const EncodedTable::RowView& row) {
                  return ConjunctionMatches(where, row);
                }));
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
