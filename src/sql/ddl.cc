#include "sql/ddl.h"

#include <utility>
#include <vector>

#include "common/string_util.h"
#include "sql/reader.h"

namespace dbre::sql {
namespace {

class DdlParser : public TokenCursor {
 public:
  DdlParser(std::vector<Token> tokens, Database* database)
      : TokenCursor(std::move(tokens)), database_(database) {}

  Result<DdlStats> Run() {
    DdlStats stats;
    // Rows go into their table as soon as they are read.
    auto insert = [&stats](Table& table, ValueVector row) {
      ++stats.rows_inserted;
      return table.Insert(std::move(row));
    };
    while (!Check(TokenType::kEnd)) {
      if (Match(TokenType::kSemicolon)) continue;
      if (CheckKeyword("CREATE")) {
        DBRE_RETURN_IF_ERROR(ParseCreateTable());
        ++stats.tables_created;
      } else if (CheckKeyword("INSERT")) {
        DBRE_RETURN_IF_ERROR(ReadInsert(*this, database_, insert).status());
      } else {
        return ErrorHere("expected CREATE TABLE or INSERT");
      }
    }
    return stats;
  }

 private:
  // TYPE [( n [, m] )] → DataType; the optional scale decides NUMBER/
  // DECIMAL between int64 and double.
  Result<DataType> ParseType() {
    DBRE_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier());
    std::string upper = ToUpper(name);
    bool has_scale = false;
    if (Match(TokenType::kLeftParen)) {
      if (!Check(TokenType::kInteger)) {
        return ErrorHere("expected precision in type");
      }
      Advance();
      if (Match(TokenType::kComma)) {
        if (!Check(TokenType::kInteger)) {
          return ErrorHere("expected scale in type");
        }
        has_scale = Advance().text != "0";
      }
      DBRE_RETURN_IF_ERROR(Expect(TokenType::kRightParen));
    }
    if (upper == "INT" || upper == "INTEGER" || upper == "SMALLINT" ||
        upper == "BIGINT" || upper == "INT64") {
      return DataType::kInt64;
    }
    if (upper == "NUMBER" || upper == "NUMERIC" || upper == "DECIMAL") {
      return has_scale ? DataType::kDouble : DataType::kInt64;
    }
    if (upper == "DOUBLE" || upper == "REAL" || upper == "FLOAT") {
      return DataType::kDouble;
    }
    if (upper == "BOOLEAN" || upper == "BOOL") return DataType::kBool;
    if (upper == "CHAR" || upper == "VARCHAR" || upper == "VARCHAR2" ||
        upper == "TEXT" || upper == "STRING" || upper == "DATE") {
      return DataType::kString;
    }
    return ErrorHere("unknown type " + name);
  }

  Result<AttributeSet> ParseColumnNameList() {
    DBRE_RETURN_IF_ERROR(Expect(TokenType::kLeftParen));
    AttributeSet columns;
    while (true) {
      DBRE_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier());
      columns.Insert(std::move(name));
      if (!Match(TokenType::kComma)) break;
    }
    DBRE_RETURN_IF_ERROR(Expect(TokenType::kRightParen));
    return columns;
  }

  Status ParseCreateTable() {
    DBRE_RETURN_IF_ERROR(ExpectKeyword("CREATE"));
    DBRE_RETURN_IF_ERROR(ExpectKeyword("TABLE"));
    DBRE_ASSIGN_OR_RETURN(std::string table_name, ExpectIdentifier());
    RelationSchema schema(table_name);
    std::vector<AttributeSet> uniques;
    AttributeSet primary_key;
    DBRE_RETURN_IF_ERROR(Expect(TokenType::kLeftParen));
    while (true) {
      if (MatchKeyword("UNIQUE")) {
        DBRE_ASSIGN_OR_RETURN(AttributeSet columns, ParseColumnNameList());
        uniques.push_back(std::move(columns));
      } else if (MatchKeyword("PRIMARY")) {
        DBRE_RETURN_IF_ERROR(ExpectKeyword("KEY"));
        DBRE_ASSIGN_OR_RETURN(AttributeSet columns, ParseColumnNameList());
        if (!primary_key.empty()) {
          return ErrorHere("multiple PRIMARY KEY clauses");
        }
        primary_key = std::move(columns);
      } else {
        DBRE_ASSIGN_OR_RETURN(std::string column_name, ExpectIdentifier());
        DBRE_ASSIGN_OR_RETURN(DataType type, ParseType());
        bool not_null = false;
        while (true) {
          if (MatchKeyword("NOT")) {
            DBRE_RETURN_IF_ERROR(ExpectKeyword("NULL"));
            not_null = true;
            continue;
          }
          if (MatchKeyword("UNIQUE")) {
            uniques.push_back(AttributeSet::Single(column_name));
            continue;
          }
          if (MatchKeyword("PRIMARY")) {
            DBRE_RETURN_IF_ERROR(ExpectKeyword("KEY"));
            if (!primary_key.empty()) {
              return ErrorHere("multiple PRIMARY KEY clauses");
            }
            primary_key = AttributeSet::Single(column_name);
            continue;
          }
          break;
        }
        DBRE_RETURN_IF_ERROR(
            schema.AddAttribute(std::move(column_name), type, not_null));
      }
      if (!Match(TokenType::kComma)) break;
    }
    DBRE_RETURN_IF_ERROR(Expect(TokenType::kRightParen));
    Match(TokenType::kSemicolon);
    if (!primary_key.empty()) {
      DBRE_RETURN_IF_ERROR(schema.DeclareUnique(std::move(primary_key)));
    }
    for (AttributeSet& unique : uniques) {
      DBRE_RETURN_IF_ERROR(schema.DeclareUnique(std::move(unique)));
    }
    return database_->CreateRelation(std::move(schema));
  }

  Database* database_;
};

}  // namespace

Result<DdlStats> ExecuteDdlScript(std::string_view sql, Database* database) {
  if (database == nullptr) return InvalidArgumentError("database is null");
  DBRE_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  DdlParser parser(std::move(tokens), database);
  return parser.Run();
}

}  // namespace dbre::sql
