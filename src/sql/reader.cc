#include "sql/reader.h"

#include <string>
#include <utility>
#include <vector>

namespace dbre::sql {

std::optional<ComparisonOp> MatchComparisonOp(TokenCursor& in) {
  static constexpr std::pair<TokenType, ComparisonOp> kOps[] = {
      {TokenType::kEquals, ComparisonOp::kEq},
      {TokenType::kNotEquals, ComparisonOp::kNe},
      {TokenType::kLess, ComparisonOp::kLt},
      {TokenType::kLessEquals, ComparisonOp::kLe},
      {TokenType::kGreater, ComparisonOp::kGt},
      {TokenType::kGreaterEquals, ComparisonOp::kGe},
  };
  for (const auto& [type, op] : kOps) {
    if (in.Match(type)) return op;
  }
  return std::nullopt;
}

Result<Value> ParseLiteral(TokenCursor& in, DataType type) {
  const Token& token = in.Peek();
  if (token.type == TokenType::kKeyword && token.text == "NULL") {
    in.Advance();
    return Value::Null();
  }
  if (token.type == TokenType::kString && type == DataType::kString) {
    in.Advance();
    return Value::Text(token.text);
  }
  if (token.type != TokenType::kInteger && token.type != TokenType::kDecimal &&
      token.type != TokenType::kString &&
      !(token.type == TokenType::kIdentifier && type == DataType::kBool)) {
    return in.ErrorHere("expected literal");
  }
  DBRE_ASSIGN_OR_RETURN(Value value, Value::Parse(token.text, type));
  in.Advance();
  return value;
}

Result<Table*> ReadInsert(TokenCursor& in, Database* database,
                          const InsertRowFn& on_row) {
  DBRE_RETURN_IF_ERROR(in.ExpectKeyword("INSERT"));
  DBRE_RETURN_IF_ERROR(in.ExpectKeyword("INTO"));
  DBRE_ASSIGN_OR_RETURN(std::string table_name, in.ExpectIdentifier());
  DBRE_ASSIGN_OR_RETURN(Table * table, database->GetMutableTable(table_name));
  const RelationSchema& schema = table->schema();

  // Optional explicit column list.
  std::vector<size_t> column_indexes;
  if (in.Match(TokenType::kLeftParen)) {
    do {
      DBRE_ASSIGN_OR_RETURN(std::string name, in.ExpectIdentifier());
      DBRE_ASSIGN_OR_RETURN(size_t index, schema.AttributeIndex(name));
      column_indexes.push_back(index);
    } while (in.Match(TokenType::kComma));
    DBRE_RETURN_IF_ERROR(in.Expect(TokenType::kRightParen));
  } else {
    for (size_t i = 0; i < schema.arity(); ++i) column_indexes.push_back(i);
  }

  DBRE_RETURN_IF_ERROR(in.ExpectKeyword("VALUES"));
  do {
    DBRE_RETURN_IF_ERROR(in.Expect(TokenType::kLeftParen));
    ValueVector row(schema.arity());  // defaults to NULLs
    size_t position = 0;
    do {
      if (position >= column_indexes.size()) {
        return in.ErrorHere("too many values in INSERT row");
      }
      const size_t column = column_indexes[position++];
      DBRE_ASSIGN_OR_RETURN(
          row[column], ParseLiteral(in, schema.attributes()[column].type));
    } while (in.Match(TokenType::kComma));
    if (position != column_indexes.size()) {
      return in.ErrorHere("too few values in INSERT row");
    }
    DBRE_RETURN_IF_ERROR(in.Expect(TokenType::kRightParen));
    DBRE_RETURN_IF_ERROR(on_row(*table, std::move(row)));
  } while (in.Match(TokenType::kComma));
  in.Match(TokenType::kSemicolon);
  return table;
}

}  // namespace dbre::sql
