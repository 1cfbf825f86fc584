// Lexer for the legacy SQL subset found in application programs.
//
// Handles identifiers (bare or "quoted"), keywords (case-insensitive),
// integer/decimal/string literals, host variables (:name, as found in
// embedded SQL), punctuation and comparison operators, plus SQL comments
// (-- to end of line and /* ... */). TokenCursor is the one read position
// the SELECT, DDL and DML parsers walk the tokens with.
#ifndef DBRE_SQL_TOKEN_H_
#define DBRE_SQL_TOKEN_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace dbre::sql {

enum class TokenType {
  kIdentifier,    // person, "Person"
  kKeyword,       // SELECT, FROM, ... (text is uppercased)
  kInteger,       // 42
  kDecimal,       // 3.14
  kString,        // 'text' (text is unescaped)
  kHostVariable,  // :emp_no
  kComma,
  kDot,
  kLeftParen,
  kRightParen,
  kEquals,        // =
  kNotEquals,     // <> or !=
  kLess,
  kLessEquals,
  kGreater,
  kGreaterEquals,
  kStar,          // *
  kSemicolon,
  kEnd,           // end of input
};

const char* TokenTypeName(TokenType type);

struct Token {
  TokenType type = TokenType::kEnd;
  std::string text;   // identifier/keyword/literal payload
  size_t line = 1;    // 1-based position for diagnostics
  size_t column = 1;

  std::string ToString() const;
};

// True if `word` (any case) is one of the recognized SQL keywords.
bool IsKeyword(std::string_view word);

// Tokenizes `sql`; the result always ends with a kEnd token.
Result<std::vector<Token>> Tokenize(std::string_view sql);

// A read position over Tokenize's output. Reads past the end stay on the
// final kEnd token. Every error it makes is a ParseError that names the
// current token's line and the token itself.
class TokenCursor {
 public:
  explicit TokenCursor(std::vector<Token> tokens)
      : tokens_(std::move(tokens)) {}

  const Token& Peek(size_t ahead = 0) const;
  bool Check(TokenType type) const { return Peek().type == type; }
  bool CheckKeyword(std::string_view keyword, size_t ahead = 0) const;

  // Consumes the current token and returns it.
  const Token& Advance();
  // Consume the current token if it is `type` / `keyword`.
  bool Match(TokenType type);
  bool MatchKeyword(std::string_view keyword);
  // As Match, but "expected ..." errors when the token is not there.
  Status Expect(TokenType type);
  Status ExpectKeyword(std::string_view keyword);
  Result<std::string> ExpectIdentifier();

  // "<message> at line L near <token>", at the current token.
  Status ErrorHere(std::string_view message) const;

 private:
  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace dbre::sql

#endif  // DBRE_SQL_TOKEN_H_
