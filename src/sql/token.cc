#include "sql/token.h"

#include <algorithm>
#include <array>
#include <cctype>

#include "common/string_util.h"

namespace dbre::sql {
namespace {

// Keywords of the recognized subset (queries, dictionary DDL, DML).
constexpr std::array<std::string_view, 39> kKeywords = {
    "SELECT", "FROM",     "WHERE",  "AND",    "OR",     "NOT",
    "IN",     "EXISTS",   "INTERSECT", "UNION", "ALL",  "DISTINCT",
    "COUNT",  "AS",       "JOIN",   "INNER",  "ON",     "ORDER",
    "BY",     "GROUP",    "HAVING", "CREATE", "TABLE",  "UNIQUE",
    "NULL",   "PRIMARY",  "KEY",    "INSERT", "INTO",   "VALUES",
    "ASC",    "DESC",     "IS",     "BETWEEN", "LIKE",  "MINUS",
    "UPDATE", "DELETE",   "SET",
};

bool IsIdentifierStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool IsIdentifierChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
         c == '-' || c == '#' || c == '$';
}

}  // namespace

const char* TokenTypeName(TokenType type) {
  switch (type) {
    case TokenType::kIdentifier: return "identifier";
    case TokenType::kKeyword: return "keyword";
    case TokenType::kInteger: return "integer";
    case TokenType::kDecimal: return "decimal";
    case TokenType::kString: return "string";
    case TokenType::kHostVariable: return "host_variable";
    case TokenType::kComma: return ",";
    case TokenType::kDot: return ".";
    case TokenType::kLeftParen: return "(";
    case TokenType::kRightParen: return ")";
    case TokenType::kEquals: return "=";
    case TokenType::kNotEquals: return "<>";
    case TokenType::kLess: return "<";
    case TokenType::kLessEquals: return "<=";
    case TokenType::kGreater: return ">";
    case TokenType::kGreaterEquals: return ">=";
    case TokenType::kStar: return "*";
    case TokenType::kSemicolon: return ";";
    case TokenType::kEnd: return "<end>";
  }
  return "unknown";
}

std::string Token::ToString() const {
  std::string out = TokenTypeName(type);
  if (!text.empty()) {
    out += "(";
    out += text;
    out += ")";
  }
  return out;
}

bool IsKeyword(std::string_view word) {
  std::string upper = ToUpper(word);
  return std::find(kKeywords.begin(), kKeywords.end(), upper) !=
         kKeywords.end();
}

Result<std::vector<Token>> Tokenize(std::string_view sql) {
  std::vector<Token> tokens;
  size_t line = 1;
  size_t column = 1;
  size_t i = 0;

  auto advance = [&](size_t n) {
    for (size_t k = 0; k < n && i < sql.size(); ++k, ++i) {
      if (sql[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
  };
  auto push = [&](TokenType type, std::string text, size_t tok_line,
                  size_t tok_column) {
    tokens.push_back(Token{type, std::move(text), tok_line, tok_column});
  };

  while (i < sql.size()) {
    char c = sql[i];
    size_t tok_line = line;
    size_t tok_column = column;

    if (std::isspace(static_cast<unsigned char>(c))) {
      advance(1);
      continue;
    }
    // Comments.
    if (c == '-' && i + 1 < sql.size() && sql[i + 1] == '-') {
      while (i < sql.size() && sql[i] != '\n') advance(1);
      continue;
    }
    if (c == '/' && i + 1 < sql.size() && sql[i + 1] == '*') {
      advance(2);
      while (i + 1 < sql.size() && !(sql[i] == '*' && sql[i + 1] == '/')) {
        advance(1);
      }
      if (i + 1 >= sql.size()) {
        return ParseError("unterminated /* comment at line " +
                          std::to_string(tok_line));
      }
      advance(2);
      continue;
    }
    // String literal.
    if (c == '\'') {
      std::string text;
      advance(1);
      bool closed = false;
      while (i < sql.size()) {
        if (sql[i] == '\'') {
          if (i + 1 < sql.size() && sql[i + 1] == '\'') {
            text += '\'';
            advance(2);
            continue;
          }
          advance(1);
          closed = true;
          break;
        }
        text += sql[i];
        advance(1);
      }
      if (!closed) {
        return ParseError("unterminated string literal at line " +
                          std::to_string(tok_line));
      }
      push(TokenType::kString, std::move(text), tok_line, tok_column);
      continue;
    }
    // Quoted identifier.
    if (c == '"') {
      std::string text;
      advance(1);
      bool closed = false;
      while (i < sql.size()) {
        if (sql[i] == '"') {
          advance(1);
          closed = true;
          break;
        }
        text += sql[i];
        advance(1);
      }
      if (!closed) {
        return ParseError("unterminated quoted identifier at line " +
                          std::to_string(tok_line));
      }
      push(TokenType::kIdentifier, std::move(text), tok_line, tok_column);
      continue;
    }
    // Host variable (:name in embedded SQL).
    if (c == ':') {
      advance(1);
      std::string text;
      while (i < sql.size() && IsIdentifierChar(sql[i])) {
        text += sql[i];
        advance(1);
      }
      if (text.empty()) {
        return ParseError("':' without a host variable name at line " +
                          std::to_string(tok_line));
      }
      push(TokenType::kHostVariable, std::move(text), tok_line, tok_column);
      continue;
    }
    // Number.
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::string text;
      bool decimal = false;
      while (i < sql.size() &&
             (std::isdigit(static_cast<unsigned char>(sql[i])) ||
              (!decimal && sql[i] == '.' && i + 1 < sql.size() &&
               std::isdigit(static_cast<unsigned char>(sql[i + 1]))))) {
        if (sql[i] == '.') decimal = true;
        text += sql[i];
        advance(1);
      }
      push(decimal ? TokenType::kDecimal : TokenType::kInteger,
           std::move(text), tok_line, tok_column);
      continue;
    }
    // Identifier or keyword.
    if (IsIdentifierStart(c)) {
      std::string text;
      while (i < sql.size() && IsIdentifierChar(sql[i])) {
        text += sql[i];
        advance(1);
      }
      // Identifiers may contain '-' (the paper uses zip-code, project-name);
      // a trailing '-' is never part of an identifier.
      while (!text.empty() && text.back() == '-') {
        text.pop_back();
        --i;  // give the '-' back (cannot underflow: text consumed >= 1)
        --column;
      }
      if (IsKeyword(text)) {
        push(TokenType::kKeyword, ToUpper(text), tok_line, tok_column);
      } else {
        push(TokenType::kIdentifier, std::move(text), tok_line, tok_column);
      }
      continue;
    }
    // Operators and punctuation.
    switch (c) {
      case ',': push(TokenType::kComma, "", tok_line, tok_column); advance(1); break;
      case '.': push(TokenType::kDot, "", tok_line, tok_column); advance(1); break;
      case '(': push(TokenType::kLeftParen, "", tok_line, tok_column); advance(1); break;
      case ')': push(TokenType::kRightParen, "", tok_line, tok_column); advance(1); break;
      case '*': push(TokenType::kStar, "", tok_line, tok_column); advance(1); break;
      case ';': push(TokenType::kSemicolon, "", tok_line, tok_column); advance(1); break;
      case '=': push(TokenType::kEquals, "", tok_line, tok_column); advance(1); break;
      case '!':
        if (i + 1 < sql.size() && sql[i + 1] == '=') {
          push(TokenType::kNotEquals, "", tok_line, tok_column);
          advance(2);
        } else {
          return ParseError("unexpected '!' at line " +
                            std::to_string(tok_line));
        }
        break;
      case '<':
        if (i + 1 < sql.size() && sql[i + 1] == '>') {
          push(TokenType::kNotEquals, "", tok_line, tok_column);
          advance(2);
        } else if (i + 1 < sql.size() && sql[i + 1] == '=') {
          push(TokenType::kLessEquals, "", tok_line, tok_column);
          advance(2);
        } else {
          push(TokenType::kLess, "", tok_line, tok_column);
          advance(1);
        }
        break;
      case '>':
        if (i + 1 < sql.size() && sql[i + 1] == '=') {
          push(TokenType::kGreaterEquals, "", tok_line, tok_column);
          advance(2);
        } else {
          push(TokenType::kGreater, "", tok_line, tok_column);
          advance(1);
        }
        break;
      default:
        return ParseError(std::string("unexpected character '") + c +
                          "' at line " + std::to_string(tok_line));
    }
  }
  tokens.push_back(Token{TokenType::kEnd, "", line, column});
  return tokens;
}

const Token& TokenCursor::Peek(size_t ahead) const {
  return tokens_[std::min(pos_ + ahead, tokens_.size() - 1)];
}

bool TokenCursor::CheckKeyword(std::string_view keyword, size_t ahead) const {
  const Token& token = Peek(ahead);
  return token.type == TokenType::kKeyword && token.text == keyword;
}

const Token& TokenCursor::Advance() {
  const Token& token = Peek();
  ++pos_;
  return token;
}

bool TokenCursor::Match(TokenType type) {
  if (!Check(type)) return false;
  Advance();
  return true;
}

bool TokenCursor::MatchKeyword(std::string_view keyword) {
  if (!CheckKeyword(keyword)) return false;
  Advance();
  return true;
}

Status TokenCursor::Expect(TokenType type) {
  if (Match(type)) return Status::Ok();
  return ErrorHere(std::string("expected ") + TokenTypeName(type));
}

Status TokenCursor::ExpectKeyword(std::string_view keyword) {
  if (MatchKeyword(keyword)) return Status::Ok();
  return ErrorHere("expected " + std::string(keyword));
}

Result<std::string> TokenCursor::ExpectIdentifier() {
  if (!Check(TokenType::kIdentifier)) return ErrorHere("expected identifier");
  return Advance().text;
}

Status TokenCursor::ErrorHere(std::string_view message) const {
  const Token& token = Peek();
  return ParseError(std::string(message) + " at line " +
                    std::to_string(token.line) + " near " + token.ToString());
}

}  // namespace dbre::sql
