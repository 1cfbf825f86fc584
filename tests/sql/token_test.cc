#include "sql/token.h"

#include <gtest/gtest.h>

namespace dbre::sql {
namespace {

std::vector<Token> MustTokenize(std::string_view text) {
  auto tokens = Tokenize(text);
  EXPECT_TRUE(tokens.ok()) << tokens.status();
  return std::move(tokens).value();
}

TEST(TokenizeTest, EmptyInputGivesEnd) {
  auto tokens = MustTokenize("");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].type, TokenType::kEnd);
}

TEST(TokenizeTest, KeywordsAreCaseInsensitiveAndUppercased) {
  auto tokens = MustTokenize("select From WHERE");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0].type, TokenType::kKeyword);
  EXPECT_EQ(tokens[0].text, "SELECT");
  EXPECT_EQ(tokens[1].text, "FROM");
  EXPECT_EQ(tokens[2].text, "WHERE");
}

TEST(TokenizeTest, IdentifiersKeepCase) {
  auto tokens = MustTokenize("HEmployee no");
  EXPECT_EQ(tokens[0].type, TokenType::kIdentifier);
  EXPECT_EQ(tokens[0].text, "HEmployee");
  EXPECT_EQ(tokens[1].text, "no");
}

TEST(TokenizeTest, HyphenatedIdentifiers) {
  // The paper's schema uses zip-code and project-name.
  auto tokens = MustTokenize("zip-code project-name");
  EXPECT_EQ(tokens[0].text, "zip-code");
  EXPECT_EQ(tokens[1].text, "project-name");
}

TEST(TokenizeTest, QuotedIdentifiers) {
  auto tokens = MustTokenize("\"Select\"");
  EXPECT_EQ(tokens[0].type, TokenType::kIdentifier);
  EXPECT_EQ(tokens[0].text, "Select");
}

TEST(TokenizeTest, NumbersIntAndDecimal) {
  auto tokens = MustTokenize("42 3.25");
  EXPECT_EQ(tokens[0].type, TokenType::kInteger);
  EXPECT_EQ(tokens[0].text, "42");
  EXPECT_EQ(tokens[1].type, TokenType::kDecimal);
  EXPECT_EQ(tokens[1].text, "3.25");
}

TEST(TokenizeTest, StringLiteralsWithEscapes) {
  auto tokens = MustTokenize("'it''s'");
  EXPECT_EQ(tokens[0].type, TokenType::kString);
  EXPECT_EQ(tokens[0].text, "it's");
  EXPECT_FALSE(Tokenize("'open").ok());
}

TEST(TokenizeTest, HostVariables) {
  auto tokens = MustTokenize(":emp_no");
  EXPECT_EQ(tokens[0].type, TokenType::kHostVariable);
  EXPECT_EQ(tokens[0].text, "emp_no");
  EXPECT_FALSE(Tokenize(": ").ok());
}

TEST(TokenizeTest, OperatorsAndPunctuation) {
  auto tokens = MustTokenize("a = b <> c <= d >= e < f > g, (h.i);*");
  std::vector<TokenType> types;
  for (const Token& token : tokens) types.push_back(token.type);
  EXPECT_EQ(types, (std::vector<TokenType>{
                       TokenType::kIdentifier, TokenType::kEquals,
                       TokenType::kIdentifier, TokenType::kNotEquals,
                       TokenType::kIdentifier, TokenType::kLessEquals,
                       TokenType::kIdentifier, TokenType::kGreaterEquals,
                       TokenType::kIdentifier, TokenType::kLess,
                       TokenType::kIdentifier, TokenType::kGreater,
                       TokenType::kIdentifier, TokenType::kComma,
                       TokenType::kLeftParen, TokenType::kIdentifier,
                       TokenType::kDot, TokenType::kIdentifier,
                       TokenType::kRightParen, TokenType::kSemicolon,
                       TokenType::kStar, TokenType::kEnd}));
}

TEST(TokenizeTest, BangEqualsIsNotEquals) {
  auto tokens = MustTokenize("a != b");
  EXPECT_EQ(tokens[1].type, TokenType::kNotEquals);
  EXPECT_FALSE(Tokenize("a ! b").ok());
}

TEST(TokenizeTest, LineCommentsSkipped) {
  auto tokens = MustTokenize("a -- comment with select\nb");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].text, "a");
  EXPECT_EQ(tokens[1].text, "b");
}

TEST(TokenizeTest, BlockCommentsSkipped) {
  auto tokens = MustTokenize("a /* multi\nline */ b");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[1].text, "b");
  EXPECT_FALSE(Tokenize("/* open").ok());
}

TEST(TokenizeTest, TracksLineNumbers) {
  auto tokens = MustTokenize("a\nb\n  c");
  EXPECT_EQ(tokens[0].line, 1u);
  EXPECT_EQ(tokens[1].line, 2u);
  EXPECT_EQ(tokens[2].line, 3u);
  EXPECT_EQ(tokens[2].column, 3u);
}

TEST(TokenizeTest, RejectsUnknownCharacters) {
  EXPECT_FALSE(Tokenize("a ? b").ok());
  EXPECT_FALSE(Tokenize("a @ b").ok());
}

// The cursor every parser reads through: it stays on kEnd past the end,
// and its errors name the current token's line and the token.
TEST(TokenizeTest, CursorStaysOnEndAndNamesTheTokenInErrors) {
  TokenCursor in(MustTokenize("SELECT a\nFROM"));
  EXPECT_TRUE(in.CheckKeyword("FROM", 2));
  EXPECT_TRUE(in.MatchKeyword("SELECT"));
  EXPECT_FALSE(in.Match(TokenType::kComma));
  Result<std::string> name = in.ExpectIdentifier();
  ASSERT_TRUE(name.ok()) << name.status();
  EXPECT_EQ(*name, "a");
  Status missing = in.ExpectKeyword("WHERE");
  EXPECT_EQ(missing.code(), StatusCode::kParseError);
  EXPECT_EQ(missing.message(), "expected WHERE at line 2 near keyword(FROM)");
  EXPECT_EQ(in.Advance().text, "FROM");
  in.Advance();
  EXPECT_TRUE(in.Check(TokenType::kEnd));
  EXPECT_EQ(in.Peek(3).type, TokenType::kEnd);
  EXPECT_EQ(in.Expect(TokenType::kRightParen).message(),
            "expected ) at line 2 near <end>");
}

TEST(IsKeywordTest, RecognizesSubset) {
  EXPECT_TRUE(IsKeyword("select"));
  EXPECT_TRUE(IsKeyword("INTERSECT"));
  EXPECT_FALSE(IsKeyword("HEmployee"));
}

}  // namespace
}  // namespace dbre::sql
