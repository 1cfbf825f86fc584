// Robustness sweeps: the front end must never crash and must return
// Status (not garbage) on arbitrary inputs — legacy program corpora are
// full of text that only resembles SQL.
#include <initializer_list>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "relational/database.h"
#include "sql/ddl.h"
#include "sql/dml.h"
#include "sql/extractor.h"
#include "sql/parser.h"
#include "sql/scanner.h"
#include "sql/token.h"
#include "support/table_rows.h"

namespace dbre::sql {
namespace {

// Random strings over a hostile alphabet (quotes, operators, newlines).
class RandomTextTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomTextTest, TokenizerNeverCrashes) {
  std::mt19937_64 rng(GetParam());
  const std::string alphabet =
      "abcXYZ019 \t\n'\",.()=<>*;:-_/%SELECTFROMWHERE";
  for (int trial = 0; trial < 200; ++trial) {
    std::string text;
    size_t length = rng() % 120;
    for (size_t i = 0; i < length; ++i) {
      text += alphabet[rng() % alphabet.size()];
    }
    auto tokens = Tokenize(text);  // must not crash; errors are fine
    if (tokens.ok()) {
      EXPECT_FALSE(tokens->empty());
      EXPECT_EQ(tokens->back().type, TokenType::kEnd);
    }
  }
}

TEST_P(RandomTextTest, ParserNeverCrashes) {
  std::mt19937_64 rng(GetParam());
  // Random token soup from plausible SQL words.
  const char* words[] = {"SELECT", "FROM",  "WHERE", "AND", "OR",   "IN",
                         "EXISTS", "(",     ")",     ",",   "=",    "a",
                         "b",      "R",     "S",     "'x'", "42",   ".",
                         "*",      "NOT",   "JOIN",  "ON",  "NULL", "IS",
                         "INTERSECT", ";",  ":h",    "<",   ">",    "LIKE"};
    for (int trial = 0; trial < 300; ++trial) {
    std::string text;
    size_t length = rng() % 24;
    for (size_t i = 0; i < length; ++i) {
      text += words[rng() % (sizeof(words) / sizeof(words[0]))];
      text += ' ';
    }
    auto statement = ParseSelect(text);  // ok or error, never UB
    if (statement.ok()) {
      // Whatever parsed must be re-renderable and re-parseable.
      auto round = ParseSelect((*statement)->ToString());
      EXPECT_TRUE(round.ok()) << text << " -> " << (*statement)->ToString();
    }
    std::vector<Status> errors;
    auto script = ParseScript(text, &errors);
    EXPECT_TRUE(script.ok() || !script.status().message().empty());
  }
}

TEST_P(RandomTextTest, ScannerNeverCrashes) {
  std::mt19937_64 rng(GetParam());
  const std::string alphabet = "abc \"\\\n;EXEC SQL select from end-";
  for (int trial = 0; trial < 200; ++trial) {
    std::string text;
    size_t length = rng() % 200;
    for (size_t i = 0; i < length; ++i) {
      text += alphabet[rng() % alphabet.size()];
    }
    auto statements = ScanProgramText(text);
    for (const EmbeddedStatement& statement : statements) {
      EXPECT_GE(statement.line, 1u);
    }
    // Full front-end over the same garbage.
    std::vector<Status> errors;
    auto joins = BuildQueryJoinSetFromSources({{"junk.pc", text}}, {},
                                              nullptr, &errors);
    EXPECT_TRUE(joins.ok());
  }
}

TEST_P(RandomTextTest, DdlNeverCrashes) {
  std::mt19937_64 rng(GetParam());
  const char* words[] = {"CREATE", "TABLE", "T",      "(",       ")",
                         "INT",    "TEXT",  "UNIQUE", "PRIMARY", "KEY",
                         "NOT",    "NULL",  ",",      ";",       "INSERT",
                         "INTO",   "VALUES", "1",     "'x'",     "a"};
  for (int trial = 0; trial < 300; ++trial) {
    std::string text;
    size_t length = rng() % 20;
    for (size_t i = 0; i < length; ++i) {
      text += words[rng() % (sizeof(words) / sizeof(words[0]))];
      text += ' ';
    }
    Database db;
    auto result = ExecuteDdlScript(text, &db);  // ok or clean error
    (void)result;
  }
}

// Scripts of one to four statements, each drawn from a small INSERT /
// UPDATE / DELETE grammar whose every slot may hold a wrong word, or plain
// word soup: scripts often run valid for a statement or two and then fail.
// DML validates a whole script before it applies any of it, so a script
// that fails must leave every row as it was.
TEST_P(RandomTextTest, DmlNeverCrashes) {
  std::mt19937_64 rng(GetParam());
  auto pick = [&rng](std::initializer_list<const char*> words) {
    return std::string(words.begin()[rng() % words.size()]);
  };
  auto table = [&] { return pick({"T", "T", "U", "U", "ghost"}); };
  auto column = [&] { return pick({"a", "b", "b", "ghost"}); };
  auto literal = [&] {
    return pick({"1", "2", "2.5", "'x'", "NULL", "TRUE", "a", ")"});
  };
  auto where = [&] {
    return rng() % 3 == 0 ? std::string()
                          : " WHERE " + column() + " " +
                                pick({"=", "<>", "<", ">=", "IS"}) + " " +
                                pick({"1", "2.5", "'x'", "NULL", "NOT NULL"});
  };
  Database base;
  ASSERT_TRUE(ExecuteDdlScript("CREATE TABLE T (a INT NOT NULL, b TEXT);"
                               "CREATE TABLE U (a INT, b DOUBLE);"
                               "INSERT INTO T VALUES (1, 'x'), (2, NULL);"
                               "INSERT INTO U VALUES (1, 2.5), (NULL, NULL);",
                               &base)
                  .ok());
  const std::vector<ValueVector> rows_t = Rows(**base.GetTable("T"));
  const std::vector<ValueVector> rows_u = Rows(**base.GetTable("U"));
  size_t failed = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::string text;
    for (size_t n = 1 + rng() % 4; n > 0; --n) {
      switch (rng() % 5) {
        case 0:
          text += "INSERT INTO " + table() + " VALUES (" + literal() + ", " +
                  literal() + ")";
          if (rng() % 2 == 0) text += ", (" + literal() + ", " + literal() + ")";
          break;
        case 1:
          text += "INSERT INTO " + table() + " (" + column() + ") VALUES (" +
                  literal() + ")";
          break;
        case 2:
          text += "UPDATE " + table() + " SET " + column() + " = " +
                  literal() + where();
          break;
        case 3:
          text += "DELETE FROM " + table() + where();
          break;
        default:
          for (size_t k = rng() % 6; k > 0; --k) {
            text += pick({"INSERT", "INTO", "VALUES", "UPDATE", "SET",
                          "DELETE", "FROM", "WHERE", "AND", "T", "a", "(",
                          ")", ",", "=", "<", "1", "'x'", "NULL"}) + " ";
          }
      }
      text += "; ";
    }
    Database database = base.Clone();
    auto result = ExecuteDmlScript(text, &database);  // ok or clean error
    if (result.ok()) continue;
    ++failed;
    EXPECT_FALSE(result.status().message().empty()) << text;
    EXPECT_EQ(Rows(**database.GetTable("T")), rows_t) << text;
    EXPECT_EQ(Rows(**database.GetTable("U")), rows_u) << text;
  }
  EXPECT_GT(failed, 0u);
  EXPECT_LT(failed, 300u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTextTest,
                         ::testing::Values(7, 77, 777));

TEST(RobustnessTest, DeeplyNestedSubqueries) {
  // 40 levels of IN-nesting must parse (or fail) without stack issues.
  std::string query = "SELECT a FROM R WHERE a IN (";
  for (int i = 0; i < 39; ++i) {
    query += "SELECT a FROM R WHERE a IN (";
  }
  query += "SELECT b FROM S";
  for (int i = 0; i < 40; ++i) query += ")";
  auto statement = ParseSelect(query);
  ASSERT_TRUE(statement.ok()) << statement.status();
  ExtractionStats stats;
  auto joins = ExtractEquiJoins(**statement, {}, &stats);
  EXPECT_EQ(stats.statements, 41u);
}

TEST(RobustnessTest, VeryLongConjunction) {
  std::string query = "SELECT x FROM R r, S s WHERE r.a0 = s.b0";
  for (int i = 1; i < 300; ++i) {
    query += " AND r.a" + std::to_string(i) + " = s.b" + std::to_string(i);
  }
  auto statement = ParseSelect(query);
  ASSERT_TRUE(statement.ok());
  auto joins = ExtractEquiJoins(**statement);
  ASSERT_EQ(joins.size(), 1u);
  EXPECT_EQ(joins[0].arity(), 300u);
}

TEST(RobustnessTest, HugeIdentifiers) {
  std::string name(5000, 'x');
  auto tokens = Tokenize(name);
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text.size(), 5000u);
}

}  // namespace
}  // namespace dbre::sql
