#include <gtest/gtest.h>

#include "sql/ddl.h"
#include "sql/scanner.h"
#include "support/table_rows.h"

namespace dbre::sql {
namespace {

TEST(ScannerTest, FindsExecSqlBlocks) {
  auto statements = ScanProgramText(R"(
int main() {
  EXEC SQL SELECT a FROM R WHERE a = 1;
  printf("done");
  exec sql SELECT b FROM S;
}
)");
  ASSERT_EQ(statements.size(), 2u);
  EXPECT_EQ(statements[0].text, "SELECT a FROM R WHERE a = 1");
  EXPECT_EQ(statements[1].text, "SELECT b FROM S");
  EXPECT_EQ(statements[0].line, 3u);
}

TEST(ScannerTest, EndExecTerminator) {
  auto statements = ScanProgramText(
      "PROCEDURE DIVISION.\n  EXEC SQL SELECT a FROM R END-EXEC\n");
  ASSERT_EQ(statements.size(), 1u);
  EXPECT_EQ(statements[0].text, "SELECT a FROM R");
}

TEST(ScannerTest, FindsStringLiteralQueries) {
  auto statements = ScanProgramText(R"(
const char *q = "SELECT a FROM R WHERE a = 1";
const char *not_sql = "hello world";
)");
  ASSERT_EQ(statements.size(), 1u);
  EXPECT_EQ(statements[0].text, "SELECT a FROM R WHERE a = 1");
}

TEST(ScannerTest, ConcatenatedStringLiterals) {
  auto statements = ScanProgramText(
      "const char *q = \"SELECT a FROM R \"\n"
      "                \"WHERE a = 1\";\n");
  ASSERT_EQ(statements.size(), 1u);
  EXPECT_EQ(statements[0].text, "SELECT a FROM R WHERE a = 1");
}

TEST(ScannerTest, EscapedQuotesInLiterals) {
  auto statements =
      ScanProgramText(R"(const char *q = "SELECT a FROM R WHERE n = \"x\"";)");
  ASSERT_EQ(statements.size(), 1u);
  EXPECT_NE(statements[0].text.find("\"x\""), std::string::npos);
}

TEST(ScannerTest, ExecSqlRequiresWordBoundary) {
  auto statements = ScanProgramText("myEXEC SQLish code;");
  EXPECT_TRUE(statements.empty());
}

TEST(ScannerTest, BuildQueryJoinSetFromSources) {
  std::vector<std::pair<std::string, std::string>> sources = {
      {"app.pc", "void f() { EXEC SQL SELECT x FROM R r, S s "
                 "WHERE r.a = s.b; }"},
      {"report.sql", "SELECT y FROM S s, T t WHERE s.c = t.d;"},
  };
  ExtractionStats stats;
  auto joins = BuildQueryJoinSetFromSources(sources, {}, &stats);
  ASSERT_TRUE(joins.ok()) << joins.status();
  EXPECT_EQ(joins->size(), 2u);
  EXPECT_EQ(stats.joins_extracted, 2u);
}

TEST(ScannerTest, ParseErrorsAreCollectedNotFatal) {
  std::vector<std::pair<std::string, std::string>> sources = {
      {"bad.pc", "void f() { EXEC SQL SELECT FROM nonsense ,,; }"},
      {"good.pc", "void g() { EXEC SQL SELECT x FROM R r, S s "
                  "WHERE r.a = s.b; }"},
  };
  std::vector<Status> errors;
  auto joins = BuildQueryJoinSetFromSources(sources, {}, nullptr, &errors);
  ASSERT_TRUE(joins.ok());
  EXPECT_EQ(joins->size(), 1u);
  EXPECT_FALSE(errors.empty());
}

TEST(ScannerTest, WeightedJoinSetCountsOccurrences) {
  std::vector<std::pair<std::string, std::string>> sources = {
      {"a.pc", "void f() { EXEC SQL SELECT x FROM R r, S s "
               "WHERE r.a = s.b; }\n"
               "void g() { EXEC SQL SELECT y FROM S s, R r "
               "WHERE s.b = r.a; }"},
      {"b.sql", "SELECT x FROM R r, S s WHERE r.a = s.b;\n"
                "SELECT z FROM S s, T t WHERE s.c = t.d;"},
  };
  auto weighted = BuildWeightedJoinSetFromSources(sources);
  ASSERT_TRUE(weighted.ok()) << weighted.status();
  ASSERT_EQ(weighted->size(), 2u);
  // R-S referenced three times, S-T once; descending order.
  EXPECT_EQ((*weighted)[0].join.ToString(), "R[a] |><| S[b]");
  EXPECT_EQ((*weighted)[0].occurrences, 3u);
  EXPECT_EQ((*weighted)[1].occurrences, 1u);
}

TEST(DdlTest, CreateTableWithConstraints) {
  Database database;
  auto stats = ExecuteDdlScript(R"(
CREATE TABLE Person (
  id INT NOT NULL UNIQUE,
  name VARCHAR(40),
  zip CHAR(5) NOT NULL
);
CREATE TABLE Job (
  code INT,
  title TEXT,
  PRIMARY KEY (code),
  UNIQUE (title)
);
)",
                                &database);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->tables_created, 2u);

  const Table& person = **database.GetTable("Person");
  EXPECT_TRUE(person.schema().IsKey(AttributeSet{"id"}));
  EXPECT_EQ(person.schema().NotNullAttributes(),
            (AttributeSet{"id", "zip"}));
  EXPECT_EQ(*person.schema().AttributeType("name"), DataType::kString);

  const Table& job = **database.GetTable("Job");
  EXPECT_EQ(*job.schema().PrimaryKey(), AttributeSet{"code"});
  EXPECT_TRUE(job.schema().IsKey(AttributeSet{"title"}));
}

TEST(DdlTest, TypeMapping) {
  Database database;
  ASSERT_TRUE(ExecuteDdlScript(
                  "CREATE TABLE T (a INTEGER, b NUMBER(8), c NUMBER(8,2), "
                  "d FLOAT, e BOOLEAN, f DATE, g VARCHAR2(10));",
                  &database)
                  .ok());
  const RelationSchema& schema = (**database.GetTable("T")).schema();
  EXPECT_EQ(*schema.AttributeType("a"), DataType::kInt64);
  EXPECT_EQ(*schema.AttributeType("b"), DataType::kInt64);
  EXPECT_EQ(*schema.AttributeType("c"), DataType::kDouble);
  EXPECT_EQ(*schema.AttributeType("d"), DataType::kDouble);
  EXPECT_EQ(*schema.AttributeType("e"), DataType::kBool);
  EXPECT_EQ(*schema.AttributeType("f"), DataType::kString);
  EXPECT_EQ(*schema.AttributeType("g"), DataType::kString);
}

TEST(DdlTest, InsertRows) {
  Database database;
  auto stats = ExecuteDdlScript(R"(
CREATE TABLE T (id INT PRIMARY KEY, name VARCHAR(20), score FLOAT);
INSERT INTO T VALUES (1, 'alice', 3.5), (2, 'bob', NULL);
INSERT INTO T (name, id) VALUES ('carol', 3);
)",
                                &database);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->rows_inserted, 3u);
  const Table& t = **database.GetTable("T");
  EXPECT_EQ(Rows(t)[0][1], Value::Text("alice"));
  EXPECT_TRUE(Rows(t)[1][2].is_null());
  EXPECT_EQ(Rows(t)[2][0], Value::Int(3));
  EXPECT_TRUE(Rows(t)[2][2].is_null());  // omitted column defaults to NULL
}

TEST(DdlTest, InsertValidation) {
  Database database;
  ASSERT_TRUE(
      ExecuteDdlScript("CREATE TABLE T (id INT PRIMARY KEY);", &database)
          .ok());
  // NULL into key column rejected by the table layer.
  EXPECT_FALSE(
      ExecuteDdlScript("INSERT INTO T VALUES (NULL);", &database).ok());
  // Unknown table.
  EXPECT_FALSE(
      ExecuteDdlScript("INSERT INTO Nope VALUES (1);", &database).ok());
  // Arity mismatch.
  EXPECT_FALSE(
      ExecuteDdlScript("INSERT INTO T VALUES (1, 2);", &database).ok());
}

TEST(DdlTest, RejectsMalformedDdl) {
  Database database;
  EXPECT_FALSE(ExecuteDdlScript("CREATE TABLE (x INT);", &database).ok());
  EXPECT_FALSE(ExecuteDdlScript("CREATE TABLE T (x BLOB);", &database).ok());
  EXPECT_FALSE(ExecuteDdlScript("DROP TABLE T;", &database).ok());
  EXPECT_FALSE(ExecuteDdlScript(
                   "CREATE TABLE T (a INT, PRIMARY KEY (a), PRIMARY KEY (a));",
                   &database)
                   .ok());
}

TEST(DdlTest, PaperSchemaViaDdl) {
  Database database;
  auto stats = ExecuteDdlScript(R"(
CREATE TABLE Person (
  id INT, name VARCHAR(30), street VARCHAR(30), number INT,
  zip-code CHAR(8), state VARCHAR(20),
  UNIQUE (id)
);
CREATE TABLE HEmployee (no INT, date DATE, salary NUMBER(8,2),
                        UNIQUE (no, date));
)",
                                &database);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_TRUE((**database.GetTable("Person"))
                  .schema()
                  .HasAttribute("zip-code"));
  EXPECT_TRUE((**database.GetTable("HEmployee"))
                  .schema()
                  .IsKey(AttributeSet{"date", "no"}));
}

}  // namespace
}  // namespace dbre::sql
