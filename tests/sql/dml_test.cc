// The DML front end (sql/dml.h): grammar, SQL NULL comparison semantics,
// two-phase parse-validate-then-apply atomicity, the per-table mutation
// stats the incremental driver keys on, and the INSERT error texts it
// shares with DDL (sql/ddl.h).
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/oracle.h"
#include "core/pipeline.h"
#include "core/report_json.h"
#include "relational/database.h"
#include "sql/ddl.h"
#include "sql/dml.h"
#include "support/cold_encode.h"
#include "support/table_rows.h"

namespace dbre::sql {
namespace {

Database MakeDatabase() {
  Database database;
  RelationSchema emp("emp");
  EXPECT_TRUE(emp.AddAttribute("id", DataType::kInt64, /*not_null=*/true).ok());
  EXPECT_TRUE(emp.AddAttribute("name", DataType::kString).ok());
  EXPECT_TRUE(emp.AddAttribute("dept", DataType::kInt64).ok());
  Table emp_table(emp);
  EXPECT_TRUE(
      emp_table.Insert({Value::Int(1),
                        Value::Text("ann"), Value::Int(10)}).ok());
  EXPECT_TRUE(
      emp_table.Insert({Value::Int(2),
                        Value::Text("bob"), Value::Int(20)}).ok());
  EXPECT_TRUE(
      emp_table.Insert({Value::Int(3), Value::Null(), Value::Int(10)}).ok());
  EXPECT_TRUE(database.AddTable(std::move(emp_table)).ok());

  RelationSchema dept("dept");
  EXPECT_TRUE(dept.AddAttribute("id", DataType::kInt64).ok());
  EXPECT_TRUE(dept.AddAttribute("title", DataType::kString).ok());
  Table dept_table(dept);
  EXPECT_TRUE(dept_table.Insert({Value::Int(10), Value::Text("eng")}).ok());
  EXPECT_TRUE(database.AddTable(std::move(dept_table)).ok());
  return database;
}

const Table& Get(const Database& database, const std::string& name) {
  auto table = database.GetTable(name);
  EXPECT_TRUE(table.ok());
  return **table;
}

TEST(DmlTest, InsertFullArityAndColumnList) {
  Database database = MakeDatabase();
  auto stats = ExecuteDmlScript(
      "INSERT INTO emp VALUES (4, 'carol', 20), (5, 'dave', NULL);"
      "INSERT INTO emp (id, name) VALUES (6, 'erin');",
      &database);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->statements, 2u);
  EXPECT_EQ(stats->rows_inserted, 3u);

  const Table& emp = Get(database, "emp");
  ASSERT_EQ(Rows(emp).size(), 6u);
  EXPECT_EQ(Rows(emp)[3][1].as_text(), "carol");
  EXPECT_TRUE(Rows(emp)[4][2].is_null());
  // Omitted columns default to NULL.
  EXPECT_TRUE(Rows(emp)[5][2].is_null());
}

TEST(DmlTest, UpdateWithConjunction) {
  Database database = MakeDatabase();
  auto stats = ExecuteDmlScript(
      "UPDATE emp SET dept = 30, name = 'moved' "
      "WHERE dept = 10 AND id >= 1;",
      &database);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->rows_updated, 2u);
  const Table& emp = Get(database, "emp");
  EXPECT_EQ(Rows(emp)[0][2].as_int(), 30);
  EXPECT_EQ(Rows(emp)[0][1].as_text(), "moved");
  EXPECT_EQ(Rows(emp)[1][2].as_int(), 20);  // dept 20 untouched
}

TEST(DmlTest, DeleteWithoutWhereClearsTable) {
  Database database = MakeDatabase();
  auto stats = ExecuteDmlScript("DELETE FROM dept;", &database);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->rows_deleted, 1u);
  EXPECT_TRUE(Rows(Get(database, "dept")).empty());
  ASSERT_EQ(stats->tables.size(), 1u);
  EXPECT_TRUE(stats->tables[0].structural);
}

TEST(DmlTest, NullComparisonSemantics) {
  Database database = MakeDatabase();
  // Row 3 has NULL name: `name = ...` and `name != ...` never match it.
  auto eq = ExecuteDmlScript("DELETE FROM emp WHERE name = 'ann';", &database);
  ASSERT_TRUE(eq.ok());
  EXPECT_EQ(eq->rows_deleted, 1u);

  auto ne = ExecuteDmlScript("DELETE FROM emp WHERE name != 'zzz';",
                             &database);
  ASSERT_TRUE(ne.ok());
  EXPECT_EQ(ne->rows_deleted, 1u);  // only bob; NULL name never matches

  auto is_null =
      ExecuteDmlScript("DELETE FROM emp WHERE name IS NULL;", &database);
  ASSERT_TRUE(is_null.ok());
  EXPECT_EQ(is_null->rows_deleted, 1u);
  EXPECT_TRUE(Rows(Get(database, "emp")).empty());
}

TEST(DmlTest, IsNotNullAndOrderingOperators) {
  Database database = MakeDatabase();
  auto stats = ExecuteDmlScript(
      "UPDATE emp SET dept = 99 WHERE name IS NOT NULL AND id < 2;"
      "UPDATE emp SET dept = 98 WHERE id > 2 AND id <= 3;",
      &database);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->rows_updated, 2u);
  const Table& emp = Get(database, "emp");
  EXPECT_EQ(Rows(emp)[0][2].as_int(), 99);
  EXPECT_EQ(Rows(emp)[2][2].as_int(), 98);
}

// A comparison with a NaN cell is never true, whatever the operator, so
// UPDATE and DELETE never select the NaN row through one — nor through a
// NaN literal. IS NOT NULL does select it: NaN is a value, not NULL.
TEST(DmlTest, ComparisonsNeverSelectANaNCell) {
  auto make = [] {
    Database database;
    RelationSchema t("t");
    EXPECT_TRUE(t.AddAttribute("id", DataType::kInt64, /*not_null=*/true).ok());
    EXPECT_TRUE(t.AddAttribute("d", DataType::kDouble).ok());
    EXPECT_TRUE(t.AddAttribute("tag", DataType::kString).ok());
    Table table(t);
    InsertRows(&table,
               {{Value::Int(1), Value::Real(1.0), Value::Text("a")},
                {Value::Int(2), Value::Real(std::nan("")), Value::Text("a")},
                {Value::Int(3), Value::Real(2.0), Value::Text("a")}});
    EXPECT_TRUE(database.AddTable(std::move(table)).ok());
    return database;
  };
  auto has_nan_row = [](const Database& database) {
    for (const ValueVector& row : Rows(Get(database, "t"))) {
      if (row[0].as_int() == 2) return true;
    }
    return false;
  };
  struct Case {
    const char* op;
    size_t matches;  // of 1.0 and 2.0 against 1.5
  };
  const Case cases[] = {{"=", 0},  {"<>", 2}, {"<", 1},
                        {"<=", 1}, {">", 1},  {">=", 1}};
  for (const Case& c : cases) {
    for (const std::string literal : {"1.5", "'nan'"}) {
      const size_t expected = literal == "1.5" ? c.matches : 0;
      const std::string where = " WHERE d " + std::string(c.op) + " " +
                                literal + ";";
      Database database = make();
      auto updated =
          ExecuteDmlScript("UPDATE t SET tag = 'x'" + where, &database);
      ASSERT_TRUE(updated.ok()) << where << ": " << updated.status();
      EXPECT_EQ(updated->rows_updated, expected) << where;
      EXPECT_EQ(Rows(Get(database, "t"))[1][2].as_text(), "a") << where;
      auto deleted = ExecuteDmlScript("DELETE FROM t" + where, &database);
      ASSERT_TRUE(deleted.ok()) << where << ": " << deleted.status();
      EXPECT_EQ(deleted->rows_deleted, expected) << where;
      EXPECT_TRUE(has_nan_row(database)) << where;
    }
  }
  Database database = make();
  auto updated = ExecuteDmlScript(
      "UPDATE t SET tag = 'x' WHERE d IS NOT NULL;", &database);
  ASSERT_TRUE(updated.ok()) << updated.status();
  EXPECT_EQ(updated->rows_updated, 3u);
  EXPECT_EQ(Rows(Get(database, "t"))[1][2].as_text(), "x");
  auto deleted =
      ExecuteDmlScript("DELETE FROM t WHERE d IS NOT NULL;", &database);
  ASSERT_TRUE(deleted.ok()) << deleted.status();
  EXPECT_EQ(deleted->rows_deleted, 3u);
  EXPECT_FALSE(has_nan_row(database));
}

TEST(DmlTest, ScriptIsAtomicAcrossStatements) {
  Database database = MakeDatabase();
  // Second statement references an unknown column: the whole script must
  // fail at parse and the first statement must NOT have applied.
  auto stats = ExecuteDmlScript(
      "DELETE FROM emp WHERE id = 1;"
      "UPDATE emp SET salary = 5 WHERE id = 2;",
      &database);
  EXPECT_FALSE(stats.ok());
  EXPECT_EQ(Rows(Get(database, "emp")).size(), 3u);
}

TEST(DmlTest, ValidationErrors) {
  Database database = MakeDatabase();
  struct Case {
    const char* sql;
    const char* why;
  };
  const Case cases[] = {
      {"INSERT INTO ghost VALUES (1);", "unknown table"},
      {"INSERT INTO emp VALUES (1, 'x');", "too few values"},
      {"INSERT INTO emp VALUES (1, 'x', 2, 3);", "too many values"},
      {"INSERT INTO emp (id, ghost) VALUES (1, 'x');", "unknown column"},
      {"INSERT INTO emp VALUES (NULL, 'x', 1);", "NULL into not-null id"},
      {"INSERT INTO emp VALUES ('text', 'x', 1);", "type mismatch"},
      {"UPDATE emp SET id = NULL;", "NULL into not-null id"},
      {"UPDATE emp SET name = 'a', name = 'b';", "duplicate SET column"},
      {"DELETE FROM emp WHERE ghost = 1;", "unknown WHERE column"},
      {"DELETE FROM emp WHERE id == 1;", "bad operator"},
      {"SELECT * FROM emp;", "not a DML statement"},
  };
  for (const Case& c : cases) {
    auto stats = ExecuteDmlScript(c.sql, &database);
    EXPECT_FALSE(stats.ok()) << c.why << ": " << c.sql;
  }
  // Nothing applied by any of them.
  EXPECT_EQ(Rows(Get(database, "emp")).size(), 3u);
}

// DDL and DML read INSERT through one reader, and each front end keeps its
// own status code and message for every malformed INSERT. The one split is
// NULL into a not-null attribute: DDL hands the row to the table layer,
// while DML rejects it as a parse error at the token after the row.
TEST(DmlTest, InsertErrorTextsOfBothFrontEnds) {
  struct Case {
    const char* sql;
    StatusCode ddl_code;
    const char* ddl_message;
    StatusCode dml_code;
    const char* dml_message;
  };
  const Case cases[] = {
      // Unknown table.
      {"INSERT INTO ghost VALUES (1);", StatusCode::kNotFound,
       "no relation ghost", StatusCode::kNotFound, "no relation ghost"},
      // Unknown column in the column list.
      {"INSERT INTO emp (id, ghost) VALUES (1, 'x');", StatusCode::kNotFound,
       "no attribute emp.ghost", StatusCode::kNotFound,
       "no attribute emp.ghost"},
      // Too many values, and too few.
      {"INSERT INTO emp VALUES (1, 'x', 2, 3);", StatusCode::kParseError,
       "too many values in INSERT row at line 1 near integer(3)",
       StatusCode::kParseError,
       "too many values in INSERT row at line 1 near integer(3)"},
      {"INSERT INTO emp VALUES (1, 'x');", StatusCode::kParseError,
       "too few values in INSERT row at line 1 near )",
       StatusCode::kParseError,
       "too few values in INSERT row at line 1 near )"},
      // A string literal for an int column.
      {"INSERT INTO emp VALUES ('text', 'x', 1);", StatusCode::kParseError,
       "not an int64: 'text'", StatusCode::kParseError,
       "not an int64: 'text'"},
      // NULL into the not-null id.
      {"INSERT INTO emp VALUES (NULL, 'x', 1);", StatusCode::kInvalidArgument,
       "NULL in not-null attribute emp.id", StatusCode::kParseError,
       "NULL in not-null attribute emp.id at line 1 near ;"},
      // No VALUES.
      {"INSERT INTO emp (id, name, dept) (1, 'x', 2);",
       StatusCode::kParseError, "expected VALUES at line 1 near (",
       StatusCode::kParseError, "expected VALUES at line 1 near ("},
  };
  for (const Case& c : cases) {
    Database ddl_database = MakeDatabase();
    Status ddl = ExecuteDdlScript(c.sql, &ddl_database).status();
    EXPECT_EQ(ddl.code(), c.ddl_code) << c.sql << ": " << ddl;
    EXPECT_EQ(ddl.message(), c.ddl_message) << c.sql;
    EXPECT_EQ(Rows(Get(ddl_database, "emp")).size(), 3u) << c.sql;

    Database dml_database = MakeDatabase();
    Status dml = ExecuteDmlScript(c.sql, &dml_database).status();
    EXPECT_EQ(dml.code(), c.dml_code) << c.sql << ": " << dml;
    EXPECT_EQ(dml.message(), c.dml_message) << c.sql;
    EXPECT_EQ(Rows(Get(dml_database, "emp")).size(), 3u) << c.sql;
  }
}

TEST(DmlTest, IncomparableTypesNeverMatch) {
  Database database = MakeDatabase();
  // id is int64; comparing against a string literal parses only if the
  // literal coerces — a plain text literal against an int column is a
  // parse-time type error, not a silent non-match.
  auto stats =
      ExecuteDmlScript("DELETE FROM emp WHERE id = 'one';", &database);
  EXPECT_FALSE(stats.ok());
  EXPECT_EQ(Rows(Get(database, "emp")).size(), 3u);
}

TEST(DmlTest, StatsTrackPerTableEffects) {
  Database database = MakeDatabase();
  auto stats = ExecuteDmlScript(
      "INSERT INTO emp VALUES (7, 'gail', 10);"
      "UPDATE emp SET name = 'x' WHERE id = 7;"
      "UPDATE emp SET dept = 11 WHERE id = 7;"
      "DELETE FROM dept WHERE id = 10;",
      &database);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(stats->tables.size(), 2u);  // first-touch order
  const TableMutation& emp = stats->tables[0];
  EXPECT_EQ(emp.table, "emp");
  EXPECT_EQ(emp.inserted, 1u);
  EXPECT_EQ(emp.updated, 2u);
  EXPECT_FALSE(emp.structural);
  // Updated schema columns, sorted unique: name (1) and dept (2).
  EXPECT_EQ(emp.updated_columns, (std::vector<size_t>{1, 2}));
  const TableMutation& dept = stats->tables[1];
  EXPECT_EQ(dept.table, "dept");
  EXPECT_EQ(dept.deleted, 1u);
  EXPECT_TRUE(dept.structural);
}

TEST(DmlTest, ZeroMatchMutationLeavesCacheUntouched) {
  Database database = MakeDatabase();
  auto table = database.GetMutableTable("emp");
  ASSERT_TRUE(table.ok());
  auto cache = (*table)->query_cache();
  ASSERT_TRUE(cache.ok());

  auto stats = ExecuteDmlScript(
      "UPDATE emp SET name = 'never' WHERE id = 999;"
      "DELETE FROM emp WHERE id = 999;",
      &database);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->rows_updated, 0u);
  EXPECT_EQ(stats->rows_deleted, 0u);

  auto after = (*table)->query_cache();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(cache->get(), after->get());  // no invalidation
}

// Mutation on codes through the DML front end: each step keeps the codes
// and dictionaries a cold encode of the decoded rows, and the report over
// the mutated catalog equals one over a cold reload of the same rows.
std::string Report(const Database& database,
                   const std::vector<EquiJoin>& joins = {
                       EquiJoin::Single("emp", "dept", "dept", "id")}) {
  DefaultOracle oracle;
  auto report = RunPipeline(database, joins, &oracle);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (!report.ok()) return "";
  JsonOptions options;
  options.include_timings = false;
  return ReportToJson(*report, options);
}

Database ColdReload(const Database& database) {
  Database cold;
  for (const std::string& name : database.RelationNames()) {
    const Table& table = Get(database, name);
    Table fresh(table.schema());
    InsertRows(&fresh, Rows(table));
    EXPECT_TRUE(cold.AddTable(std::move(fresh)).ok());
  }
  return cold;
}

TEST(DmlTest, MutationsKeepCodesCanonicalAndReportsCold) {
  Database database = MakeDatabase();
  ASSERT_FALSE(Report(database).empty());  // warm every cache first
  for (const char* script : {
           // "ann" loses its last occurrence: the dictionary shrinks.
           "UPDATE emp SET name = 'bob' WHERE id = 1;",
           // 20 first appeared in row 1; now it appears in row 0.
           "UPDATE emp SET dept = 20 WHERE id = 1;",
           // The first row goes.
           "DELETE FROM emp WHERE id = 1;",
           // A value deleted earlier comes back.
           "INSERT INTO emp VALUES (4, 'ann', 10);",
       }) {
    auto stats = ExecuteDmlScript(script, &database);
    ASSERT_TRUE(stats.ok()) << script << ": " << stats.status().ToString();
    ExpectColdEncoding(Get(database, "emp"));
    EXPECT_EQ(Report(database), Report(ColdReload(database))) << script;
  }
}

TEST(DmlTest, NaNUpdateOfSeveralRowsKeepsEveryNaNDistinct) {
  Database database;
  RelationSchema r("r");
  ASSERT_TRUE(r.AddAttribute("id", DataType::kInt64, /*not_null=*/true).ok());
  ASSERT_TRUE(r.AddAttribute("x", DataType::kDouble).ok());
  Table r_table(r);
  InsertRows(&r_table, {{Value::Int(1), Value::Real(1.5)},
                        {Value::Int(2), Value::Real(2.5)},
                        {Value::Int(3), Value::Real(3.5)},
                        {Value::Int(4), Value::Real(1.5)}});
  ASSERT_TRUE(database.AddTable(std::move(r_table)).ok());
  RelationSchema s("s");
  ASSERT_TRUE(s.AddAttribute("x", DataType::kDouble).ok());
  ASSERT_TRUE(s.AddAttribute("label", DataType::kString).ok());
  Table s_table(s);
  InsertRows(&s_table, {{Value::Real(1.5), Value::Text("a")},
                        {Value::Real(2.5), Value::Text("b")},
                        {Value::Real(3.5), Value::Text("c")}});
  ASSERT_TRUE(database.AddTable(std::move(s_table)).ok());
  const std::vector<EquiJoin> joins = {EquiJoin::Single("r", "x", "s", "x")};
  ASSERT_FALSE(Report(database, joins).empty());  // warm every cache first
  for (const char* script : {
           // Three rows take NaN: three distinct values, not one.
           "UPDATE r SET x = 'nan' WHERE id >= 2;",
           "UPDATE s SET x = 'NaN' WHERE label != 'a';",
       }) {
    auto stats = ExecuteDmlScript(script, &database);
    ASSERT_TRUE(stats.ok()) << script << ": " << stats.status().ToString();
    ExpectColdEncoding(Get(database, "r"));
    ExpectColdEncoding(Get(database, "s"));
    EXPECT_EQ(Report(database, joins), Report(ColdReload(database), joins))
        << script;
  }
  auto distinct = Get(database, "r").DistinctCount(AttributeSet{"x"});
  ASSERT_TRUE(distinct.ok()) << distinct.status().ToString();
  EXPECT_EQ(*distinct, 4u);
}

}  // namespace
}  // namespace dbre::sql
