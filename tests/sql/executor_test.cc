#include "sql/executor.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sql/ddl.h"

namespace dbre::sql {
namespace {

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto stats = ExecuteDdlScript(R"(
CREATE TABLE Dept (id INT PRIMARY KEY, name VARCHAR(20), city VARCHAR(20));
CREATE TABLE Emp (no INT PRIMARY KEY, dep INT, salary FLOAT,
                  nick VARCHAR(20));
INSERT INTO Dept VALUES (1, 'eng', 'lyon'), (2, 'ops', 'paris'),
                        (3, 'hr', 'lyon');
INSERT INTO Emp VALUES
  (10, 1, 1000.0, 'ada'),
  (11, 1, 1200.0, 'alan'),
  (12, 2, 900.0, 'grace'),
  (13, NULL, 800.0, NULL);
)",
                                  &db_);
    ASSERT_TRUE(stats.ok()) << stats.status();
  }

  ResultSet Run(const std::string& sql) {
    auto result = ExecuteQuery(db_, sql);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status();
    return result.ok() ? std::move(result).value() : ResultSet{};
  }

  Database db_;
};

TEST_F(ExecutorTest, SimpleProjection) {
  ResultSet rs = Run("SELECT name FROM Dept");
  EXPECT_EQ(rs.columns, std::vector<std::string>{"name"});
  EXPECT_EQ(rs.NumRows(), 3u);
}

TEST_F(ExecutorTest, StarExpansion) {
  ResultSet rs = Run("SELECT * FROM Dept");
  EXPECT_EQ(rs.columns,
            (std::vector<std::string>{"id", "name", "city"}));
  EXPECT_EQ(rs.NumRows(), 3u);
  EXPECT_EQ(rs.rows[0].size(), 3u);
}

TEST_F(ExecutorTest, WhereFilters) {
  ResultSet rs = Run("SELECT no FROM Emp WHERE salary >= 1000.0");
  EXPECT_EQ(rs.NumRows(), 2u);
  rs = Run("SELECT no FROM Emp WHERE salary < 900");
  EXPECT_EQ(rs.NumRows(), 1u);
  rs = Run("SELECT id FROM Dept WHERE name = 'eng'");
  ASSERT_EQ(rs.NumRows(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value::Int(1));
  rs = Run("SELECT id FROM Dept WHERE name <> 'eng'");
  EXPECT_EQ(rs.NumRows(), 2u);
}

TEST_F(ExecutorTest, NullComparisonsAreUnknown) {
  // dep = 1 is unknown for the NULL-dep employee: excluded from both the
  // predicate and its negation.
  EXPECT_EQ(Run("SELECT no FROM Emp WHERE dep = 1").NumRows(), 2u);
  EXPECT_EQ(Run("SELECT no FROM Emp WHERE NOT (dep = 1)").NumRows(), 1u);
  EXPECT_EQ(Run("SELECT no FROM Emp WHERE dep IS NULL").NumRows(), 1u);
  EXPECT_EQ(Run("SELECT no FROM Emp WHERE dep IS NOT NULL").NumRows(), 3u);
}

TEST_F(ExecutorTest, JoinViaWhere) {
  ResultSet rs = Run(
      "SELECT e.nick, d.name FROM Emp e, Dept d WHERE e.dep = d.id");
  EXPECT_EQ(rs.NumRows(), 3u);  // NULL dep joins nothing
}

TEST_F(ExecutorTest, JoinOnSyntax) {
  ResultSet via_where = Run(
      "SELECT e.no, d.name FROM Emp e, Dept d WHERE e.dep = d.id");
  ResultSet via_on =
      Run("SELECT e.no, d.name FROM Emp e JOIN Dept d ON e.dep = d.id");
  EXPECT_TRUE(via_where.SameRows(via_on));
}

TEST_F(ExecutorTest, AndOrPrecedence) {
  ResultSet rs = Run(
      "SELECT no FROM Emp WHERE dep = 1 AND salary > 1100 OR nick = "
      "'grace'");
  EXPECT_EQ(rs.NumRows(), 2u);  // alan (1200, dep 1) and grace
}

TEST_F(ExecutorTest, LikePatterns) {
  EXPECT_EQ(Run("SELECT no FROM Emp WHERE nick LIKE 'a%'").NumRows(), 2u);
  EXPECT_EQ(Run("SELECT no FROM Emp WHERE nick LIKE '_race'").NumRows(),
            1u);
  EXPECT_EQ(Run("SELECT no FROM Emp WHERE nick NOT LIKE 'a%'").NumRows(),
            1u);  // grace; NULL nick is unknown
  EXPECT_EQ(Run("SELECT no FROM Emp WHERE nick LIKE '%'").NumRows(), 3u);
}

TEST_F(ExecutorTest, InSubquery) {
  ResultSet rs = Run(
      "SELECT no FROM Emp WHERE dep IN (SELECT id FROM Dept WHERE city = "
      "'lyon')");
  EXPECT_EQ(rs.NumRows(), 2u);
}

TEST_F(ExecutorTest, NotInWithNullSemantics) {
  // dep NOT IN (...) excludes the NULL-dep row (unknown).
  ResultSet rs = Run(
      "SELECT no FROM Emp WHERE dep NOT IN (SELECT id FROM Dept WHERE "
      "city = 'lyon')");
  ASSERT_EQ(rs.NumRows(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value::Int(12));
}

TEST_F(ExecutorTest, CorrelatedExists) {
  ResultSet rs = Run(
      "SELECT d.name FROM Dept d WHERE EXISTS "
      "(SELECT no FROM Emp e WHERE e.dep = d.id)");
  EXPECT_EQ(rs.NumRows(), 2u);  // hr has no employees
  rs = Run(
      "SELECT d.name FROM Dept d WHERE NOT EXISTS "
      "(SELECT no FROM Emp e WHERE e.dep = d.id)");
  ASSERT_EQ(rs.NumRows(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value::Text("hr"));
}

TEST_F(ExecutorTest, Distinct) {
  EXPECT_EQ(Run("SELECT city FROM Dept").NumRows(), 3u);
  EXPECT_EQ(Run("SELECT DISTINCT city FROM Dept").NumRows(), 2u);
}

TEST_F(ExecutorTest, CountStarAndColumn) {
  ResultSet rs = Run("SELECT COUNT(*) FROM Emp");
  ASSERT_EQ(rs.NumRows(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value::Int(4));
  // COUNT(col) skips NULLs.
  rs = Run("SELECT COUNT(dep) FROM Emp");
  EXPECT_EQ(rs.rows[0][0], Value::Int(3));
  rs = Run("SELECT COUNT(DISTINCT dep) FROM Emp");
  EXPECT_EQ(rs.rows[0][0], Value::Int(2));
  rs = Run("SELECT COUNT(*) FROM Emp WHERE salary > 850");
  EXPECT_EQ(rs.rows[0][0], Value::Int(3));
}

TEST_F(ExecutorTest, PaperCountDistinctOperator) {
  auto count = CountDistinct(db_, "Emp", {"dep"});
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 2u);
  count = CountDistinct(db_, "Emp", {"dep", "salary"});
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 3u);  // NULL-dep row excluded
  EXPECT_FALSE(CountDistinct(db_, "Emp", {}).ok());
  EXPECT_FALSE(CountDistinct(db_, "Nope", {"x"}).ok());
}

TEST_F(ExecutorTest, IntersectUnionMinus) {
  ResultSet rs = Run(
      "SELECT city FROM Dept INTERSECT SELECT city FROM Dept WHERE id = 1");
  ASSERT_EQ(rs.NumRows(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value::Text("lyon"));
  rs = Run("SELECT id FROM Dept UNION SELECT no FROM Emp");
  EXPECT_EQ(rs.NumRows(), 7u);
  rs = Run(
      "SELECT city FROM Dept MINUS SELECT city FROM Dept WHERE id = 1");
  ASSERT_EQ(rs.NumRows(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value::Text("paris"));
}

TEST_F(ExecutorTest, HostVariablesActAsNull) {
  EXPECT_EQ(Run("SELECT no FROM Emp WHERE salary > :minsal").NumRows(), 0u);
}

TEST_F(ExecutorTest, SelfJoinWithAliases) {
  ResultSet rs = Run(
      "SELECT a.no, b.no FROM Emp a, Emp b WHERE a.dep = b.dep AND "
      "a.no < b.no");
  ASSERT_EQ(rs.NumRows(), 1u);  // (10, 11)
  EXPECT_EQ(rs.rows[0][0], Value::Int(10));
  EXPECT_EQ(rs.rows[0][1], Value::Int(11));
}

TEST_F(ExecutorTest, ThreeTableJoin) {
  ResultSet rs = Run(
      "SELECT a.nick, b.nick, d.name FROM Emp a, Emp b, Dept d "
      "WHERE a.dep = d.id AND b.dep = d.id AND a.no < b.no");
  ASSERT_EQ(rs.NumRows(), 1u);  // ada & alan, both in eng
  EXPECT_EQ(rs.rows[0][2], Value::Text("eng"));
}

TEST_F(ExecutorTest, NestedInChains) {
  ResultSet rs = Run(
      "SELECT name FROM Dept WHERE id IN "
      "(SELECT dep FROM Emp WHERE no IN "
      "(SELECT no FROM Emp WHERE salary >= 1000))");
  ASSERT_EQ(rs.NumRows(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value::Text("eng"));
}

TEST_F(ExecutorTest, IntersectWithWhereOnBothSides) {
  ResultSet rs = Run(
      "SELECT dep FROM Emp WHERE salary > 950 "
      "INTERSECT "
      "SELECT id FROM Dept WHERE city = 'lyon'");
  ASSERT_EQ(rs.NumRows(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value::Int(1));
}

TEST_F(ExecutorTest, CountOnEmptyResult) {
  ResultSet rs = Run("SELECT COUNT(*) FROM Emp WHERE salary > 100000");
  ASSERT_EQ(rs.NumRows(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value::Int(0));
}

TEST_F(ExecutorTest, QualifiedStarExpansion) {
  ResultSet rs = Run("SELECT d.* FROM Dept d, Emp e WHERE e.dep = d.id");
  EXPECT_EQ(rs.columns, (std::vector<std::string>{"id", "name", "city"}));
  EXPECT_EQ(rs.NumRows(), 3u);
  EXPECT_EQ(rs.rows[0].size(), 3u);
}

TEST_F(ExecutorTest, ErrorsAreReported) {
  EXPECT_FALSE(ExecuteQuery(db_, "SELECT x FROM Nope").ok());
  EXPECT_FALSE(ExecuteQuery(db_, "SELECT missing FROM Dept").ok());
  // Ambiguous unqualified column (both aliases expose `no`).
  EXPECT_FALSE(
      ExecuteQuery(db_, "SELECT a.no FROM Emp a, Emp b WHERE no = 10").ok());
  // Type mismatch in comparison.
  EXPECT_FALSE(ExecuteQuery(db_, "SELECT no FROM Emp WHERE nick = 3").ok());
  // Mixed aggregate and scalar select list.
  EXPECT_FALSE(ExecuteQuery(db_, "SELECT COUNT(*), no FROM Emp").ok());
  // Set op shape mismatch.
  EXPECT_FALSE(
      ExecuteQuery(db_, "SELECT id, name FROM Dept INTERSECT SELECT id "
                        "FROM Dept")
          .ok());
}

TEST_F(ExecutorTest, MaxIntermediateRowsGuard) {
  ExecutorOptions options;
  options.max_intermediate_rows = 2;
  auto result =
      ExecuteQuery(db_, "SELECT e.no FROM Emp e, Dept d", options);
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ExecutorTest, ResultSetToStringAligns) {
  ResultSet rs = Run("SELECT id, name FROM Dept WHERE id = 1");
  std::string text = rs.ToString();
  EXPECT_NE(text.find("id | name"), std::string::npos);
  EXPECT_NE(text.find("1  | eng"), std::string::npos);
}

// A "Staff" relation of 123 rows: NULL-heavy dep; names repeat; bonus
// mixes -0.0/0.0 and NULL; every third ratio is NaN.
Table StaffTable() {
  RelationSchema schema("Staff");
  EXPECT_TRUE(schema.AddAttribute("no", DataType::kInt64).ok());
  EXPECT_TRUE(schema.AddAttribute("dep", DataType::kInt64).ok());
  EXPECT_TRUE(schema.AddAttribute("name", DataType::kString).ok());
  EXPECT_TRUE(schema.AddAttribute("bonus", DataType::kDouble).ok());
  EXPECT_TRUE(schema.AddAttribute("ratio", DataType::kDouble).ok());
  Table staff(std::move(schema));
  for (int64_t i = 0; i < 123; ++i) {
    Value dep = i % 7 == 3 ? Value::Null() : Value::Int(i % 29);
    Value name = i % 11 == 0 ? Value::Null()
                             : Value::Text("emp" + std::to_string(i % 13));
    Value bonus = i % 5 == 0   ? Value::Null()
                  : i % 5 == 1 ? Value::Real(-0.0)
                  : i % 5 == 2 ? Value::Real(0.0)
                               : Value::Real(static_cast<double>(i % 17));
    Value ratio = i % 3 == 0   ? Value::Real(std::nan(""))
                  : i % 4 == 0 ? Value::Null()
                               : Value::Real(static_cast<double>(i % 6));
    EXPECT_TRUE(staff.Insert({Value::Int(i), dep, name, bonus, ratio}).ok());
  }
  return staff;
}

const std::vector<std::vector<std::string>> kStaffAttributeLists = {
    {"dep"},         {"name"},      {"bonus"},         {"ratio"},
    {"dep", "name"}, {"no", "dep"}, {"bonus", "ratio"}};

// Cross-check: the executor's literal COUNT DISTINCT agrees with the
// algebra layer's DistinctCount on the paper-style operator — over single
// and composite attribute lists, NULL-heavy columns, ±0.0 and NaN.
TEST_F(ExecutorTest, AgreesWithAlgebraLayer) {
  const Table& emp = **db_.GetTable("Emp");
  for (const char* column : {"no", "dep", "salary", "nick"}) {
    auto via_algebra = emp.DistinctCount(AttributeSet::Single(column));
    auto via_sql = CountDistinct(db_, "Emp", {column});
    ASSERT_TRUE(via_algebra.ok() && via_sql.ok()) << column;
    EXPECT_EQ(*via_algebra, *via_sql) << column;
  }

  ASSERT_TRUE(db_.AddTable(StaffTable()).ok());
  const Table& table = **db_.GetTable("Staff");
  for (const std::vector<std::string>& attributes : kStaffAttributeLists) {
    auto via_algebra = table.DistinctCount(AttributeSet(attributes));
    auto via_sql = CountDistinct(db_, "Staff", attributes);
    ASSERT_TRUE(via_algebra.ok() && via_sql.ok()) << attributes[0];
    EXPECT_EQ(*via_algebra, *via_sql)
        << attributes[0] << " (" << attributes.size() << " attributes)";
  }
  EXPECT_FALSE(CountDistinct(db_, "Staff", {}).ok());
  EXPECT_FALSE(CountDistinct(db_, "Nope", {"x"}).ok());
  EXPECT_FALSE(CountDistinct(db_, "Staff", {"nope"}).ok());
}

// CountDistinct counts the NULL-free rows of SELECT DISTINCT; the same
// count, taken by hand from ExecuteQuery, must agree. (The suite keeps the
// name it had when it also compared two executor paths.)
TEST(VectorizedCrosscheckTest, CountDistinctAgreesWithSelectDistinct) {
  Database db;
  ASSERT_TRUE(db.AddTable(StaffTable()).ok());
  for (const std::vector<std::string>& attributes : kStaffAttributeLists) {
    auto count = CountDistinct(db, "Staff", attributes);
    ASSERT_TRUE(count.ok());
    std::string sql = "SELECT DISTINCT ";
    for (size_t i = 0; i < attributes.size(); ++i) {
      sql += (i ? ", " : "") + attributes[i];
    }
    sql += " FROM Staff";
    auto rows = ExecuteQuery(db, sql);
    ASSERT_TRUE(rows.ok()) << sql;
    size_t expected = 0;
    for (const ValueVector& row : rows->rows) {
      bool has_null = false;
      for (const Value& v : row) has_null |= v.is_null();
      if (!has_null) ++expected;
    }
    EXPECT_EQ(*count, expected) << sql;
  }
  EXPECT_FALSE(CountDistinct(db, "Staff", {}).ok());
  EXPECT_FALSE(CountDistinct(db, "Nope", {"x"}).ok());
  EXPECT_FALSE(CountDistinct(db, "Staff", {"nope"}).ok());
}

// A NaN operand makes a comparison unknown, as NULL does: no comparison
// selects the NaN row, and neither does the negation of one.
TEST_F(ExecutorTest, NaNComparisonsAreUnknown) {
  ASSERT_TRUE(ExecuteDdlScript(
                  "CREATE TABLE T (id INT, d FLOAT);"
                  "INSERT INTO T VALUES (1, 1.0), (2, 'nan'), (3, 2.0);",
                  &db_)
                  .ok());
  auto ids = [this](const std::string& where) {
    ResultSet rs = Run("SELECT id FROM T WHERE " + where);
    std::vector<int64_t> out;
    for (const ValueVector& row : rs.rows) out.push_back(row[0].as_int());
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(ids("d = 1.0"), std::vector<int64_t>{1});
  EXPECT_EQ(ids("d <= 1.0"), std::vector<int64_t>{1});
  EXPECT_EQ(ids("d >= 2.0"), std::vector<int64_t>{3});
  EXPECT_EQ(ids("NOT (d <> 1.0)"), std::vector<int64_t>{1});
  EXPECT_EQ(ids("d IN (SELECT d FROM T WHERE id = 1)"),
            std::vector<int64_t>{1});
  EXPECT_EQ(ids("d <> 1.0"), std::vector<int64_t>{3});
}

// SELECT DISTINCT sorts its rows, so it needs Value's order to stay a
// strict weak order with NaN present. Every NaN is its own value (its own
// code), so the distinct rows are the 50 values plus one row per NaN.
TEST_F(ExecutorTest, DistinctKeepsEveryNaNAndEachValueOnce) {
  RelationSchema schema("T");
  ASSERT_TRUE(schema.AddAttribute("d", DataType::kDouble).ok());
  Table table(std::move(schema));
  for (int i = 0; i < 4000; ++i) {
    Value d = i % 3 == 0 ? Value::Real(std::nan(""))
                         : Value::Real(static_cast<double>((i * 7) % 50));
    ASSERT_TRUE(table.Insert({d}).ok());
  }
  ASSERT_TRUE(db_.AddTable(std::move(table)).ok());
  ResultSet rs = Run("SELECT DISTINCT d FROM T");
  EXPECT_EQ(rs.NumRows(), 1384u);  // 50 values + 1,334 NaNs
  auto via_algebra = (*db_.GetTable("T"))->DistinctCount(AttributeSet{"d"});
  ASSERT_TRUE(via_algebra.ok());
  EXPECT_EQ(rs.NumRows(), *via_algebra);
}

}  // namespace
}  // namespace dbre::sql
