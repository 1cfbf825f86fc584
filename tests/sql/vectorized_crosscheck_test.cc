// The executor's batched columnar path must be indistinguishable from the
// tuple-at-a-time reference loop: every query here runs twice — once with
// the fast path enabled, once with ExecutorOptions::disable_vectorized —
// and the ResultSets must match byte-for-byte (column names, row order,
// cell values, including NULLs and signed zeros). Extensions are chosen
// adversarially: NULL-heavy columns, composite join keys, empty tables,
// and row counts straddling the batch size.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "relational/column_batch.h"
#include "relational/database.h"
#include "relational/table.h"
#include "sql/executor.h"
#include "support/table_rows.h"

namespace dbre::sql {
namespace {

// Runs `query` through both enumeration paths and requires identical
// outcomes (both the result and the error text).
void Crosscheck(const Database& db, const std::string& query) {
  ExecutorOptions fast;
  ExecutorOptions slow;
  slow.disable_vectorized = true;
  auto with = ExecuteQuery(db, query, fast);
  auto without = ExecuteQuery(db, query, slow);
  ASSERT_EQ(with.ok(), without.ok()) << query;
  if (!with.ok()) {
    EXPECT_EQ(with.status().ToString(), without.status().ToString()) << query;
    return;
  }
  EXPECT_EQ(with->columns, without->columns) << query;
  ASSERT_EQ(with->rows.size(), without->rows.size()) << query;
  for (size_t i = 0; i < with->rows.size(); ++i) {
    EXPECT_EQ(with->rows[i], without->rows[i]) << query << " row " << i;
  }
}

Database MakeDatabase(size_t emp_rows) {
  Database db;
  {
    RelationSchema schema("Dept");
    EXPECT_TRUE(schema.AddAttribute("dep", DataType::kInt64).ok());
    EXPECT_TRUE(schema.AddAttribute("name", DataType::kString).ok());
    EXPECT_TRUE(schema.AddAttribute("floor", DataType::kInt64).ok());
    Table table(std::move(schema));
    for (int d = 0; d < 23; ++d) {
      EXPECT_TRUE(table.Insert({Value::Int(d),
                             d % 5 == 0 ? Value::Null()
                                        : Value::Text("d" + std::to_string(d)),
                             Value::Int(d % 4)}).ok());
    }
    EXPECT_TRUE(db.AddTable(std::move(table)).ok());
  }
  {
    RelationSchema schema("Emp");
    EXPECT_TRUE(schema.AddAttribute("no", DataType::kInt64).ok());
    EXPECT_TRUE(schema.AddAttribute("dep", DataType::kInt64).ok());
    EXPECT_TRUE(schema.AddAttribute("name", DataType::kString).ok());
    EXPECT_TRUE(schema.AddAttribute("bonus", DataType::kDouble).ok());
    Table table(std::move(schema));
    for (size_t i = 0; i < emp_rows; ++i) {
      // NULL-heavy dep; names repeat; bonus mixes -0.0/0.0 and NULL.
      Value dep = i % 7 == 3 ? Value::Null()
                             : Value::Int(static_cast<int64_t>(i % 29));
      Value name = i % 11 == 0
                       ? Value::Null()
                       : Value::Text("emp" + std::to_string(i % 13));
      Value bonus = i % 5 == 0   ? Value::Null()
                    : i % 5 == 1 ? Value::Real(-0.0)
                    : i % 5 == 2 ? Value::Real(0.0)
                                 : Value::Real(static_cast<double>(i % 17));
      EXPECT_TRUE(table.Insert(
          {Value::Int(static_cast<int64_t>(i)), dep, name, bonus}).ok());
    }
    EXPECT_TRUE(db.AddTable(std::move(table)).ok());
  }
  {
    RelationSchema schema("Void");
    EXPECT_TRUE(schema.AddAttribute("x", DataType::kInt64).ok());
    Table table(std::move(schema));
    EXPECT_TRUE(db.AddTable(std::move(table)).ok());
  }
  return db;
}

const std::vector<std::string> kQueries = {
    // Scans and filters over every supported leaf, Kleene compositions.
    "SELECT * FROM Emp",
    "SELECT no, dep FROM Emp WHERE dep = 4",
    "SELECT no FROM Emp WHERE dep <> 4",
    "SELECT no FROM Emp WHERE dep < 9 AND name = 'emp3'",
    "SELECT no FROM Emp WHERE dep >= 20 OR dep <= 2",
    "SELECT no FROM Emp WHERE NOT (dep > 5)",
    "SELECT no FROM Emp WHERE dep IS NULL",
    "SELECT no, name FROM Emp WHERE name IS NOT NULL AND dep = 1",
    "SELECT no FROM Emp WHERE name LIKE 'emp1%'",
    "SELECT no FROM Emp WHERE name NOT LIKE '%2'",
    "SELECT no FROM Emp WHERE dep BETWEEN 2 AND 5",
    "SELECT no FROM Emp WHERE bonus > 3.5",
    "SELECT no FROM Emp WHERE bonus = 0.0",
    "SELECT no FROM Emp WHERE 1 = 1",
    "SELECT no FROM Emp WHERE 1 = 2",
    "SELECT no FROM Emp WHERE dep = :hostvar",
    // DISTINCT / COUNT funnels over the same enumerations.
    "SELECT DISTINCT dep FROM Emp",
    "SELECT DISTINCT name, dep FROM Emp WHERE dep < 12",
    "SELECT COUNT(*) FROM Emp WHERE dep = 4",
    "SELECT COUNT(name) FROM Emp",
    "SELECT COUNT(DISTINCT name) FROM Emp WHERE dep IS NOT NULL",
    // Joins: equality keys, extra residual filters, both comma and ON
    // syntax, aliases, and a composite (two-pair) key.
    "SELECT Emp.no, Dept.name FROM Emp, Dept WHERE Emp.dep = Dept.dep",
    "SELECT e.no FROM Emp e, Dept d WHERE e.dep = d.dep AND d.floor = 2",
    "SELECT e.no, d.name FROM Emp e JOIN Dept d ON e.dep = d.dep "
    "WHERE e.no < 40",
    "SELECT e.no FROM Emp e, Dept d WHERE e.dep = d.dep AND e.dep = d.floor",
    "SELECT COUNT(*) FROM Emp e, Dept d WHERE e.dep = d.dep",
    // Cross products (no key), with and without per-side filters.
    "SELECT e.no, d.dep FROM Emp e, Dept d WHERE e.no < 3 AND d.dep > 20",
    "SELECT COUNT(*) FROM Dept a, Dept b",
    // Empty tables on either side.
    "SELECT * FROM Void",
    "SELECT * FROM Void WHERE x = 1",
    "SELECT e.no FROM Emp e, Void v WHERE e.no = v.x",
    "SELECT v.x FROM Void v, Dept d WHERE v.x = d.dep",
    // Fallback territory: subqueries, same-table column comparisons,
    // cross-type joins — both paths must agree (the fast path refuses).
    "SELECT no FROM Emp WHERE dep IN (SELECT dep FROM Dept WHERE floor = 1)",
    "SELECT no FROM Emp WHERE EXISTS "
    "(SELECT * FROM Dept WHERE Dept.dep = Emp.dep)",
    "SELECT no FROM Emp WHERE no = dep",
    "SELECT e.no FROM Emp e, Dept d WHERE e.bonus = d.floor",
    // Set operations evaluate each core independently.
    "SELECT dep FROM Emp INTERSECT SELECT dep FROM Dept",
    "SELECT dep FROM Dept MINUS SELECT dep FROM Emp WHERE dep < 5",
    // Errors must match exactly (unknown column, ambiguity, type clash).
    "SELECT nope FROM Emp",
    "SELECT dep FROM Emp, Dept",
    "SELECT no FROM Emp WHERE name = 3",
};

TEST(VectorizedCrosscheckTest, SmallExtension) {
  Database db = MakeDatabase(97);
  for (const std::string& query : kQueries) Crosscheck(db, query);
}

TEST(VectorizedCrosscheckTest, BatchBoundaryExtensions) {
  // kBatchSize−1 / kBatchSize / kBatchSize+1 rows: the partial-final-batch
  // and exact-fit paths of every kernel.
  for (size_t rows : {batch::kBatchSize - 1, batch::kBatchSize,
                      batch::kBatchSize + 1}) {
    Database db = MakeDatabase(rows);
    Crosscheck(db, "SELECT COUNT(*) FROM Emp WHERE dep = 4");
    Crosscheck(db, "SELECT no FROM Emp WHERE dep IS NULL");
    Crosscheck(db, "SELECT COUNT(*) FROM Emp e, Dept d WHERE e.dep = d.dep");
    Crosscheck(db, "SELECT DISTINCT name FROM Emp WHERE dep < 7");
  }
}

TEST(VectorizedCrosscheckTest, MaxIntermediateRowsTripsIdentically) {
  Database db = MakeDatabase(50);
  ExecutorOptions fast;
  fast.max_intermediate_rows = 10;
  ExecutorOptions slow = fast;
  slow.disable_vectorized = true;
  const std::string query = "SELECT no FROM Emp";
  auto with = ExecuteQuery(db, query, fast);
  auto without = ExecuteQuery(db, query, slow);
  ASSERT_FALSE(with.ok());
  ASSERT_FALSE(without.ok());
  EXPECT_EQ(with.status().ToString(), without.status().ToString());
}

TEST(VectorizedCrosscheckTest, FastPathActuallyRuns) {
  Database db = MakeDatabase(60);
  obs::Counter* vectorized = obs::Registry::Default().GetCounter(
      "dbre_executor_paths_total", {{"path", "vectorized"}});
  obs::Counter* fallback = obs::Registry::Default().GetCounter(
      "dbre_executor_paths_total", {{"path", "fallback"}});
  const uint64_t vectorized_before = vectorized->value();
  ASSERT_TRUE(ExecuteQuery(db, "SELECT no FROM Emp WHERE dep = 1").ok());
  EXPECT_EQ(vectorized->value(), vectorized_before + 1);
  const uint64_t fallback_before = fallback->value();
  ASSERT_TRUE(
      ExecuteQuery(db, "SELECT no FROM Emp WHERE no = dep").ok());
  EXPECT_EQ(fallback->value(), fallback_before + 1);
}

TEST(VectorizedCrosscheckTest, CountDistinctAgreesWithSelectDistinct) {
  Database db = MakeDatabase(123);
  for (const std::vector<std::string>& attrs :
       std::vector<std::vector<std::string>>{
           {"dep"}, {"name"}, {"bonus"}, {"dep", "name"}, {"no", "dep"}}) {
    auto via_cache = CountDistinct(db, "Emp", attrs);
    ASSERT_TRUE(via_cache.ok());
    // The SELECT DISTINCT definition, evaluated by hand through the
    // executor (NULL-free rows only), must agree.
    std::string sql = "SELECT DISTINCT ";
    for (size_t i = 0; i < attrs.size(); ++i) {
      sql += (i ? ", " : "") + attrs[i];
    }
    sql += " FROM Emp";
    ExecutorOptions slow;
    slow.disable_vectorized = true;
    auto rows = ExecuteQuery(db, sql, slow);
    ASSERT_TRUE(rows.ok());
    size_t expected = 0;
    for (const ValueVector& row : rows->rows) {
      bool has_null = false;
      for (const Value& v : row) has_null |= v.is_null();
      if (!has_null) ++expected;
    }
    EXPECT_EQ(*via_cache, expected) << sql;
  }
  EXPECT_FALSE(CountDistinct(db, "Emp", {}).ok());
  EXPECT_FALSE(CountDistinct(db, "Nope", {"x"}).ok());
  EXPECT_FALSE(CountDistinct(db, "Emp", {"nope"}).ok());
}

}  // namespace
}  // namespace dbre::sql
