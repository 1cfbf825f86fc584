// Remaining edge paths of the relational layer.
#include <gtest/gtest.h>

#include "relational/algebra.h"
#include "relational/database.h"
#include "support/table_rows.h"

namespace dbre {
namespace {

TEST(ValueEdgeTest, RealToStringAndBool) {
  EXPECT_EQ(Value::Real(2.5).ToString(), "2.5");
  EXPECT_EQ(Value::Boolean(true).ToString(), "true");
  EXPECT_EQ(Value::Boolean(false).ToString(), "false");
}

TEST(ValueEdgeTest, IntParseOverflowFails) {
  EXPECT_FALSE(Value::Parse("99999999999999999999", DataType::kInt64).ok());
}

TEST(TableEdgeTest, ClearEmptiesRows) {
  RelationSchema schema("T");
  ASSERT_TRUE(schema.AddAttribute("a", DataType::kInt64).ok());
  Table table(std::move(schema));
  EXPECT_TRUE(table.Insert({Value::Int(1)}).ok());
  EXPECT_EQ(table.num_rows(), 1u);
  table.Clear();
  EXPECT_EQ(table.num_rows(), 0u);
}

TEST(DatabaseEdgeTest, AddTableValidations) {
  Database db;
  Table unnamed{RelationSchema("")};
  EXPECT_EQ(db.AddTable(std::move(unnamed)).code(),
            StatusCode::kInvalidArgument);
  Table named{RelationSchema("T")};
  ASSERT_TRUE(db.AddTable(std::move(named)).ok());
  Table duplicate{RelationSchema("T")};
  EXPECT_EQ(db.AddTable(std::move(duplicate)).code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(db.DropRelation("T").ok());
  EXPECT_FALSE(db.HasRelation("T"));
}

TEST(DatabaseEdgeTest, DescribeSchemaListsRelations) {
  Database db;
  RelationSchema schema("People");
  ASSERT_TRUE(schema.AddAttribute("id", DataType::kInt64).ok());
  ASSERT_TRUE(schema.DeclareUnique({"id"}).ok());
  ASSERT_TRUE(db.CreateRelation(std::move(schema)).ok());
  EXPECT_TRUE((*db.GetMutableTable("People"))->Insert({Value::Int(1)}).ok());
  std::string text = db.DescribeSchema();
  EXPECT_NE(text.find("People(id) unique{id}"), std::string::npos);
  EXPECT_NE(text.find("[1 tuples]"), std::string::npos);
}

TEST(DatabaseEdgeTest, VerifyDeclaredConstraintsCoversAllRelations) {
  Database db;
  RelationSchema good("Good");
  ASSERT_TRUE(good.AddAttribute("a", DataType::kInt64).ok());
  ASSERT_TRUE(db.CreateRelation(std::move(good)).ok());
  RelationSchema bad("Bad");
  ASSERT_TRUE(bad.AddAttribute("k", DataType::kInt64).ok());
  ASSERT_TRUE(bad.DeclareUnique({"k"}).ok());
  ASSERT_TRUE(db.CreateRelation(std::move(bad)).ok());
  Table* table = *db.GetMutableTable("Bad");
  EXPECT_TRUE(table->Insert({Value::Int(1)}).ok());
  EXPECT_TRUE(table->Insert({Value::Int(1)}).ok());
  EXPECT_EQ(db.VerifyDeclaredConstraints().code(),
            StatusCode::kFailedPrecondition);
}

TEST(AlgebraEdgeTest, OrderedProjectionValidations) {
  RelationSchema schema("T");
  ASSERT_TRUE(schema.AddAttribute("a", DataType::kInt64).ok());
  Table table(std::move(schema));
  EXPECT_FALSE(OrderedProjectionIndexes(table, {}).ok());
  EXPECT_FALSE(OrderedProjectionIndexes(table, {"missing"}).ok());
  // Repeated attribute in an ordered list is allowed (positional).
  auto indexes = OrderedProjectionIndexes(table, {"a", "a"});
  ASSERT_TRUE(indexes.ok());
  EXPECT_EQ(*indexes, (std::vector<size_t>{0, 0}));
}

TEST(AlgebraEdgeTest, InclusionArityMismatch) {
  Database db;
  RelationSchema r("R");
  ASSERT_TRUE(r.AddAttribute("a", DataType::kInt64).ok());
  ASSERT_TRUE(db.CreateRelation(std::move(r)).ok());
  EXPECT_FALSE(InclusionHolds(db, "R", {"a"}, "R", {}).ok());
}

TEST(JoinCountsEdgeTest, EmptyTablesAreEmptyIntersections) {
  Database db;
  for (const char* name : {"A", "B"}) {
    RelationSchema schema(name);
    ASSERT_TRUE(schema.AddAttribute("x", DataType::kInt64).ok());
    ASSERT_TRUE(db.CreateRelation(std::move(schema)).ok());
  }
  auto counts = ComputeJoinCounts(db, EquiJoin::Single("A", "x", "B", "x"));
  ASSERT_TRUE(counts.ok());
  EXPECT_EQ(counts->n_left, 0u);
  EXPECT_EQ(counts->n_join, 0u);
  EXPECT_TRUE(counts->EmptyIntersection());
  EXPECT_FALSE(counts->LeftIncluded());  // empty side is not "included"
}

}  // namespace
}  // namespace dbre
