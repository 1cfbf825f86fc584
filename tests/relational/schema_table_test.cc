#include <gtest/gtest.h>

#include "relational/schema.h"
#include "relational/table.h"
#include "support/table_rows.h"

namespace dbre {
namespace {

RelationSchema MakeSchema() {
  RelationSchema schema("R");
  EXPECT_TRUE(schema.AddAttribute("id", DataType::kInt64).ok());
  EXPECT_TRUE(schema.AddAttribute("name", DataType::kString).ok());
  EXPECT_TRUE(
      schema.AddAttribute("score", DataType::kDouble, /*not_null=*/true)
          .ok());
  EXPECT_TRUE(schema.DeclareUnique({"id"}).ok());
  return schema;
}

TEST(SchemaTest, RejectsDuplicateAttribute) {
  RelationSchema schema("R");
  ASSERT_TRUE(schema.AddAttribute("a", DataType::kInt64).ok());
  EXPECT_EQ(schema.AddAttribute("a", DataType::kString).code(),
            StatusCode::kAlreadyExists);
}

TEST(SchemaTest, RejectsEmptyAttributeName) {
  RelationSchema schema("R");
  EXPECT_EQ(schema.AddAttribute("", DataType::kInt64).code(),
            StatusCode::kInvalidArgument);
}

TEST(SchemaTest, AttributeLookup) {
  RelationSchema schema = MakeSchema();
  EXPECT_TRUE(schema.HasAttribute("name"));
  EXPECT_FALSE(schema.HasAttribute("missing"));
  EXPECT_EQ(*schema.AttributeIndex("name"), 1u);
  EXPECT_EQ(*schema.AttributeType("score"), DataType::kDouble);
  EXPECT_EQ(schema.AttributeType("missing").status().code(),
            StatusCode::kNotFound);
}

TEST(SchemaTest, UniqueDeclarationValidation) {
  RelationSchema schema = MakeSchema();
  EXPECT_EQ(schema.DeclareUnique({"missing"}).code(), StatusCode::kNotFound);
  EXPECT_EQ(schema.DeclareUnique({"id"}).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(schema.DeclareUnique(AttributeSet{}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(schema.DeclareUnique({"name", "score"}).ok());
  EXPECT_TRUE(schema.IsKey(AttributeSet{"name", "score"}));
  EXPECT_FALSE(schema.IsKey(AttributeSet{"name"}));
}

TEST(SchemaTest, PrimaryKeyIsFirstUnique) {
  RelationSchema schema = MakeSchema();
  ASSERT_TRUE(schema.PrimaryKey().has_value());
  EXPECT_EQ(*schema.PrimaryKey(), AttributeSet{"id"});
  RelationSchema keyless("K");
  EXPECT_FALSE(keyless.PrimaryKey().has_value());
}

TEST(SchemaTest, NotNullIncludesKeyAttributes) {
  RelationSchema schema = MakeSchema();
  EXPECT_EQ(schema.NotNullAttributes(), (AttributeSet{"id", "score"}));
  ASSERT_TRUE(schema.DeclareNotNull("name").ok());
  EXPECT_EQ(schema.NotNullAttributes(),
            (AttributeSet{"id", "name", "score"}));
  EXPECT_EQ(schema.DeclareNotNull("missing").code(), StatusCode::kNotFound);
}

TEST(SchemaTest, NotNullMaskFollowsEveryMutator) {
  RelationSchema schema("R");
  ASSERT_TRUE(schema.AddAttribute("a", DataType::kInt64).ok());
  ASSERT_TRUE(schema.AddAttribute("b", DataType::kString, true).ok());
  ASSERT_TRUE(schema.AddAttribute("c", DataType::kString).ok());
  EXPECT_EQ(schema.not_null_mask(), (std::vector<bool>{false, true, false}));
  ASSERT_TRUE(schema.DeclareUnique({"c"}).ok());
  EXPECT_EQ(schema.not_null_mask(), (std::vector<bool>{false, true, true}));
  ASSERT_TRUE(schema.RemoveAttribute("b").ok());
  EXPECT_EQ(schema.not_null_mask(), (std::vector<bool>{false, true}));
  ASSERT_TRUE(schema.DeclareNotNull("a").ok());
  EXPECT_EQ(schema.not_null_mask(), (std::vector<bool>{true, true}));
  ASSERT_TRUE(schema.RemoveAttribute("a").ok());
  ASSERT_TRUE(schema.AddAttribute("d", DataType::kInt64).ok());
  EXPECT_EQ(schema.not_null_mask(), (std::vector<bool>{true, false}));
  EXPECT_EQ(schema.NotNullAttributes(), AttributeSet{"c"});
  // Dropping the key's only attribute drops the declaration.
  ASSERT_TRUE(schema.RemoveAttribute("c").ok());
  EXPECT_EQ(schema.not_null_mask(), (std::vector<bool>{false}));
}

TEST(SchemaTest, RemoveAttributeCleansUniques) {
  RelationSchema schema = MakeSchema();
  ASSERT_TRUE(schema.DeclareUnique({"name", "score"}).ok());
  ASSERT_TRUE(schema.RemoveAttribute("name").ok());
  EXPECT_FALSE(schema.HasAttribute("name"));
  // {name, score} shrank to {score}.
  EXPECT_TRUE(schema.IsKey(AttributeSet{"score"}));
  EXPECT_EQ(schema.RemoveAttribute("name").code(), StatusCode::kNotFound);
}

TEST(SchemaTest, ToStringShowsConstraints) {
  RelationSchema schema = MakeSchema();
  EXPECT_EQ(schema.ToString(), "R(id, name, score*) unique{id}");
}

TEST(TableTest, InsertValidatesArityTypesAndNulls) {
  Table table(MakeSchema());
  EXPECT_TRUE(
      table.Insert({Value::Int(1), Value::Text("a"), Value::Real(0.5)}).ok());
  // Wrong arity.
  EXPECT_EQ(table.Insert({Value::Int(1)}).code(),
            StatusCode::kInvalidArgument);
  // Wrong type.
  EXPECT_EQ(
      table.Insert({Value::Text("x"), Value::Text("a"), Value::Real(0.5)})
          .code(),
      StatusCode::kInvalidArgument);
  // NULL in not-null column (score).
  EXPECT_EQ(
      table.Insert({Value::Int(2), Value::Text("b"), Value::Null()}).code(),
      StatusCode::kInvalidArgument);
  // NULL in key column (id is key → implicitly not-null).
  EXPECT_EQ(
      table.Insert({Value::Null(), Value::Text("b"), Value::Real(1.0)})
          .code(),
      StatusCode::kInvalidArgument);
  // NULL in plain nullable column is fine.
  EXPECT_TRUE(
      table.Insert({Value::Int(2), Value::Null(), Value::Real(1.0)}).ok());
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(TableTest, DistinctCountSkipsNulls) {
  Table table(MakeSchema());
  ASSERT_TRUE(
      table.Insert({Value::Int(1), Value::Text("a"), Value::Real(1.0)}).ok());
  ASSERT_TRUE(
      table.Insert({Value::Int(2), Value::Text("a"), Value::Real(1.0)}).ok());
  ASSERT_TRUE(
      table.Insert({Value::Int(3), Value::Null(), Value::Real(1.0)}).ok());
  EXPECT_EQ(*table.DistinctCount(AttributeSet{"id"}), 3u);
  EXPECT_EQ(*table.DistinctCount(AttributeSet{"name"}), 1u);  // NULL skipped
  EXPECT_EQ(*table.DistinctCount(AttributeSet{"id", "name"}), 2u);
  EXPECT_EQ(table.DistinctCount(AttributeSet{}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(table.DistinctCount(AttributeSet{"nope"}).status().code(),
            StatusCode::kNotFound);
}

TEST(TableTest, VerifyUniqueDetectsDuplicates) {
  Table table(MakeSchema());
  ASSERT_TRUE(
      table.Insert({Value::Int(1), Value::Text("a"), Value::Real(1.0)}).ok());
  EXPECT_TRUE(table.VerifyUniqueConstraints().ok());
  EXPECT_TRUE(
      table.Insert({Value::Int(1), Value::Text("b"), Value::Real(2.0)}).ok());
  EXPECT_EQ(table.VerifyUniqueConstraints().code(),
            StatusCode::kFailedPrecondition);
}

TEST(TableTest, VerifyNotNullDetectsViolations) {
  // Insert refuses the NULL, so the violating extension is adopted whole
  // (not-null is the adopter's to honour).
  Table table(MakeSchema());
  EncodedTable extension(
      {DataType::kInt64, DataType::kString, DataType::kDouble});
  extension.AppendRow({Value::Int(1), Value::Text("a"), Value::Null()});
  ASSERT_TRUE(table.AdoptExtension(std::move(extension)).ok());
  EXPECT_EQ(table.VerifyNotNullConstraints().code(),
            StatusCode::kFailedPrecondition);
}

TEST(TableTest, DropAttributeRemovesColumnData) {
  Table table(MakeSchema());
  ASSERT_TRUE(
      table.Insert({Value::Int(1), Value::Text("a"), Value::Real(1.0)}).ok());
  ASSERT_TRUE(
      table.Insert({Value::Int(2), Value::Text("b"), Value::Real(2.0)}).ok());
  ASSERT_TRUE(table.DropAttributes(AttributeSet{"name"}).ok());
  EXPECT_EQ(table.schema().arity(), 2u);
  EXPECT_EQ(Rows(table)[0].size(), 2u);
  EXPECT_EQ(Rows(table)[0][0], Value::Int(1));
  EXPECT_EQ(Rows(table)[0][1], Value::Real(1.0));
  EXPECT_EQ(Rows(table)[1][1], Value::Real(2.0));
  // A missing attribute fails the whole drop and changes nothing.
  EXPECT_EQ(table.DropAttributes(AttributeSet{"name", "score"}).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(table.schema().arity(), 2u);
  EXPECT_EQ(Rows(table)[0].size(), 2u);
  // Several attributes go in one pass; the survivors keep their order.
  Table wide(MakeSchema());
  ASSERT_TRUE(
      wide.Insert({Value::Int(7), Value::Text("c"), Value::Real(3.0)}).ok());
  ASSERT_TRUE(wide.DropAttributes(AttributeSet{"id", "score"}).ok());
  EXPECT_EQ(wide.schema().arity(), 1u);
  EXPECT_EQ(Rows(wide)[0], (ValueVector{Value::Text("c")}));
  EXPECT_TRUE(wide.schema().unique_constraints().empty());
}

TEST(TableTest, ProjectionIndexesFollowSetOrder) {
  Table table(MakeSchema());
  auto indexes = table.ProjectionIndexes(AttributeSet{"score", "id"});
  ASSERT_TRUE(indexes.ok());
  // Set order is sorted: id before score.
  EXPECT_EQ(*indexes, (std::vector<size_t>{0, 2}));
}

}  // namespace
}  // namespace dbre
