#include "deps/ind.h"
#include "support/table_rows.h"

#include <gtest/gtest.h>

namespace dbre {
namespace {

TEST(IndTest, ToStringAndOrdering) {
  InclusionDependency ind =
      InclusionDependency::Single("R", "a", "S", "b");
  EXPECT_EQ(ind.ToString(), "R[a] << S[b]");
  InclusionDependency multi("R", {"a", "b"}, "S", {"x", "y"});
  EXPECT_EQ(multi.ToString(), "R[a, b] << S[x, y]");
  EXPECT_LT(ind, multi);  // [a] < [a, b]
}

TEST(IndTest, ValidateShapes) {
  EXPECT_TRUE(InclusionDependency::Single("R", "a", "S", "b").Validate().ok());
  EXPECT_FALSE(InclusionDependency("", {"a"}, "S", {"b"}).Validate().ok());
  EXPECT_FALSE(InclusionDependency("R", {}, "S", {}).Validate().ok());
  EXPECT_FALSE(
      InclusionDependency("R", {"a", "b"}, "S", {"x"}).Validate().ok());
  EXPECT_FALSE(InclusionDependency("R", {""}, "S", {"x"}).Validate().ok());
}

TEST(IndTest, SatisfiesQueriesExtension) {
  Database db;
  RelationSchema r("R");
  ASSERT_TRUE(r.AddAttribute("a", DataType::kInt64).ok());
  Table tr(std::move(r));
  EXPECT_TRUE(tr.Insert({Value::Int(1)}).ok());
  EXPECT_TRUE(tr.Insert({Value::Int(2)}).ok());
  ASSERT_TRUE(db.AddTable(std::move(tr)).ok());

  RelationSchema s("S");
  ASSERT_TRUE(s.AddAttribute("b", DataType::kInt64).ok());
  ASSERT_TRUE(s.DeclareUnique({"b"}).ok());
  Table ts(std::move(s));
  for (int64_t v : {1, 2, 3}) EXPECT_TRUE(ts.Insert({Value::Int(v)}).ok());
  ASSERT_TRUE(db.AddTable(std::move(ts)).ok());

  InclusionDependency forward = InclusionDependency::Single("R", "a", "S", "b");
  InclusionDependency backward =
      InclusionDependency::Single("S", "b", "R", "a");
  EXPECT_TRUE(*Satisfies(db, forward));
  EXPECT_FALSE(*Satisfies(db, backward));
  EXPECT_FALSE(Satisfies(db, InclusionDependency::Single("R", "a", "Nope",
                                                         "b"))
                   .ok());

  EXPECT_TRUE(IsKeyBased(db, forward));    // S.b is unique
  EXPECT_FALSE(IsKeyBased(db, backward));  // R.a is not
}

TEST(IndTest, SortedUniqueDeduplicates) {
  std::vector<InclusionDependency> inds = {
      InclusionDependency::Single("R", "a", "S", "b"),
      InclusionDependency::Single("A", "x", "B", "y"),
      InclusionDependency::Single("R", "a", "S", "b"),
  };
  auto unique = SortedUnique(std::move(inds));
  ASSERT_EQ(unique.size(), 2u);
  EXPECT_EQ(unique[0].lhs_relation, "A");
}

}  // namespace
}  // namespace dbre
