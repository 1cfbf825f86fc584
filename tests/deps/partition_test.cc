#include "deps/partition.h"

#include <random>

#include <gtest/gtest.h>

#include "relational/algebra.h"
#include "support/table_rows.h"

namespace dbre {
namespace {

Table MakeTable(const std::vector<std::vector<int64_t>>& rows,
                size_t columns) {
  RelationSchema schema("T");
  for (size_t c = 0; c < columns; ++c) {
    EXPECT_TRUE(
        schema.AddAttribute("c" + std::to_string(c), DataType::kInt64).ok());
  }
  Table table(std::move(schema));
  for (const auto& row : rows) {
    ValueVector values;
    for (int64_t v : row) values.push_back(Value::Int(v));
    EXPECT_TRUE(table.Insert(std::move(values)).ok());
  }
  return table;
}

TEST(PartitionTest, SingleColumnGrouping) {
  Table table = MakeTable({{1}, {1}, {2}, {3}, {3}, {3}}, 1);
  auto partition = StrippedPartition::ForColumn(table, 0);
  ASSERT_TRUE(partition.ok());
  // Classes {0,1} and {3,4,5}; the singleton {2} is stripped.
  EXPECT_EQ(partition->classes().size(), 2u);
  EXPECT_EQ(partition->CoveredRows(), 5u);
  EXPECT_EQ(partition->NumClassesWithSingletons(), 3u);
  EXPECT_EQ(partition->Error(), 3u);  // 5 covered - 2 classes
}

TEST(PartitionTest, OutOfRangeColumn) {
  Table table = MakeTable({{1}}, 1);
  EXPECT_FALSE(StrippedPartition::ForColumn(table, 5).ok());
}

TEST(PartitionTest, MultiAttributePartition) {
  Table table = MakeTable({{1, 1}, {1, 1}, {1, 2}, {2, 1}}, 2);
  auto partition = StrippedPartition::ForAttributes(
      table, AttributeSet{"c0", "c1"});
  ASSERT_TRUE(partition.ok());
  EXPECT_EQ(partition->classes().size(), 1u);  // only (1,1) repeats
  EXPECT_EQ(partition->NumClassesWithSingletons(), 3u);
}

TEST(PartitionTest, IntersectEqualsDirectComputation) {
  std::mt19937_64 rng(7);
  std::vector<std::vector<int64_t>> rows;
  for (int i = 0; i < 200; ++i) {
    rows.push_back({static_cast<int64_t>(rng() % 5),
                    static_cast<int64_t>(rng() % 7)});
  }
  Table table = MakeTable(rows, 2);
  auto p0 = StrippedPartition::ForColumn(table, 0);
  auto p1 = StrippedPartition::ForColumn(table, 1);
  auto direct =
      StrippedPartition::ForAttributes(table, AttributeSet{"c0", "c1"});
  ASSERT_TRUE(p0.ok() && p1.ok() && direct.ok());
  StrippedPartition product = p0->Intersect(*p1);
  EXPECT_EQ(product.classes(), direct->classes());
  EXPECT_EQ(product.NumClassesWithSingletons(),
            direct->NumClassesWithSingletons());
}

TEST(PartitionTest, RefinesMatchesFdSemantics) {
  // c0 → c1 holds; c1 → c0 does not.
  Table table = MakeTable({{1, 10}, {1, 10}, {2, 10}, {3, 30}}, 2);
  auto p0 = StrippedPartition::ForColumn(table, 0);
  auto p1 = StrippedPartition::ForColumn(table, 1);
  ASSERT_TRUE(p0.ok() && p1.ok());
  EXPECT_TRUE(p0->Refines(*p1));   // c0 → c1
  EXPECT_FALSE(p1->Refines(*p0));  // c1 ↛ c0
}

TEST(PartitionTest, NullsGroupTogether) {
  RelationSchema schema("T");
  ASSERT_TRUE(schema.AddAttribute("a", DataType::kInt64).ok());
  ASSERT_TRUE(schema.AddAttribute("b", DataType::kInt64).ok());
  Table table(std::move(schema));
  EXPECT_TRUE(table.Insert({Value::Null(), Value::Int(1)}).ok());
  EXPECT_TRUE(table.Insert({Value::Null(), Value::Int(1)}).ok());
  EXPECT_TRUE(table.Insert({Value::Int(5), Value::Int(2)}).ok());
  auto partition = StrippedPartition::ForColumn(table, 0);
  ASSERT_TRUE(partition.ok());
  // The two NULLs form one class (NULL-as-value semantics).
  EXPECT_EQ(partition->classes().size(), 1u);
  EXPECT_EQ(partition->classes()[0].size(), 2u);
}

// Property sweep: on NULL-free random tables, the partition-based check
// agrees with the direct pairwise FD check for every column pair.
class PartitionFdAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PartitionFdAgreementTest, AgreesWithDirectCheck) {
  std::mt19937_64 rng(GetParam());
  std::vector<std::vector<int64_t>> rows;
  size_t num_rows = 50 + rng() % 150;
  for (size_t i = 0; i < num_rows; ++i) {
    rows.push_back({static_cast<int64_t>(rng() % 4),
                    static_cast<int64_t>(rng() % 6),
                    static_cast<int64_t>(rng() % 3)});
  }
  Table table = MakeTable(rows, 3);
  std::vector<StrippedPartition> partitions;
  for (size_t c = 0; c < 3; ++c) {
    partitions.push_back(*StrippedPartition::ForColumn(table, c));
  }
  const char* names[] = {"c0", "c1", "c2"};
  for (size_t x = 0; x < 3; ++x) {
    for (size_t y = 0; y < 3; ++y) {
      if (x == y) continue;
      bool via_partition = partitions[x].Refines(partitions[y]);
      bool direct = *FunctionalDependencyHolds(
          table, AttributeSet::Single(names[x]),
          AttributeSet::Single(names[y]));
      EXPECT_EQ(via_partition, direct)
          << names[x] << " -> " << names[y] << " seed=" << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionFdAgreementTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

}  // namespace
}  // namespace dbre
