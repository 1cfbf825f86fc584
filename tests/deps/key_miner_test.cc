#include "deps/key_miner.h"
#include "support/table_rows.h"

#include <random>

#include <gtest/gtest.h>

namespace dbre {
namespace {

Table MakeTable(const std::vector<std::string>& columns,
                const std::vector<std::vector<Value>>& rows) {
  RelationSchema schema("T");
  for (const std::string& column : columns) {
    EXPECT_TRUE(schema.AddAttribute(column, DataType::kInt64).ok());
  }
  Table table(std::move(schema));
  for (const auto& row : rows) EXPECT_TRUE(table.Insert(row).ok());
  return table;
}

Value V(int64_t v) { return Value::Int(v); }

TEST(KeyMinerTest, FindsSingleColumnKey) {
  Table table = MakeTable({"id", "x"}, {{V(1), V(5)},
                                        {V(2), V(5)},
                                        {V(3), V(6)}});
  auto keys = MineCandidateKeys(table);
  ASSERT_TRUE(keys.ok());
  EXPECT_EQ(*keys, std::vector<AttributeSet>{AttributeSet{"id"}});
}

TEST(KeyMinerTest, FindsCompositeKeyOnly) {
  // Neither a nor b unique; (a,b) is.
  Table table = MakeTable({"a", "b"}, {{V(1), V(1)},
                                       {V(1), V(2)},
                                       {V(2), V(1)},
                                       {V(2), V(2)}});
  auto keys = MineCandidateKeys(table);
  ASSERT_TRUE(keys.ok());
  EXPECT_EQ(*keys, std::vector<AttributeSet>{(AttributeSet{"a", "b"})});
}

TEST(KeyMinerTest, SkipsSupersetsOfKeys) {
  Table table = MakeTable({"id", "x", "y"}, {{V(1), V(1), V(1)},
                                             {V(2), V(1), V(2)},
                                             {V(3), V(2), V(1)}});
  auto keys = MineCandidateKeys(table);
  ASSERT_TRUE(keys.ok());
  // id is a key; {x, y} is also unique and minimal.
  EXPECT_EQ(*keys, (std::vector<AttributeSet>{AttributeSet{"id"},
                                              (AttributeSet{"x", "y"})}));
  // Verify no superset like {id, x} was reported.
  for (const AttributeSet& key : *keys) {
    EXPECT_LE(key.size(), 2u);
  }
}

TEST(KeyMinerTest, RespectsMaxKeySize) {
  // Only the pair is unique, but the cap forbids exploring pairs.
  Table table = MakeTable({"a", "b"}, {{V(1), V(1)},
                                       {V(1), V(2)},
                                       {V(2), V(1)}});
  KeyMinerOptions options;
  options.max_key_size = 1;
  auto keys = MineCandidateKeys(table, options);
  ASSERT_TRUE(keys.ok());
  EXPECT_TRUE(keys->empty());
}

TEST(KeyMinerTest, NullColumnsExcludedByDefault) {
  Table table = MakeTable({"id", "n"}, {{V(1), Value::Null()},
                                        {V(2), V(7)}});
  auto keys = MineCandidateKeys(table);
  ASSERT_TRUE(keys.ok());
  // n contains NULL → not a key candidate even though its non-NULL values
  // are unique.
  EXPECT_EQ(*keys, std::vector<AttributeSet>{AttributeSet{"id"}});

  KeyMinerOptions options;
  options.require_not_null = false;
  keys = MineCandidateKeys(table, options);
  ASSERT_TRUE(keys.ok());
  EXPECT_EQ(keys->size(), 2u);  // n becomes a (SQL-unique) key too
}

TEST(KeyMinerTest, DuplicateRowsHaveNoKey) {
  Table table = MakeTable({"a", "b"}, {{V(1), V(1)}, {V(1), V(1)}});
  auto keys = MineCandidateKeys(table);
  ASSERT_TRUE(keys.ok());
  EXPECT_TRUE(keys->empty());
}

TEST(KeyMinerTest, EmptyTableEveryColumnIsKey) {
  Table table = MakeTable({"a", "b"}, {});
  auto keys = MineCandidateKeys(table);
  ASSERT_TRUE(keys.ok());
  EXPECT_EQ(keys->size(), 2u);  // vacuous uniqueness, minimal singletons
}

TEST(KeyMinerTest, StatsCountChecks) {
  Table table = MakeTable({"id", "x"}, {{V(1), V(5)}, {V(2), V(5)}});
  KeyMinerStats stats;
  auto keys = MineCandidateKeys(table, {}, &stats);
  ASSERT_TRUE(keys.ok());
  EXPECT_GT(stats.combinations_checked, 0u);
  EXPECT_EQ(stats.discovered, keys->size());
}

// Property: every reported key is unique in the data, no proper subset of
// a reported key is unique, and (within the size cap) every minimal unique
// set is reported.
class KeyMinerPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KeyMinerPropertyTest, SoundMinimalComplete) {
  std::mt19937_64 rng(GetParam());
  std::vector<std::vector<Value>> rows;
  size_t num_rows = 40 + rng() % 60;
  for (size_t i = 0; i < num_rows; ++i) {
    rows.push_back({V(static_cast<int64_t>(i)),  // unique id column
                    V(static_cast<int64_t>(rng() % 6)),
                    V(static_cast<int64_t>(rng() % 8))});
  }
  Table table = MakeTable({"id", "u", "v"}, rows);
  KeyMinerOptions options;
  options.max_key_size = 3;
  auto keys = MineCandidateKeys(table, options);
  ASSERT_TRUE(keys.ok());

  auto unique_in_data = [&](const AttributeSet& attrs) {
    auto count = table.DistinctCount(attrs);
    return count.ok() && *count == table.num_rows();
  };
  // id must always be found.
  EXPECT_NE(std::find(keys->begin(), keys->end(), AttributeSet{"id"}),
            keys->end());
  for (const AttributeSet& key : *keys) {
    EXPECT_TRUE(unique_in_data(key)) << key.ToString();
    for (const std::string& name : key.names()) {
      AttributeSet subset = key;
      subset.Remove(name);
      if (!subset.empty()) {
        EXPECT_FALSE(unique_in_data(subset))
            << key.ToString() << " not minimal";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KeyMinerPropertyTest,
                         ::testing::Range<uint64_t>(200, 210));

}  // namespace
}  // namespace dbre
