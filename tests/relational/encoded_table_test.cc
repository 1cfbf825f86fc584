// The dictionary-encoded engine must be indistinguishable from the naive
// row-at-a-time reference: unit tests pin the encoding itself, and
// property-style crosschecks drive both families over generated workloads
// with NULLs, duplicates and composite keys.
#include "relational/encoded_table.h"

#include <random>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "relational/algebra.h"
#include "relational/database.h"
#include "relational/query_cache.h"
#include "relational/table.h"
#include "relational/csv.h"
#include "support/naive_algebra.h"
#include "support/table_rows.h"

namespace dbre {
namespace {

Table MakeTable(const std::vector<ValueVector>& rows) {
  RelationSchema schema("T");
  EXPECT_TRUE(schema.AddAttribute("a", DataType::kInt64).ok());
  EXPECT_TRUE(schema.AddAttribute("b", DataType::kString).ok());
  EXPECT_TRUE(schema.AddAttribute("c", DataType::kInt64).ok());
  Table table(std::move(schema));
  for (const ValueVector& row : rows) EXPECT_TRUE(table.Insert(row).ok());
  return table;
}

TEST(EncodedTableTest, CodesAreDenseAndNullAware) {
  Table table = MakeTable({
      {Value::Int(7), Value::Text("x"), Value::Null()},
      {Value::Int(7), Value::Text("y"), Value::Int(1)},
      {Value::Int(9), Value::Text("x"), Value::Int(1)},
  });
  const EncodedTable* encoded = &table.extension();
  EXPECT_EQ(encoded->num_rows(), 3u);
  EXPECT_EQ(encoded->num_columns(), 3u);
  // Column a: 7 → 0 (first appearance), 9 → 1.
  EXPECT_EQ(encoded->codes(0), (std::vector<uint32_t>{0, 0, 1}));
  EXPECT_EQ(encoded->dict_size(0), 2u);
  EXPECT_FALSE(encoded->has_null(0));
  // Column b: "x" → 0, "y" → 1.
  EXPECT_EQ(encoded->codes(1), (std::vector<uint32_t>{0, 1, 0}));
  // Column c: NULL sentinel, then 1 → 0.
  EXPECT_EQ(encoded->codes(2)[0], EncodedTable::kNullCode);
  EXPECT_EQ(encoded->codes(2)[1], 0u);
  EXPECT_TRUE(encoded->has_null(2));
  // Decoding round-trips.
  EXPECT_EQ(encoded->Decode(0, 1), Value::Int(9));
  ValueVector row;
  encoded->row_reader({2, 0}).Read(0, &row);
  EXPECT_EQ(row, (ValueVector{Value::Null(), Value::Int(7)}));
}

TEST(EncodedTableTest, ApproximateBytesCountsEveryPart) {
  RelationSchema schema("T");
  ASSERT_TRUE(schema.AddAttribute("a", DataType::kInt64).ok());
  ASSERT_TRUE(schema.AddAttribute("b", DataType::kString).ok());
  Table table(std::move(schema));
  ASSERT_TRUE(LoadCsvText("a,b\n1,x\n2,a string well past the inline buffer\n"
                          "1,x\n",
                          &table)
                  .ok());
  const auto parts = [&table] {
    size_t bytes = 0;
    for (size_t c = 0; c < 2; ++c) {
      const std::vector<Value>& dictionary = table.extension().dictionary(c);
      bytes += table.extension().codes(c).capacity() * sizeof(uint32_t) +
               dictionary.capacity() * sizeof(Value);
      for (const Value& value : dictionary) {
        if (value.is_text()) bytes += value.as_text().capacity();
      }
    }
    return bytes;
  };
  // CSV ingest drops its append indexes: codes, Values and payloads only.
  EXPECT_EQ(table.ApproximateBytes(), parts());
  // An Insert builds one index per column: 16 slots of an 8-byte key and a
  // 4-byte code while a dictionary holds at most 10 entries.
  ASSERT_TRUE(table.Insert({Value::Int(3), Value::Text("y")}).ok());
  EXPECT_EQ(table.ApproximateBytes(),
            parts() + 2 * 16 * (sizeof(uint64_t) + sizeof(uint32_t)));
}

TEST(EncodedTableTest, AdoptColumnAcceptsOnlyFirstAppearanceCodes) {
  constexpr uint32_t kNull = EncodedTable::kNullCode;
  const std::vector<Value> dictionary = {Value::Int(7), Value::Int(9)};
  EncodedTable encoded({DataType::kInt64});
  EXPECT_EQ(encoded.AdoptColumn(0, dictionary, {0, 2}).message(),
            "out-of-range code");
  EXPECT_EQ(encoded.AdoptColumn(0, dictionary, {1, 0}).message(),
            "codes out of first-appearance order");
  EXPECT_EQ(encoded.AdoptColumn(0, dictionary, {0, kNull, 0}).message(),
            "unused dictionary entries");
  EXPECT_EQ(encoded.num_rows(), 0u);
  EXPECT_TRUE(encoded.codes(0).empty());

  ASSERT_TRUE(encoded.AdoptColumn(0, dictionary, {0, kNull, 1, 0}).ok());
  encoded.CommitAppendedRows(4);
  EXPECT_EQ(encoded.codes(0), (std::vector<uint32_t>{0, kNull, 1, 0}));
  EXPECT_TRUE(encoded.has_null(0));
  EXPECT_EQ(encoded.dict_size(0), 2u);
  EXPECT_EQ(encoded.Decode(0, 1), Value::Int(9));
}

TEST(EncodedTableTest, ReencodingIsDeterministic) {
  Table table = MakeTable({
      {Value::Int(1), Value::Text("p"), Value::Int(3)},
      {Value::Int(2), Value::Text("q"), Value::Null()},
      {Value::Int(1), Value::Text("p"), Value::Int(3)},
  });
  // Re-encoding the decoded rows from scratch yields the same codes.
  Table reencoded = MakeTable(Rows(table));
  const EncodedTable* first = &table.extension();
  const EncodedTable* second = &reencoded.extension();
  for (size_t c = 0; c < first->num_columns(); ++c) {
    EXPECT_EQ(first->codes(c), second->codes(c));
  }
}

TEST(QueryCacheTest, PartitionGroupsMatchSemantics) {
  Table table = MakeTable({
      {Value::Int(1), Value::Text("x"), Value::Int(1)},
      {Value::Int(1), Value::Text("y"), Value::Int(2)},
      {Value::Null(), Value::Text("z"), Value::Int(3)},
      {Value::Int(2), Value::Text("x"), Value::Int(4)},
  });
  auto cache = table.query_cache();
  ASSERT_TRUE(cache.ok());
  auto skip = (*cache)->Partition({0}, NullPolicy::kSkipNullRows);
  EXPECT_EQ(skip->num_groups(), 2u);
  EXPECT_EQ(skip->included_rows, 3u);
  EXPECT_EQ(skip->group_of_row[2], CodePartition::kSkipped);
  auto keep = (*cache)->Partition({0}, NullPolicy::kNullAsValue);
  EXPECT_EQ(keep->num_groups(), 3u);
  EXPECT_EQ(keep->included_rows, 4u);
  // Memoization returns the identical object.
  EXPECT_EQ(skip.get(),
            (*cache)->Partition({0}, NullPolicy::kSkipNullRows).get());
}

TEST(QueryCacheTest, MutationDropsTheCache) {
  Table table = MakeTable({{Value::Int(1), Value::Text("x"), Value::Int(1)}});
  auto count = table.DistinctCount(AttributeSet{"a"});
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 1u);
  EXPECT_TRUE(
      table.Insert({Value::Int(2), Value::Text("y"), Value::Int(2)}).ok());
  count = table.DistinctCount(AttributeSet{"a"});
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 2u);
  ASSERT_TRUE(table.Insert({Value::Int(3), Value::Text("z"), Value::Int(3)})
                  .ok());
  count = table.DistinctCount(AttributeSet{"a"});
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 3u);
  ASSERT_TRUE(table.DropAttributes(AttributeSet{"a"}).ok());
  auto b_count = table.DistinctCount(AttributeSet{"b"});
  ASSERT_TRUE(b_count.ok());
  EXPECT_EQ(*b_count, 3u);
}

TEST(QueryCacheTest, CopiedTableDetachesOnMutation) {
  Table table = MakeTable({{Value::Int(1), Value::Text("x"), Value::Int(1)}});
  ASSERT_TRUE(table.DistinctCount(AttributeSet{"a"}).ok());  // warm cache
  Table copy = table;
  EXPECT_TRUE(
      copy.Insert({Value::Int(2), Value::Text("y"), Value::Int(2)}).ok());
  auto original = table.DistinctCount(AttributeSet{"a"});
  auto mutated = copy.DistinctCount(AttributeSet{"a"});
  ASSERT_TRUE(original.ok() && mutated.ok());
  EXPECT_EQ(*original, 1u);
  EXPECT_EQ(*mutated, 2u);
}

// ---------------------------------------------------------------------------
// Property crosschecks: encoded vs naive on random workloads.

// A random table over (int, string, int, int) with heavy duplication and a
// NULL rate, so composite groups, NULL sub-rows and repeated values all
// occur.
Table RandomTable(std::mt19937_64& rng, size_t rows, double null_rate) {
  RelationSchema schema("R");
  EXPECT_TRUE(schema.AddAttribute("a", DataType::kInt64).ok());
  EXPECT_TRUE(schema.AddAttribute("b", DataType::kString).ok());
  EXPECT_TRUE(schema.AddAttribute("c", DataType::kInt64).ok());
  EXPECT_TRUE(schema.AddAttribute("d", DataType::kInt64).ok());
  Table table(std::move(schema));
  auto maybe_null = [&](Value v) {
    return (rng() % 1000) < null_rate * 1000 ? Value::Null() : v;
  };
  const char* words[] = {"red", "green", "blue", "cyan"};
  for (size_t i = 0; i < rows; ++i) {
    int64_t a = static_cast<int64_t>(rng() % 7);
    EXPECT_TRUE(table.Insert({
        maybe_null(Value::Int(a)),
        maybe_null(Value::Text(words[rng() % 4])),
        maybe_null(Value::Int(a * 3 % 5)),  // often determined by a
        maybe_null(Value::Int(static_cast<int64_t>(rng() % 11))),
    }).ok());
  }
  return table;
}

TEST(EncodedVsNaiveTest, DistinctProjectionsAgree) {
  std::mt19937_64 rng(7);
  const std::vector<std::vector<std::string>> projections = {
      {"a"}, {"b"}, {"a", "b"}, {"b", "a"}, {"a", "b", "c"}, {"d", "c"}};
  for (int trial = 0; trial < 10; ++trial) {
    Table table = RandomTable(rng, 200, trial % 2 == 0 ? 0.0 : 0.15);
    for (const auto& attrs : projections) {
      auto fast = OrderedDistinctProjection(table, attrs);
      auto slow = naive::OrderedDistinctProjection(table, attrs);
      ASSERT_TRUE(fast.ok() && slow.ok());
      EXPECT_EQ(*fast, *slow) << "projection diverged on trial " << trial;
    }
  }
}

TEST(EncodedVsNaiveTest, FdChecksAgree) {
  std::mt19937_64 rng(11);
  const std::vector<std::pair<AttributeSet, AttributeSet>> fds = {
      {AttributeSet{"a"}, AttributeSet{"c"}},
      {AttributeSet{"a"}, AttributeSet{"d"}},
      {AttributeSet{"a", "b"}, AttributeSet{"c"}},
      {AttributeSet{"a", "b", "d"}, AttributeSet{"c"}},
      {AttributeSet{"b"}, AttributeSet{"a", "c"}},
      {AttributeSet{"d"}, AttributeSet{"b"}},
  };
  for (int trial = 0; trial < 10; ++trial) {
    Table table = RandomTable(rng, 150, trial % 2 == 0 ? 0.0 : 0.2);
    for (const auto& [lhs, rhs] : fds) {
      auto fast = FunctionalDependencyHolds(table, lhs, rhs);
      auto slow = naive::FunctionalDependencyHolds(table, lhs, rhs);
      ASSERT_TRUE(fast.ok() && slow.ok());
      EXPECT_EQ(*fast, *slow)
          << lhs.ToString() << " -> " << rhs.ToString() << " trial " << trial;
      auto fast_error = FunctionalDependencyError(table, lhs, rhs);
      auto slow_error = naive::FunctionalDependencyError(table, lhs, rhs);
      ASSERT_TRUE(fast_error.ok() && slow_error.ok());
      EXPECT_DOUBLE_EQ(*fast_error, *slow_error)
          << lhs.ToString() << " -> " << rhs.ToString() << " trial " << trial;
    }
  }
}

TEST(EncodedVsNaiveTest, JoinCountsAndInclusionsAgree) {
  std::mt19937_64 rng(13);
  for (int trial = 0; trial < 8; ++trial) {
    Database database;
    ASSERT_TRUE(
        database.AddTable(RandomTable(rng, 120, trial % 2 ? 0.1 : 0.0)).ok());
    Table second = RandomTable(rng, 80, trial % 2 ? 0.1 : 0.0);
    second.mutable_schema().set_name("S");
    ASSERT_TRUE(database.AddTable(std::move(second)).ok());

    const std::vector<EquiJoin> joins = {
        EquiJoin::Single("R", "a", "S", "a"),
        EquiJoin::Single("R", "b", "S", "b"),
        {"R", {"a", "b"}, "S", {"a", "b"}},
        {"R", {"c", "d"}, "S", {"d", "c"}},
    };
    for (const EquiJoin& join : joins) {
      auto fast = ComputeJoinCounts(database, join);
      auto slow = naive::ComputeJoinCounts(database, join);
      ASSERT_TRUE(fast.ok() && slow.ok());
      EXPECT_EQ(fast->n_left, slow->n_left);
      EXPECT_EQ(fast->n_right, slow->n_right);
      EXPECT_EQ(fast->n_join, slow->n_join);

      auto fast_inc =
          InclusionHolds(database, join.left_relation, join.left_attributes,
                         join.right_relation, join.right_attributes);
      auto slow_inc = naive::InclusionHolds(
          database, join.left_relation, join.left_attributes,
          join.right_relation, join.right_attributes);
      ASSERT_TRUE(fast_inc.ok() && slow_inc.ok());
      EXPECT_EQ(*fast_inc, *slow_inc);
    }
  }
}

// Adversarial catalog for the exact prunes (the cardinality refutes in
// InclusionHolds, the FD prunes in QueryCache::FdHolds):
// Emp(no, dep, grade), where dep references Dept.dep except for strays
// 40..43 and grade is NULL-heavy; Dept(dep, name, site) with repeated
// names and a constant site.
Database MakeAdversarialDatabase(uint64_t seed, size_t rows) {
  std::mt19937_64 rng(seed);
  Database db;
  {
    RelationSchema schema("Dept");
    EXPECT_TRUE(schema.AddAttribute("dep", DataType::kInt64).ok());
    EXPECT_TRUE(schema.AddAttribute("name", DataType::kString).ok());
    EXPECT_TRUE(schema.AddAttribute("site", DataType::kString).ok());
    Table table(std::move(schema));
    for (int d = 0; d < 40; ++d) {
      EXPECT_TRUE(table.Insert({Value::Int(d),
                                Value::Text("d" + std::to_string(d % 7)),
                                Value::Text("hq")}).ok());
    }
    EXPECT_TRUE(db.AddTable(std::move(table)).ok());
  }
  {
    RelationSchema schema("Emp");
    EXPECT_TRUE(schema.AddAttribute("no", DataType::kInt64).ok());
    EXPECT_TRUE(schema.AddAttribute("dep", DataType::kInt64).ok());
    EXPECT_TRUE(schema.AddAttribute("grade", DataType::kInt64).ok());
    Table table(std::move(schema));
    for (size_t i = 0; i < rows; ++i) {
      int64_t dep = static_cast<int64_t>(rng() % 44);  // 40..43 are strays
      Value grade = rng() % 3 == 0 ? Value::Null()
                                   : Value::Int(static_cast<int64_t>(rng() % 5));
      EXPECT_TRUE(table.Insert(
          {Value::Int(static_cast<int64_t>(i)), Value::Int(dep), grade}).ok());
    }
    EXPECT_TRUE(db.AddTable(std::move(table)).ok());
  }
  return db;
}

TEST(EncodedVsNaiveTest, AdversarialProbesMatchReference) {
  Database db = MakeAdversarialDatabase(17, 500);
  std::vector<EquiJoin> joins;
  for (const auto& [lr, la, rr, ra] :
       std::vector<std::tuple<std::string, std::string, std::string,
                              std::string>>{
           {"Emp", "dep", "Dept", "dep"},  {"Dept", "dep", "Emp", "dep"},
           {"Emp", "no", "Emp", "dep"},    {"Emp", "grade", "Dept", "dep"},
           {"Dept", "name", "Dept", "name"},
       }) {
    joins.push_back(EquiJoin::Single(lr, la, rr, ra));
  }
  // Multi-attribute, both directions.
  joins.push_back({"Emp", {"dep", "grade"}, "Dept", {"dep", "dep"}});
  joins.push_back({"Dept", {"dep", "dep"}, "Emp", {"dep", "grade"}});
  for (const EquiJoin& join : joins) {
    const std::string label = join.left_relation + "[" +
                              join.left_attributes[0] + "...] vs " +
                              join.right_relation;
    auto fast_inc =
        InclusionHolds(db, join.left_relation, join.left_attributes,
                       join.right_relation, join.right_attributes);
    auto slow_inc =
        naive::InclusionHolds(db, join.left_relation, join.left_attributes,
                              join.right_relation, join.right_attributes);
    ASSERT_TRUE(fast_inc.ok() && slow_inc.ok()) << label;
    EXPECT_EQ(*fast_inc, *slow_inc) << label;

    // A self-pairing (Dept.name with itself) is an inclusion probe but
    // not a join: both implementations must refuse it alike.
    auto fast = ComputeJoinCounts(db, join);
    auto slow = naive::ComputeJoinCounts(db, join);
    ASSERT_EQ(fast.ok(), slow.ok()) << label;
    if (!fast.ok()) {
      EXPECT_EQ(fast.status(), slow.status()) << label;
      continue;
    }
    EXPECT_EQ(fast->n_left, slow->n_left) << label;
    EXPECT_EQ(fast->n_right, slow->n_right) << label;
    EXPECT_EQ(fast->n_join, slow->n_join) << label;
  }

  // FD checks through each prune: a unique LHS, a constant RHS, a NULL-free
  // LHS with fewer classes than its RHS, and the refinement pass with and
  // without NULLs on the left.
  const Table* emp = *db.GetTable("Emp");
  const Table* dept = *db.GetTable("Dept");
  const std::vector<std::tuple<const Table*, AttributeSet, AttributeSet>>
      fds = {
          {emp, AttributeSet{"no"}, AttributeSet{"dep"}},
          {dept, AttributeSet{"dep"}, AttributeSet{"name"}},
          {dept, AttributeSet{"name"}, AttributeSet{"site"}},
          {dept, AttributeSet{"name"}, AttributeSet{"dep"}},
          {emp, AttributeSet{"dep"}, AttributeSet{"grade"}},
          {emp, AttributeSet{"grade"}, AttributeSet{"dep"}},
          {emp, AttributeSet{"dep", "grade"}, AttributeSet{"no"}},
      };
  for (const auto& [table, lhs, rhs] : fds) {
    auto fast = FunctionalDependencyHolds(*table, lhs, rhs);
    auto slow = naive::FunctionalDependencyHolds(*table, lhs, rhs);
    ASSERT_TRUE(fast.ok() && slow.ok());
    EXPECT_EQ(*fast, *slow) << table->schema().name() << ": "
                            << lhs.ToString() << " -> " << rhs.ToString();
  }
}

TEST(EncodedVsNaiveTest, ErrorPathsMatch) {
  Table table = MakeTable({{Value::Int(1), Value::Text("x"), Value::Int(1)}});
  auto fast = OrderedDistinctProjection(table, {});
  auto slow = naive::OrderedDistinctProjection(table, {});
  EXPECT_FALSE(fast.ok());
  EXPECT_EQ(fast.status(), slow.status());
  auto fast_missing = OrderedDistinctProjection(table, {"nope"});
  auto slow_missing = naive::OrderedDistinctProjection(table, {"nope"});
  EXPECT_FALSE(fast_missing.ok());
  EXPECT_EQ(fast_missing.status(), slow_missing.status());
  auto fast_fd = FunctionalDependencyHolds(table, AttributeSet{},
                                           AttributeSet{"a"});
  EXPECT_FALSE(fast_fd.ok());
  EXPECT_EQ(fast_fd.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace dbre
