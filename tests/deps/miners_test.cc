#include <limits>
#include <map>
#include <random>

#include <gtest/gtest.h>

#include "deps/fd_miner.h"
#include "deps/ind.h"
#include "deps/ind_miner.h"
#include "relational/algebra.h"
#include "relational/query_cache.h"
#include "support/table_rows.h"

namespace dbre {
namespace {

Table MakeTable(const std::string& name,
                const std::vector<std::string>& columns,
                const std::vector<std::vector<int64_t>>& rows) {
  RelationSchema schema(name);
  for (const std::string& column : columns) {
    EXPECT_TRUE(schema.AddAttribute(column, DataType::kInt64).ok());
  }
  Table table(std::move(schema));
  for (const auto& row : rows) {
    ValueVector values;
    for (int64_t v : row) values.push_back(Value::Int(v));
    EXPECT_TRUE(table.Insert(std::move(values)).ok());
  }
  return table;
}

TEST(FdMinerTest, FindsPlantedFd) {
  // b = a % 3 → a → b holds; nothing else deterministic.
  std::vector<std::vector<int64_t>> rows;
  for (int64_t a = 0; a < 60; ++a) rows.push_back({a, a % 3, (a * 17) % 7});
  Table table = MakeTable("T", {"a", "b", "c"}, rows);
  auto fds = MineFds(table);
  ASSERT_TRUE(fds.ok());
  // a is a key (all values distinct), so a→b, a→c are found at level 1.
  EXPECT_NE(std::find(fds->begin(), fds->end(),
                      FunctionalDependency("T", AttributeSet{"a"},
                                           AttributeSet{"b"})),
            fds->end());
  EXPECT_NE(std::find(fds->begin(), fds->end(),
                      FunctionalDependency("T", AttributeSet{"a"},
                                           AttributeSet{"c"})),
            fds->end());
}

TEST(FdMinerTest, FindsCompositeLhsFd) {
  // c = (a + b) — determined only by {a, b} jointly.
  std::vector<std::vector<int64_t>> rows;
  for (int64_t a = 0; a < 8; ++a) {
    for (int64_t b = 0; b < 8; ++b) rows.push_back({a, b, a + b});
  }
  Table table = MakeTable("T", {"a", "b", "c"}, rows);
  auto fds = MineFds(table);
  ASSERT_TRUE(fds.ok());
  EXPECT_NE(std::find(fds->begin(), fds->end(),
                      FunctionalDependency("T", AttributeSet{"a", "b"},
                                           AttributeSet{"c"})),
            fds->end());
  // Neither a→c nor b→c individually.
  EXPECT_EQ(std::find(fds->begin(), fds->end(),
                      FunctionalDependency("T", AttributeSet{"a"},
                                           AttributeSet{"c"})),
            fds->end());
}

TEST(FdMinerTest, ReportsOnlyMinimalFds) {
  std::vector<std::vector<int64_t>> rows;
  for (int64_t a = 0; a < 40; ++a) rows.push_back({a, a % 5, a % 2});
  Table table = MakeTable("T", {"a", "b", "c"}, rows);
  auto fds = MineFds(table);
  ASSERT_TRUE(fds.ok());
  // a→b minimal, so {a,c}→b must not be reported.
  for (const FunctionalDependency& fd : *fds) {
    EXPECT_FALSE(fd.lhs == (AttributeSet{"a", "c"}) &&
                 fd.rhs == AttributeSet{"b"})
        << fd.ToString();
  }
}

TEST(FdMinerTest, RespectsMaxLhsSize) {
  std::vector<std::vector<int64_t>> rows;
  for (int64_t a = 0; a < 6; ++a) {
    for (int64_t b = 0; b < 6; ++b) rows.push_back({a, b, a + b});
  }
  Table table = MakeTable("T", {"a", "b", "c"}, rows);
  FdMinerOptions options;
  options.max_lhs_size = 1;
  auto fds = MineFds(table, options);
  ASSERT_TRUE(fds.ok());
  for (const FunctionalDependency& fd : *fds) {
    EXPECT_EQ(fd.lhs.size(), 1u);
  }
}

TEST(FdMinerTest, StatsAreReported) {
  std::vector<std::vector<int64_t>> rows;
  for (int64_t a = 0; a < 20; ++a) rows.push_back({a, a % 3});
  Table table = MakeTable("T", {"a", "b"}, rows);
  FdMinerStats stats;
  auto fds = MineFds(table, {}, &stats);
  ASSERT_TRUE(fds.ok());
  EXPECT_GT(stats.candidates_checked, 0u);
  EXPECT_EQ(stats.partitions_built, 2u);
  EXPECT_EQ(stats.discovered, fds->size());
}

TEST(FdMinerTest, TinyTablesHandled) {
  Table empty = MakeTable("T", {"a", "b"}, {});
  auto fds = MineFds(empty);
  ASSERT_TRUE(fds.ok());  // everything holds vacuously
  EXPECT_EQ(fds->size(), 2u);
  Table single = MakeTable("S", {"a"}, {{1}});
  EXPECT_TRUE(MineFds(single)->empty());
}

// Property: every mined FD actually holds, and every non-mined level-1 FD
// actually fails (completeness at level 1).
class FdMinerPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FdMinerPropertyTest, SoundAndCompleteAtLevelOne) {
  std::mt19937_64 rng(GetParam());
  std::vector<std::vector<int64_t>> rows;
  size_t num_rows = 30 + rng() % 100;
  for (size_t i = 0; i < num_rows; ++i) {
    int64_t a = static_cast<int64_t>(rng() % 6);
    rows.push_back({a, a % 3 /* planted a→b */,
                    static_cast<int64_t>(rng() % 4)});
  }
  Table table = MakeTable("T", {"a", "b", "c"}, rows);
  auto fds = MineFds(table);
  ASSERT_TRUE(fds.ok());
  // Soundness (NULL-free data, so both check semantics agree).
  for (const FunctionalDependency& fd : *fds) {
    EXPECT_TRUE(*FunctionalDependencyHolds(table, fd.lhs, fd.rhs))
        << fd.ToString() << " seed=" << GetParam();
  }
  // Planted FD recovered.
  EXPECT_NE(std::find(fds->begin(), fds->end(),
                      FunctionalDependency("T", AttributeSet{"a"},
                                           AttributeSet{"b"})),
            fds->end());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FdMinerPropertyTest,
                         ::testing::Range<uint64_t>(100, 110));

// --- The partitions MineFds compares ---------------------------------------
// π_X under NULL-as-value, as the table's query cache memoizes it, read
// the TANE way: stripped classes (two or more rows), the rows they cover,
// and |π_X| counting singletons.

std::shared_ptr<const CodePartition> NullAsValuePartition(
    const Table& table, const std::vector<size_t>& columns) {
  auto cache = table.query_cache();
  EXPECT_TRUE(cache.ok()) << cache.status().ToString();
  return (*cache)->Partition(columns, NullPolicy::kNullAsValue);
}

struct StrippedClasses {
  size_t classes = 0;  // groups of two or more rows
  size_t covered = 0;  // rows in those groups
};

StrippedClasses Strip(const CodePartition& partition) {
  std::vector<size_t> sizes(partition.num_groups(), 0);
  for (uint32_t group : partition.group_of_row) ++sizes[group];
  StrippedClasses stripped;
  for (size_t size : sizes) {
    if (size < 2) continue;
    ++stripped.classes;
    stripped.covered += size;
  }
  return stripped;
}

TEST(PartitionTest, SingleColumnGrouping) {
  Table table = MakeTable("T", {"c0"}, {{1}, {1}, {2}, {3}, {3}, {3}});
  auto partition = NullAsValuePartition(table, {0});
  StrippedClasses stripped = Strip(*partition);
  // Classes {0,1} and {3,4,5}; the singleton {2} is stripped.
  EXPECT_EQ(stripped.classes, 2u);
  EXPECT_EQ(stripped.covered, 5u);
  EXPECT_EQ(partition->num_groups(), 3u);
  EXPECT_EQ(stripped.covered - stripped.classes, 3u);  // TANE error
}

TEST(PartitionTest, MultiAttributePartition) {
  Table table =
      MakeTable("T", {"c0", "c1"}, {{1, 1}, {1, 1}, {1, 2}, {2, 1}});
  auto partition = NullAsValuePartition(table, {0, 1});
  EXPECT_EQ(Strip(*partition).classes, 1u);  // only (1,1) repeats
  EXPECT_EQ(partition->num_groups(), 3u);
}

TEST(PartitionTest, IntersectEqualsDirectComputation) {
  std::mt19937_64 rng(7);
  std::vector<std::vector<int64_t>> rows;
  for (int i = 0; i < 200; ++i) {
    rows.push_back({static_cast<int64_t>(rng() % 5),
                    static_cast<int64_t>(rng() % 7)});
  }
  Table table = MakeTable("T", {"c0", "c1"}, rows);
  auto p0 = NullAsValuePartition(table, {0});
  auto p1 = NullAsValuePartition(table, {1});
  auto direct = NullAsValuePartition(table, {0, 1});
  // The product π_c0 ∩ π_c1 and the direct π_{c0,c1} put the same rows
  // together: each (c0 group, c1 group) pair is exactly one direct group.
  std::map<std::pair<uint32_t, uint32_t>, uint32_t> product;
  for (size_t row = 0; row < rows.size(); ++row) {
    auto [it, fresh] = product.emplace(
        std::make_pair(p0->group_of_row[row], p1->group_of_row[row]),
        direct->group_of_row[row]);
    EXPECT_EQ(it->second, direct->group_of_row[row]) << "row " << row;
  }
  EXPECT_EQ(product.size(), direct->num_groups());
}

TEST(PartitionTest, RefinesMatchesFdSemantics) {
  // c0 → c1 holds; c1 → c0 does not.
  Table table =
      MakeTable("T", {"c0", "c1"}, {{1, 10}, {1, 10}, {2, 10}, {3, 30}});
  const size_t both = NullAsValuePartition(table, {0, 1})->num_groups();
  EXPECT_EQ(NullAsValuePartition(table, {0})->num_groups(), both);  // c0 → c1
  EXPECT_NE(NullAsValuePartition(table, {1})->num_groups(), both);  // c1 ↛ c0
}

TEST(PartitionTest, NullsGroupTogether) {
  RelationSchema schema("T");
  ASSERT_TRUE(schema.AddAttribute("a", DataType::kInt64).ok());
  ASSERT_TRUE(schema.AddAttribute("b", DataType::kInt64).ok());
  Table table(std::move(schema));
  EXPECT_TRUE(table.Insert({Value::Null(), Value::Int(1)}).ok());
  EXPECT_TRUE(table.Insert({Value::Null(), Value::Int(1)}).ok());
  EXPECT_TRUE(table.Insert({Value::Int(5), Value::Int(2)}).ok());
  StrippedClasses stripped = Strip(*NullAsValuePartition(table, {0}));
  // The two NULLs form one class (NULL-as-value semantics).
  EXPECT_EQ(stripped.classes, 1u);
  EXPECT_EQ(stripped.covered, 2u);
}

// --- MineFds against a brute-force reference ------------------------------
// X → a holds iff X and X ∪ {a} project to equally many distinct decoded
// tuples, NULL counting as a value (Value equality keeps each NaN its own
// value and 0.0 == -0.0, as the dictionary codes do). The reference lists
// every such FD whose non-empty LHS has at most three attributes and no
// proper non-empty subset that also determines a.

Table MixedTable(uint64_t seed) {
  std::mt19937_64 rng(seed);
  RelationSchema schema("M");
  EXPECT_TRUE(schema.AddAttribute("c0", DataType::kInt64).ok());
  EXPECT_TRUE(schema.AddAttribute("c1", DataType::kDouble).ok());
  EXPECT_TRUE(schema.AddAttribute("c2", DataType::kInt64).ok());
  EXPECT_TRUE(schema.AddAttribute("c3", DataType::kString).ok());
  EXPECT_TRUE(schema.AddAttribute("c4", DataType::kDouble).ok());
  Table table(std::move(schema));
  const double doubles[] = {0.0, -0.0, 1.5, -2.0,
                            std::numeric_limits<double>::quiet_NaN()};
  const char* words[] = {"x", "y", "z"};
  const size_t rows = 20 + rng() % 60;
  for (size_t i = 0; i < rows; ++i) {
    Value c0 = rng() % 6 == 0 ? Value::Null()
                              : Value::Int(static_cast<int64_t>(rng() % 4));
    Value c1 = rng() % 7 == 0 ? Value::Null() : Value::Real(doubles[rng() % 5]);
    // c0 → c2, NULL included.
    Value c2 = Value::Int(c0.is_null() ? 9 : c0.as_int() % 2);
    const size_t word = rng() % 3;
    Value c3 = rng() % 5 == 0 ? Value::Null() : Value::Text(words[word]);
    // {c0, c3} → c4, with ±0.0 wherever either side is NULL.
    Value c4 = c0.is_null() || c3.is_null()
                   ? Value::Real(rng() % 2 == 0 ? 0.0 : -0.0)
                   : Value::Real(static_cast<double>(c0.as_int()) * 0.5 +
                                 static_cast<double>(word));
    EXPECT_TRUE(table.Insert({c0, c1, c2, c3, c4}).ok());
  }
  return table;
}

std::vector<FunctionalDependency> BruteForceMinimalFds(const Table& table,
                                                       size_t max_lhs) {
  const std::vector<ValueVector> rows = Rows(table);
  const size_t arity = table.schema().arity();
  auto distinct = [&rows](const std::vector<size_t>& columns) {
    ValueVectorSet tuples;
    for (const ValueVector& row : rows) tuples.insert(ProjectRow(row, columns));
    return tuples.size();
  };
  auto holds = [&](const std::vector<size_t>& lhs, size_t a) {
    std::vector<size_t> with = lhs;
    with.push_back(a);
    return distinct(lhs) == distinct(with);
  };
  auto names = [&](const std::vector<size_t>& columns) {
    AttributeSet set;
    for (size_t c : columns) set.Insert(table.schema().attributes()[c].name);
    return set;
  };
  std::vector<FunctionalDependency> fds;
  for (uint32_t mask = 1; mask < (1u << arity); ++mask) {
    std::vector<size_t> lhs;
    for (size_t c = 0; c < arity; ++c) {
      if (mask & (1u << c)) lhs.push_back(c);
    }
    if (lhs.size() > max_lhs) continue;
    for (size_t a = 0; a < arity; ++a) {
      if ((mask & (1u << a)) || !holds(lhs, a)) continue;
      bool minimal = true;
      for (uint32_t sub = (mask - 1) & mask; sub != 0 && minimal;
           sub = (sub - 1) & mask) {
        std::vector<size_t> subset;
        for (size_t c = 0; c < arity; ++c) {
          if (sub & (1u << c)) subset.push_back(c);
        }
        if (holds(subset, a)) minimal = false;
      }
      if (minimal) {
        fds.emplace_back(table.schema().name(), names(lhs),
                         AttributeSet::Single(
                             table.schema().attributes()[a].name));
      }
    }
  }
  std::sort(fds.begin(), fds.end());
  return fds;
}

class PartitionFdAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PartitionFdAgreementTest, AgreesWithDirectCheck) {
  Table table = MixedTable(GetParam());
  FdMinerOptions options;
  options.max_lhs_size = 3;
  auto mined = MineFds(table, options);
  ASSERT_TRUE(mined.ok()) << mined.status().ToString();
  const std::vector<FunctionalDependency> expected =
      BruteForceMinimalFds(table, options.max_lhs_size);
  std::vector<std::string> mined_text, expected_text;
  for (const FunctionalDependency& fd : *mined) {
    mined_text.push_back(fd.ToString());
  }
  for (const FunctionalDependency& fd : expected) {
    expected_text.push_back(fd.ToString());
  }
  EXPECT_EQ(mined_text, expected_text) << "seed=" << GetParam();
  // The planted FDs are among them.
  EXPECT_NE(std::find(expected.begin(), expected.end(),
                      FunctionalDependency("M", AttributeSet{"c0"},
                                           AttributeSet{"c2"})),
            expected.end());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionFdAgreementTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

TEST(IndMinerTest, FindsPlantedInclusion) {
  Database db;
  db.AddTable(MakeTable("Child", {"fk", "x"},
                        {{1, 0}, {2, 0}, {1, 1}}));
  db.AddTable(MakeTable("Parent", {"id", "y"},
                        {{1, 5}, {2, 6}, {3, 7}}));
  auto inds = MineUnaryInds(db);
  ASSERT_TRUE(inds.ok());
  EXPECT_NE(std::find(inds->begin(), inds->end(),
                      InclusionDependency::Single("Child", "fk", "Parent",
                                                  "id")),
            inds->end());
  // Parent.id ⊄ Child.fk (3 missing).
  EXPECT_EQ(std::find(inds->begin(), inds->end(),
                      InclusionDependency::Single("Parent", "id", "Child",
                                                  "fk")),
            inds->end());
}

TEST(IndMinerTest, TypeCompatibilityFilters) {
  Database db;
  RelationSchema a("A");
  ASSERT_TRUE(a.AddAttribute("n", DataType::kInt64).ok());
  ASSERT_TRUE(a.AddAttribute("s", DataType::kString).ok());
  Table ta(std::move(a));
  EXPECT_TRUE(ta.Insert({Value::Int(1), Value::Text("1")}).ok());
  ASSERT_TRUE(db.AddTable(std::move(ta)).ok());
  IndMinerStats stats;
  auto inds = MineUnaryInds(db, {}, &stats);
  ASSERT_TRUE(inds.ok());
  // n vs s are type-incompatible: no pair considered.
  EXPECT_EQ(stats.pairs_considered, 0u);
}

TEST(IndMinerTest, KeyTargetsOnlyOption) {
  Database db;
  Table child = MakeTable("Child", {"fk"}, {{1}, {2}});
  Table parent = MakeTable("Parent", {"id", "alt"},
                           {{1, 1}, {2, 2}, {3, 3}});
  parent.mutable_schema().DeclareUnique(AttributeSet{"id"});
  ASSERT_TRUE(db.AddTable(std::move(child)).ok());
  ASSERT_TRUE(db.AddTable(std::move(parent)).ok());
  IndMinerOptions options;
  options.key_targets_only = true;
  auto inds = MineUnaryInds(db, options);
  ASSERT_TRUE(inds.ok());
  for (const InclusionDependency& ind : *inds) {
    EXPECT_EQ(ind.rhs_attributes, std::vector<std::string>{"id"});
  }
}

TEST(IndMinerTest, SizePruningSkipsChecks) {
  Database db;
  std::vector<std::vector<int64_t>> big;
  for (int64_t i = 0; i < 100; ++i) big.push_back({i});
  db.AddTable(MakeTable("Big", {"v"}, big));
  db.AddTable(MakeTable("Small", {"w"}, {{1}, {2}}));
  IndMinerStats stats;
  auto inds = MineUnaryInds(db, {}, &stats);
  ASSERT_TRUE(inds.ok());
  // Big[v] ⊆ Small[w] impossible by size: only Small→Big gets checked.
  EXPECT_EQ(stats.pairs_considered, 2u);
  EXPECT_EQ(stats.pairs_checked, 1u);
  EXPECT_EQ(inds->size(), 1u);
}

TEST(NaryIndMinerTest, FindsBinaryInd) {
  Database db;
  // Child(a, b) ⊆ Parent(x, y) pairwise AND jointly.
  db.AddTable(MakeTable("Child", {"a", "b"}, {{1, 10}, {2, 20}}));
  db.AddTable(MakeTable("Parent", {"x", "y"},
                        {{1, 10}, {2, 20}, {3, 30}}));
  NaryIndMinerOptions options;
  options.max_arity = 2;
  NaryIndMinerStats stats;
  auto inds = MineNaryInds(db, options, &stats);
  ASSERT_TRUE(inds.ok()) << inds.status();
  InclusionDependency binary("Child", {"a", "b"}, "Parent", {"x", "y"});
  EXPECT_NE(std::find(inds->begin(), inds->end(), binary), inds->end());
  EXPECT_GT(stats.candidates_checked, 0u);
  EXPECT_EQ(stats.discovered, inds->size());
}

TEST(NaryIndMinerTest, RejectsJointViolationDespiteUnaryInclusions) {
  Database db;
  // Each column included individually, but the (a, b) pairs are not:
  // Child has (1, 20) which Parent lacks.
  db.AddTable(MakeTable("Child", {"a", "b"}, {{1, 20}, {2, 10}}));
  db.AddTable(MakeTable("Parent", {"x", "y"},
                        {{1, 10}, {2, 20}}));
  NaryIndMinerOptions options;
  options.max_arity = 2;
  auto inds = MineNaryInds(db, options);
  ASSERT_TRUE(inds.ok());
  InclusionDependency joint("Child", {"a", "b"}, "Parent", {"x", "y"});
  EXPECT_EQ(std::find(inds->begin(), inds->end(), joint), inds->end());
  // The unary projections are there.
  EXPECT_NE(std::find(inds->begin(), inds->end(),
                      InclusionDependency::Single("Child", "a", "Parent",
                                                  "x")),
            inds->end());
}

TEST(NaryIndMinerTest, ArityOneEqualsUnaryMiner) {
  Database db;
  db.AddTable(MakeTable("R", {"a", "b"}, {{1, 2}, {2, 3}}));
  db.AddTable(MakeTable("S", {"c"}, {{1}, {2}, {3}}));
  NaryIndMinerOptions options;
  options.max_arity = 1;
  auto nary = MineNaryInds(db, options);
  auto unary = MineUnaryInds(db);
  ASSERT_TRUE(nary.ok() && unary.ok());
  EXPECT_EQ(*nary, *unary);
}

TEST(NaryIndMinerTest, SoundAtArityTwo) {
  // Every reported binary IND must actually hold.
  std::mt19937_64 rng(77);
  Database db;
  for (int t = 0; t < 2; ++t) {
    std::vector<std::vector<int64_t>> rows;
    for (int i = 0; i < 40; ++i) {
      rows.push_back({static_cast<int64_t>(rng() % 5),
                      static_cast<int64_t>(rng() % 5)});
    }
    db.AddTable(MakeTable("T" + std::to_string(t), {"a", "b"}, rows));
  }
  NaryIndMinerOptions options;
  options.max_arity = 2;
  auto inds = MineNaryInds(db, options);
  ASSERT_TRUE(inds.ok());
  for (const InclusionDependency& ind : *inds) {
    EXPECT_TRUE(*Satisfies(db, ind)) << ind.ToString();
  }
}

// Property: mined INDs are exactly the satisfied type-compatible pairs.
TEST(IndMinerTest, SoundAndComplete) {
  std::mt19937_64 rng(4242);
  Database db;
  for (int t = 0; t < 3; ++t) {
    std::vector<std::vector<int64_t>> rows;
    for (int i = 0; i < 50; ++i) {
      rows.push_back({static_cast<int64_t>(rng() % 20),
                      static_cast<int64_t>(rng() % 8)});
    }
    db.AddTable(MakeTable("T" + std::to_string(t), {"a", "b"}, rows));
  }
  auto inds = MineUnaryInds(db);
  ASSERT_TRUE(inds.ok());
  // Soundness + completeness against brute force.
  size_t brute_count = 0;
  for (const std::string& r1 : db.RelationNames()) {
    for (const std::string& r2 : db.RelationNames()) {
      for (const char* a1 : {"a", "b"}) {
        for (const char* a2 : {"a", "b"}) {
          if (r1 == r2 && std::string(a1) == a2) continue;
          bool holds = *InclusionHolds(db, r1, {a1}, r2, {a2});
          bool mined =
              std::find(inds->begin(), inds->end(),
                        InclusionDependency::Single(r1, a1, r2, a2)) !=
              inds->end();
          EXPECT_EQ(holds, mined) << r1 << "." << a1 << " << " << r2 << "."
                                  << a2;
          if (holds) ++brute_count;
        }
      }
    }
  }
  EXPECT_EQ(brute_count, inds->size());
}

}  // namespace
}  // namespace dbre
