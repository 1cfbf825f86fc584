// The mutation path of Table (docs/INCREMENTAL.md): UpdateRows/DeleteRows
// semantics, the incremental query-cache rebuild (QueryCache::BuildDelta)
// answering byte-identically to a cold build, the copy-on-write detach that
// keeps registry-interned extensions private to the mutating session, and
// sketch eviction on mutation.
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "relational/extension_registry.h"
#include "relational/query_cache.h"
#include "relational/sketch.h"
#include "relational/table.h"
#include "support/cold_encode.h"
#include "support/table_rows.h"

namespace dbre {
namespace {

Table MakeTable(const std::string& name, int first_id, int rows) {
  RelationSchema schema(name);
  EXPECT_TRUE(schema.AddAttribute("id", DataType::kInt64).ok());
  EXPECT_TRUE(schema.AddAttribute("label", DataType::kString).ok());
  Table table(schema);
  for (int i = 0; i < rows; ++i) {
    EXPECT_TRUE(table
                    .Insert({Value::Int(first_id + i),
                             Value::Text("row-" + std::to_string(i))})
                    .ok());
  }
  return table;
}

// A table with the same schema holding exactly `rows`, built cold — the
// reference every incremental answer is compared against.
Table ColdCopy(const Table& table) {
  Table cold(table.schema());
  for (const ValueVector& row : Rows(table)) {
    ValueVector copy = row;
    EXPECT_TRUE(cold.Insert(std::move(copy)).ok());
  }
  return cold;
}

// Asserts that `table`'s (possibly delta-built) cache answers match a cold
// build over the same rows, for every primitive discovery consumes.
void ExpectCacheMatchesColdBuild(const Table& table) {
  Table cold = ColdCopy(table);
  auto warm = table.query_cache();
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  auto fresh = cold.query_cache();
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();

  const size_t columns = table.schema().arity();
  for (size_t c = 0; c < columns; ++c) {
    EXPECT_EQ((*warm)->DistinctCount({c}), (*fresh)->DistinctCount({c}))
        << "column " << c;
    EXPECT_EQ((*warm)->ColumnHasNull(c), (*fresh)->ColumnHasNull(c))
        << "column " << c;
    auto warm_set = (*warm)->DictionarySet(c);
    auto fresh_set = (*fresh)->DictionarySet(c);
    ASSERT_NE(warm_set, nullptr);
    ASSERT_NE(fresh_set, nullptr);
    EXPECT_EQ(*warm_set, *fresh_set) << "column " << c;
    auto warm_part = (*warm)->Partition({c}, NullPolicy::kSkipNullRows);
    auto fresh_part = (*fresh)->Partition({c}, NullPolicy::kSkipNullRows);
    EXPECT_EQ(warm_part->num_groups(), fresh_part->num_groups())
        << "column " << c;
  }
  if (columns >= 2) {
    EXPECT_EQ((*warm)->DistinctCount({0, 1}), (*fresh)->DistinctCount({0, 1}));
    EXPECT_EQ((*warm)->FdHolds({0}, {1}), (*fresh)->FdHolds({0}, {1}));
    EXPECT_EQ((*warm)->FdHolds({1}, {0}), (*fresh)->FdHolds({1}, {0}));
    EXPECT_EQ((*warm)->FdError({1}, {0}), (*fresh)->FdError({1}, {0}));
    auto warm_proj = (*warm)->DistinctProjection({0, 1});
    auto fresh_proj = (*fresh)->DistinctProjection({0, 1});
    ASSERT_NE(warm_proj, nullptr);
    ASSERT_NE(fresh_proj, nullptr);
    EXPECT_EQ(*warm_proj, *fresh_proj);
  }
}

TEST(TableMutationTest, AppendDeltaMatchesColdBuild) {
  Table table = MakeTable("R", 1, 200);
  // Warm the cache, then append a batch: the next query_cache() goes
  // through BuildDelta (append-only extension of the encoded image).
  ASSERT_TRUE(table.query_cache().ok());
  for (int i = 0; i < 40; ++i) {
    // Duplicated labels so the appended suffix extends dictionaries both
    // with fresh and with already-seen codes.
    EXPECT_TRUE(table
                    .Insert({Value::Int(1000 + i),
                             Value::Text("row-" + std::to_string(i % 7))})
                    .ok());
  }
  EXPECT_TRUE(table.has_pending_delta());
  ExpectCacheMatchesColdBuild(table);
  EXPECT_FALSE(table.has_pending_delta());
}

TEST(TableMutationTest, UpdateRowsRewritesMatchingRowsOnly) {
  Table table = MakeTable("R", 1, 100);
  ASSERT_TRUE(table.query_cache().ok());

  size_t label_col = 1;
  auto updated = table.UpdateRows(
      {label_col}, {Value::Text("flagged")},
      RowsWhere(table,
                [](const ValueVector& row) { return row[0].as_int() <= 10; }));
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_EQ(*updated, 10u);

  size_t flagged = 0;
  for (const ValueVector& row : Rows(table)) {
    if (row[1].as_text() == "flagged") ++flagged;
  }
  EXPECT_EQ(flagged, 10u);
  ExpectCacheMatchesColdBuild(table);
}

TEST(TableMutationTest, UpdateMatchingNothingLeavesCacheShared) {
  Table table = MakeTable("R", 1, 50);
  auto before = table.query_cache();
  ASSERT_TRUE(before.ok());

  auto updated = table.UpdateRows(
      {1}, {Value::Text("never")},
      RowsWhere(table, [](const ValueVector& row) {
        return row[0].as_int() > 1'000'000;
      }));
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(*updated, 0u);
  EXPECT_FALSE(table.has_pending_delta());

  auto after = table.query_cache();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(before->get(), after->get());  // untouched, not rebuilt
}

TEST(TableMutationTest, DeleteRowsIsStructural) {
  Table table = MakeTable("R", 1, 120);
  ASSERT_TRUE(table.query_cache().ok());

  auto deleted = table.DeleteRows(
      RowsWhere(table, [](const ValueVector& row) {
        return row[0].as_int() % 3 == 0;
      }));
  ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
  EXPECT_EQ(*deleted, 40u);
  EXPECT_EQ(Rows(table).size(), 80u);
  for (const ValueVector& row : Rows(table)) {
    EXPECT_NE(row[0].as_int() % 3, 0);
  }
  ExpectCacheMatchesColdBuild(table);
}

TEST(TableMutationTest, UpdateValidatesTypesAndNotNullUpFront) {
  RelationSchema schema("R");
  ASSERT_TRUE(schema.AddAttribute("id", DataType::kInt64).ok());
  ASSERT_TRUE(schema.AddAttribute("name", DataType::kString).ok());
  ASSERT_TRUE(schema.DeclareNotNull("name").ok());
  Table table(schema);
  EXPECT_TRUE(table.Insert({Value::Int(1), Value::Text("a")}).ok());

  // NULL into a not-null attribute fails before any row changes.
  auto bad_null = table.UpdateRows(
      {1}, {Value::Null()},
      RowsWhere(table, [](const ValueVector&) { return true; }));
  EXPECT_FALSE(bad_null.ok());
  EXPECT_EQ(Rows(table)[0][1].as_text(), "a");

  // Type mismatch fails the same way.
  auto bad_type = table.UpdateRows(
      {0}, {Value::Text("oops")},
      RowsWhere(table, [](const ValueVector&) { return true; }));
  EXPECT_FALSE(bad_type.ok());
  EXPECT_EQ(Rows(table)[0][0].as_int(), 1);
}

// The mutators take a selection: row ids strictly ascending, each in
// range. Anything else fails invalid_argument and changes nothing.
TEST(TableMutationTest, SelectionMustAscendWithinTheTable) {
  Table table = MakeTable("R", 1, 5);
  const std::vector<ValueVector> before = Rows(table);
  for (const std::vector<size_t>& rows : std::vector<std::vector<size_t>>{
           {5}, {0, 7}, {2, 1}, {3, 3}}) {
    auto updated = table.UpdateRows({1}, {Value::Text("x")}, rows);
    EXPECT_EQ(updated.status().code(), StatusCode::kInvalidArgument);
    auto deleted = table.DeleteRows(rows);
    EXPECT_EQ(deleted.status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(Rows(table), before);
}

// Satellite regression: two sessions intern the same extension; mutating
// one must copy-on-write detach, never rewrite the canonical rows the
// other session still reads.
TEST(TableMutationTest, MutatingInternedTableDetachesFromRegistry) {
  ExtensionRegistry registry;
  Table first = MakeTable("R", 1, 60);
  EXPECT_FALSE(registry.Intern(&first));  // canonical copy

  Table second = MakeTable("R", 1, 60);
  EXPECT_TRUE(registry.Intern(&second));  // adopts shared storage
  const auto canonical_rows = Storage(first);
  ASSERT_EQ(Storage(second), canonical_rows);

  auto updated = second.UpdateRows(
      {1}, {Value::Text("mutated")},
      RowsWhere(second,
                [](const ValueVector& row) { return row[0].as_int() == 1; }));
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_EQ(*updated, 1u);

  // The mutator got fresh storage; the canonical extension is untouched.
  EXPECT_NE(Storage(second), canonical_rows);
  EXPECT_EQ(Storage(first), canonical_rows);
  EXPECT_EQ(Rows(first)[0][1].as_text(), "row-0");
  EXPECT_EQ(Rows(second)[0][1].as_text(), "mutated");

  // A third session interning the original content still hits the
  // registry's (unchanged) canonical entry.
  Table third = MakeTable("R", 1, 60);
  EXPECT_TRUE(registry.Intern(&third));
  EXPECT_EQ(Storage(third), canonical_rows);

  // And both diverged extensions keep answering correctly.
  ExpectCacheMatchesColdBuild(first);
  ExpectCacheMatchesColdBuild(second);
}

TEST(TableMutationTest, ExplicitDetachForMutationCopiesSharedStorage) {
  ExtensionRegistry registry;
  Table first = MakeTable("R", 1, 30);
  registry.Intern(&first);
  Table second = MakeTable("R", 1, 30);
  registry.Intern(&second);
  ASSERT_EQ(Storage(second), Storage(first));

  second.DetachForMutation();
  EXPECT_NE(Storage(second), Storage(first));
  // Content is still equal — detach copies, it does not clear.
  ASSERT_EQ(Rows(second).size(), Rows(first).size());
  EXPECT_EQ(Rows(second)[7], Rows(first)[7]);
}

// Satellite regression: mutation must also drop memoized sketches — a
// stale Bloom/HLL surviving a mutation could steer discovery into wrong
// prunes. Crosschecked by running the sketch-assisted answers against a
// cold build after the mutation, with the sketch gate forced on.
TEST(TableMutationTest, SketchesRebuildAfterMutation) {
  ScopedSketchGate sketches_on(true);
  Table table = MakeTable("R", 1, 150);
  auto cache = table.query_cache();
  ASSERT_TRUE(cache.ok());
  auto before_sketch = (*cache)->ColumnSketchFor(0);
  ASSERT_NE(before_sketch, nullptr);
  ASSERT_NE((*cache)->ProjectionSketchFor({0, 1}), nullptr);

  // Rewrite ids into a narrow band: the old sketch's cardinality estimate
  // and membership bits are now wrong for most of the column.
  auto updated = table.UpdateRows(
      {0}, {Value::Int(7)},
      RowsWhere(table,
                [](const ValueVector& row) { return row[0].as_int() > 10; }));
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(*updated, 140u);

  auto after = table.query_cache();
  ASSERT_TRUE(after.ok());
  // The memoized sketch did not carry over (updated column).
  EXPECT_EQ((*after)->MaybeColumnSketch(0), nullptr);

  Table cold = ColdCopy(table);
  auto cold_cache = cold.query_cache();
  ASSERT_TRUE(cold_cache.ok());
  auto warm_sketch = (*after)->ColumnSketchFor(0);
  auto cold_sketch = (*cold_cache)->ColumnSketchFor(0);
  ASSERT_NE(warm_sketch, nullptr);
  ASSERT_NE(cold_sketch, nullptr);
  // Sketches are deterministic over the same distinct values: identical
  // estimates prove the rebuild saw the mutated extension.
  EXPECT_EQ(warm_sketch->hll.Estimate(), cold_sketch->hll.Estimate());
  EXPECT_EQ((*after)->DistinctCount({0}), (*cold_cache)->DistinctCount({0}));
  ExpectCacheMatchesColdBuild(table);
}

// Append-only batches keep sketches only for untouched columns.
TEST(TableMutationTest, AppendKeepsUntouchedMemosDropsTouchedSketches) {
  ScopedSketchGate sketches_on(true);
  Table table = MakeTable("R", 1, 100);
  auto cache = table.query_cache();
  ASSERT_TRUE(cache.ok());
  ASSERT_NE((*cache)->ColumnSketchFor(1), nullptr);

  EXPECT_TRUE(table.Insert({Value::Int(500), Value::Text("brand-new")}).ok());
  auto after = table.query_cache();
  ASSERT_TRUE(after.ok());
  EXPECT_NE(after->get(), cache->get());

  // Appends extend every column, so per-column sketches must not carry
  // over stale membership bits.
  auto sketch = (*after)->MaybeColumnSketch(1);
  if (sketch != nullptr) {
    // If an implementation chooses to delta-merge instead of drop, the
    // merged sketch must see the appended value.
    EXPECT_TRUE(sketch->bloom.MayContain(SketchHash(Value::Text("brand-new"))));
  }
  ExpectCacheMatchesColdBuild(table);
}

// --- Mutation on codes ------------------------------------------------------
// Every writer keeps the encoding canonical: after each case the codes and
// dictionaries equal a cold encode of the decoded rows, and the
// incrementally rebuilt cache answers like a cold reload.

Table LabelTable(const std::vector<std::string>& labels) {
  RelationSchema schema("L");
  EXPECT_TRUE(schema.AddAttribute("id", DataType::kInt64).ok());
  EXPECT_TRUE(schema.AddAttribute("label", DataType::kString).ok());
  Table table(schema);
  for (size_t i = 0; i < labels.size(); ++i) {
    EXPECT_TRUE(table
                    .Insert({Value::Int(static_cast<int64_t>(i)),
                             Value::Text(labels[i])})
                    .ok());
  }
  return table;
}

bool IdIs(const ValueVector& row, int64_t id) {
  return row[0].as_int() == id;
}

TEST(TableMutationTest, UpdateRemovingLastOccurrenceShrinksDictionary) {
  Table table = LabelTable({"a", "b", "c", "b"});
  ASSERT_TRUE(table.query_cache().ok());
  auto updated = table.UpdateRows(
      {1}, {Value::Text("b")},
      RowsWhere(table, [](const ValueVector& row) { return IdIs(row, 2); }));
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_EQ(*updated, 1u);
  EXPECT_EQ(table.extension().dict_size(1), 2u);  // "c" is gone
  ExpectColdEncoding(table);
  ExpectCacheMatchesColdBuild(table);
}

TEST(TableMutationTest, UpdateMovingFirstAppearanceEarlierRenumbers) {
  Table table = LabelTable({"a", "b", "c", "d"});
  ASSERT_TRUE(table.query_cache().ok());
  // "d" first appears in row 3; writing it into row 0 makes it code 0.
  auto updated = table.UpdateRows(
      {1}, {Value::Text("d")},
      RowsWhere(table, [](const ValueVector& row) { return IdIs(row, 0); }));
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_EQ(table.extension().codes(1),
            (std::vector<uint32_t>{0, 1, 2, 0}));
  EXPECT_EQ(table.extension().Decode(1, 0), Value::Text("d"));
  ExpectColdEncoding(table);
  ExpectCacheMatchesColdBuild(table);
}

TEST(TableMutationTest, DeleteOfFirstRowRenumbers) {
  Table table = LabelTable({"a", "b", "a", "c"});
  ASSERT_TRUE(table.query_cache().ok());
  auto deleted = table.DeleteRows(
      RowsWhere(table, [](const ValueVector& row) { return IdIs(row, 0); }));
  ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
  EXPECT_EQ(*deleted, 1u);
  EXPECT_EQ(table.extension().Decode(1, 0), Value::Text("b"));
  ExpectColdEncoding(table);
  ExpectCacheMatchesColdBuild(table);
}

TEST(TableMutationTest, InsertOfPreviouslyDeletedValueGetsFreshCode) {
  Table table = LabelTable({"a", "gone", "b"});
  ASSERT_TRUE(table
                  .DeleteRows(RowsWhere(table,
                                        [](const ValueVector& row) {
                                          return row[1].as_text() == "gone";
                                        }))
                  .ok());
  ASSERT_TRUE(table.query_cache().ok());
  ASSERT_TRUE(table.Insert({Value::Int(9), Value::Text("gone")}).ok());
  EXPECT_EQ(table.extension().codes(1), (std::vector<uint32_t>{0, 1, 2}));
  ExpectColdEncoding(table);
  ExpectCacheMatchesColdBuild(table);
}

TEST(TableMutationTest, MutatingInternedTableLeavesCanonicalCodesUntouched) {
  ExtensionRegistry registry;
  Table canonical = LabelTable({"a", "b", "c"});
  EXPECT_FALSE(registry.Intern(&canonical));
  Table session = LabelTable({"a", "b", "c"});
  ASSERT_TRUE(registry.Intern(&session));
  const std::vector<uint32_t> before = canonical.extension().codes(1);
  const std::vector<ValueVector> rows_before = Rows(canonical);

  ASSERT_TRUE(session
                  .UpdateRows({1}, {Value::Text("c")},
                              RowsWhere(session,
                                        [](const ValueVector& row) {
                                          return IdIs(row, 0);
                                        }))
                  .ok());
  ASSERT_TRUE(session.Insert({Value::Int(7), Value::Text("z")}).ok());
  ASSERT_TRUE(session
                  .DeleteRows(RowsWhere(session,
                                        [](const ValueVector& row) {
                                          return IdIs(row, 1);
                                        }))
                  .ok());

  EXPECT_EQ(canonical.extension().codes(1), before);
  EXPECT_EQ(Rows(canonical), rows_before);
  ExpectColdEncoding(canonical);
  ExpectColdEncoding(session);
  ExpectCacheMatchesColdBuild(session);
}

TEST(TableMutationTest, UpdateToNaNGivesEveryCellItsOwnCode) {
  RelationSchema schema("N");
  ASSERT_TRUE(schema.AddAttribute("id", DataType::kInt64).ok());
  ASSERT_TRUE(schema.AddAttribute("x", DataType::kDouble).ok());
  Table table(schema);
  for (const auto& [id, x] : std::vector<std::pair<int64_t, double>>{
           {0, 1.5}, {1, 2.5}, {2, 1.5}, {3, 4.0}}) {
    ASSERT_TRUE(table.Insert({Value::Int(id), Value::Real(x)}).ok());
  }
  ASSERT_TRUE(table.query_cache().ok());
  // NaN never equals anything, so the three NaNs are three distinct values.
  auto updated = table.UpdateRows(
      {1}, {Value::Real(std::nan(""))},
      RowsWhere(table, [](const ValueVector& row) { return !IdIs(row, 1); }));
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_EQ(*updated, 3u);
  EXPECT_EQ(table.extension().codes(1),
            (std::vector<uint32_t>{0, 1, 2, 3}));
  auto distinct = table.DistinctCount(AttributeSet{"x"});
  ASSERT_TRUE(distinct.ok()) << distinct.status().ToString();
  EXPECT_EQ(*distinct, 4u);
  ExpectColdEncoding(table);
  // ExpectCacheMatchesColdBuild compares value sets, which NaN never
  // equals; every count and verdict must still match a cold build.
  Table cold = ColdCopy(table);
  auto warm = table.query_cache();
  auto fresh = cold.query_cache();
  ASSERT_TRUE(warm.ok() && fresh.ok());
  EXPECT_EQ((*warm)->DistinctCount({1}), (*fresh)->DistinctCount({1}));
  EXPECT_EQ((*warm)->DistinctCount({0, 1}), (*fresh)->DistinctCount({0, 1}));
  EXPECT_EQ((*warm)->Partition({1}, NullPolicy::kSkipNullRows)->num_groups(),
            (*fresh)->Partition({1}, NullPolicy::kSkipNullRows)->num_groups());
  EXPECT_EQ((*warm)->FdHolds({1}, {0}), (*fresh)->FdHolds({1}, {0}));
  EXPECT_EQ((*warm)->FdError({1}, {0}), (*fresh)->FdError({1}, {0}));
}

TEST(TableMutationTest, DoubleZerosDecodeWithTheFirstZerosSign) {
  RelationSchema schema("D");
  ASSERT_TRUE(schema.AddAttribute("x", DataType::kDouble).ok());
  Table table(schema);
  ASSERT_TRUE(table.Insert({Value::Real(-0.0)}).ok());
  ASSERT_TRUE(table.Insert({Value::Real(0.0)}).ok());
  EXPECT_EQ(table.extension().codes(0), (std::vector<uint32_t>{0, 0}));
  for (const ValueVector& row : Rows(table)) {
    EXPECT_TRUE(std::signbit(row[0].as_real()));
  }
  ExpectColdEncoding(table);
}

}  // namespace
}  // namespace dbre
