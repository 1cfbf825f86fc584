// Satellite guard of the live-mutation work (docs/INCREMENTAL.md): paged
// extensions are read-only. A mutation against a page-backed table must
// either fail failed_precondition (direct Table calls) or copy the codes
// into memory and mutate them (MakeResident, the DML front end) — never
// write through the buffer pool.
// Runs honestly small via test_pool.h: DBRE_TEST_BUFFER_POOL_MB=16 re-runs
// the suite at the tiny-pool CI budget.
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "pagestore/buffer_pool.h"
#include "pagestore/paged_snapshot.h"
#include "relational/database.h"
#include "relational/paged_source.h"
#include "relational/query_cache.h"
#include "sql/dml.h"
#include "store/snapshot.h"
#include "test_pool.h"
#include "support/cold_encode.h"
#include "support/table_rows.h"

namespace dbre {
namespace {

namespace fs = std::filesystem;

class PagedMutationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("dbre_paged_mutation_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    pool_ = std::make_shared<pagestore::BufferPool>(TestBufferPoolBytes());
  }
  void TearDown() override { fs::remove_all(dir_); }

  Table MakeTable(int rows) {
    RelationSchema schema("R");
    EXPECT_TRUE(schema.AddAttribute("id", DataType::kInt64).ok());
    EXPECT_TRUE(schema.AddAttribute("label", DataType::kString).ok());
    Table table(schema);
    for (int i = 0; i < rows; ++i) {
      EXPECT_TRUE(table.Insert(
          {Value::Int(i), Value::Text("row-" + std::to_string(i % 17))}).ok());
    }
    return table;
  }

  // Snapshots `table` and swaps its extension for the page-backed source.
  void MakePaged(Table* table) {
    path_ = (dir_ / "r.snap").string();
    auto written = store::WriteSnapshot(*table, path_);
    ASSERT_TRUE(written.ok()) << written.status().ToString();
    auto source = pagestore::OpenSnapshotPaged(path_, pool_);
    ASSERT_TRUE(source.ok()) << source.status().ToString();
    ASSERT_TRUE(table->AdoptPagedExtension(*source).ok());
    ASSERT_TRUE(table->is_paged());
  }

  fs::path dir_;
  std::string path_;
  std::shared_ptr<pagestore::BufferPool> pool_;
};

TEST_F(PagedMutationTest, DirectMutationsFailPrecondition) {
  Table table = MakeTable(500);
  MakePaged(&table);

  auto updated = table.UpdateRows({1}, {Value::Text("x")},
                                  [](const EncodedTable::RowView&) {
                                    return true;
                                  });
  ASSERT_FALSE(updated.ok());
  EXPECT_EQ(updated.status().code(), StatusCode::kFailedPrecondition);

  auto deleted =
      table.DeleteRows([](const EncodedTable::RowView&) { return true; });
  ASSERT_FALSE(deleted.ok());
  EXPECT_EQ(deleted.status().code(), StatusCode::kFailedPrecondition);

  auto inserted = table.Insert({Value::Int(999), Value::Text("x")});
  EXPECT_FALSE(inserted.ok());

  // Still paged, still intact.
  EXPECT_TRUE(table.is_paged());
  size_t rows = 0;
  ASSERT_TRUE(
      table.ForEachRow([&](const ValueVector&) { ++rows; }).ok());
  EXPECT_EQ(rows, 500u);
}

TEST_F(PagedMutationTest, EnsureMaterializedThenMutateWorks) {
  Table table = MakeTable(400);
  MakePaged(&table);

  ASSERT_TRUE(table.MakeResident().ok());
  EXPECT_FALSE(table.is_paged());
  ASSERT_EQ(Rows(table).size(), 400u);

  auto updated = table.UpdateRows(
      {1}, {Value::Text("mutated")},
      [](const EncodedTable::RowView& row) { return row[0].as_int() < 10; });
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_EQ(*updated, 10u);
  EXPECT_EQ(Rows(table)[0][1].as_text(), "mutated");

  // Idempotent on an already-materialized table.
  EXPECT_TRUE(table.MakeResident().ok());
}

TEST_F(PagedMutationTest, DmlMaterializesThenMutatesPagedTargets) {
  Database database;
  Table table = MakeTable(600);
  MakePaged(&table);
  ASSERT_TRUE(database.AddTable(std::move(table)).ok());

  auto stats = sql::ExecuteDmlScript(
      "UPDATE R SET label = 'rewritten' WHERE id < 50;"
      "DELETE FROM R WHERE id >= 550;"
      "INSERT INTO R VALUES (9000, 'fresh');",
      &database);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->rows_updated, 50u);
  EXPECT_EQ(stats->rows_deleted, 50u);
  EXPECT_EQ(stats->rows_inserted, 1u);

  const Table& mutated = **database.GetTable("R");
  EXPECT_FALSE(mutated.is_paged());
  EXPECT_EQ(Rows(mutated).size(), 551u);
  EXPECT_EQ(Rows(mutated)[0][1].as_text(), "rewritten");

  // The mutation never wrote through the pool: re-opening the snapshot
  // yields the original extension, byte for byte.
  auto source = pagestore::OpenSnapshotPaged(path_, pool_);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  Table reopened = MakeTable(0);
  ASSERT_TRUE(reopened.AdoptPagedExtension(*source).ok());
  size_t rows = 0;
  ASSERT_TRUE(reopened
                  .ForEachRow([&](const ValueVector& row) {
                    if (rows == 0) {
                      EXPECT_EQ(row[1].as_text(), "row-0");  // not rewritten
                    }
                    ++rows;
                  })
                  .ok());
  EXPECT_EQ(rows, 600u);
}

TEST_F(PagedMutationTest, MaterializedMutantDivergesFromSnapshot) {
  // Two tables over the same snapshot: mutating one (after materialize)
  // must not disturb the other's paged reads mid-stream.
  Database database;
  Table a = MakeTable(300);
  MakePaged(&a);
  auto source = pagestore::OpenSnapshotPaged(path_, pool_);
  ASSERT_TRUE(source.ok());
  Table b = MakeTable(0);
  ASSERT_TRUE(b.AdoptPagedExtension(*source).ok());
  ASSERT_TRUE(database.AddTable(std::move(a)).ok());

  auto stats =
      sql::ExecuteDmlScript("DELETE FROM R WHERE id < 100;", &database);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->rows_deleted, 100u);

  size_t rows = 0;
  ASSERT_TRUE(b.ForEachRow([&](const ValueVector&) { ++rows; }).ok());
  EXPECT_EQ(rows, 300u);  // the paged sibling still reads the snapshot
}

TEST_F(PagedMutationTest, UpdateOfPagedTableKeepsCodesCanonical) {
  // The DML front end copies the paged codes (no row is decoded) and the
  // update renumbers the touched column: "row-16" now first appears in
  // row 0, and "row-0" loses occurrences but keeps the ones past id 20.
  Database database;
  Table table = MakeTable(300);
  MakePaged(&table);
  ASSERT_TRUE(database.AddTable(std::move(table)).ok());
  auto stats = sql::ExecuteDmlScript(
      "UPDATE R SET label = 'row-16' WHERE id < 20;", &database);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->rows_updated, 20u);

  const Table& mutated = **database.GetTable("R");
  ASSERT_FALSE(mutated.is_paged());
  EXPECT_EQ(mutated.extension().Decode(1, 0), Value::Text("row-16"));
  ExpectColdEncoding(mutated);

  // The same answers as a cold reload of the mutated rows.
  Table cold(mutated.schema());
  InsertRows(&cold, Rows(mutated));
  auto warm_cache = mutated.query_cache();
  auto cold_cache = cold.query_cache();
  ASSERT_TRUE(warm_cache.ok() && cold_cache.ok());
  EXPECT_EQ((*warm_cache)->DistinctCount({1}),
            (*cold_cache)->DistinctCount({1}));
  EXPECT_EQ((*warm_cache)->FdHolds({0}, {1}),
            (*cold_cache)->FdHolds({0}, {1}));
  EXPECT_EQ((*warm_cache)->FdHolds({1}, {0}),
            (*cold_cache)->FdHolds({1}, {0}));
}

}  // namespace
}  // namespace dbre
