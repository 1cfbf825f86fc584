// The tentpole invariant of the paged storage subsystem: discovery over
// page-backed extensions produces BYTE-IDENTICAL reports to the in-memory
// run, even with a buffer pool far smaller than the extensions it serves.
// Also checks the row-shaped exporters (CSV, INSERT batches) stream paged
// extensions losslessly through Table::ForEachRow, and that Restruct over
// paged sources matches the row-based reference.
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "core/report_json.h"
#include "pagestore/buffer_pool.h"
#include "pagestore/paged_snapshot.h"
#include "relational/csv.h"
#include "relational/paged_source.h"
#include "sql/ddl_writer.h"
#include "store/snapshot.h"
#include "support/restruct_reference.h"
#include "test_pool.h"
#include "workload/generator.h"

namespace dbre {
namespace {

namespace fs = std::filesystem;

// ASSERT_* cannot be used in a function returning a value; this keeps the
// failure message and aborts the copy with whatever was built so far.
#define ASSERT_TRUE_RETURN(cond, message) \
  if (!(cond)) {                          \
    ADD_FAILURE() << (message);           \
    return paged;                         \
  }

class PagedCrosscheckTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("dbre_paged_crosscheck_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  // Snapshots every relation of `database` and re-adopts it page-backed
  // through `pool`; the returned database holds no materialized rows.
  Database PagedCopy(const Database& database,
                     std::shared_ptr<pagestore::BufferPool> pool) {
    Database paged = database.Clone();
    for (const std::string& name : paged.RelationNames()) {
      auto table = paged.GetMutableTable(name);
      ASSERT_TRUE_RETURN(table.ok(), table.status().ToString());
      std::string path = (dir_ / (name + ".snap")).string();
      auto written = store::WriteSnapshot(**table, path);
      ASSERT_TRUE_RETURN(written.ok(), written.status().ToString());
      auto source = pagestore::OpenSnapshotPaged(path, pool);
      ASSERT_TRUE_RETURN(source.ok(), source.status().ToString());
      auto adopted = (*table)->AdoptPagedExtension(*source);
      ASSERT_TRUE_RETURN(adopted.ok(), adopted.ToString());
    }
    return paged;
  }

  fs::path dir_;
};

std::string RunReport(const Database& database,
                      const std::vector<EquiJoin>& queries) {
  ThresholdOracle::Options oracle_options;
  oracle_options.accept_hidden_objects = true;
  ThresholdOracle oracle(oracle_options);
  auto report = RunPipeline(database, queries, &oracle);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (!report.ok()) return "";
  JsonOptions options;
  options.include_timings = false;
  return ReportToJson(*report, options);
}

TEST_F(PagedCrosscheckTest, PipelineReportIsByteIdenticalInEveryMode) {
  workload::SyntheticSpec spec;
  spec.num_entities = 5;
  spec.num_merged = 2;
  spec.rows_per_entity = 500;
  spec.seed = 7;
  auto generated = workload::GenerateSynthetic(spec);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();

  const std::string baseline =
      RunReport(generated->database, generated->queries);
  ASSERT_FALSE(baseline.empty());

  // The default budget of one byte clamps the pool to kMinFrames frames
  // (512 KiB) — far less than the materialized extensions — so the run
  // below really streams pages in and out. DBRE_TEST_BUFFER_POOL_MB
  // re-runs the same invariant at a larger budget (the tiny-pool CI job).
  auto pool = std::make_shared<pagestore::BufferPool>(TestBufferPoolBytes());
  Database paged = PagedCopy(generated->database, pool);
  if (::testing::Test::HasFailure()) return;

  EXPECT_EQ(RunReport(paged, generated->queries), baseline);

  // The run actually went through the pool, and page reads hit the cache.
  pagestore::BufferPool::Stats stats = pool->stats();
  EXPECT_GT(stats.misses, 0u);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_LE(stats.resident_bytes, stats.frames * pagestore::kPageSize);
}

// Restruct reads partitions and decodes representatives through the
// buffer pool, and drops moved attributes from a paged source by editing
// its column map: the result must equal the row-based reference run on
// the in-memory catalog.
TEST_F(PagedCrosscheckTest, RestructOverPagesMatchesRowReference) {
  workload::SyntheticSpec spec;
  spec.num_entities = 5;
  spec.num_merged = 2;
  spec.rows_per_entity = 500;
  spec.seed = 7;
  auto generated = workload::GenerateSynthetic(spec);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  ThresholdOracle::Options oracle_options;
  oracle_options.accept_hidden_objects = true;
  ThresholdOracle oracle(oracle_options);
  PipelineOptions options;
  options.run_restruct = false;
  auto report = RunPipeline(generated->database, generated->queries, &oracle,
                            options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_FALSE(report->rhs.fds.empty());

  DefaultOracle reference_oracle;
  auto expected = reference::Restruct(report->working_database,
                                      report->rhs.fds, report->rhs.hidden,
                                      report->ind.inds, &reference_oracle);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  auto pool = std::make_shared<pagestore::BufferPool>(TestBufferPoolBytes());
  Database paged = PagedCopy(report->working_database, pool);
  if (::testing::Test::HasFailure()) return;
  DefaultOracle paged_oracle;
  auto actual = Restruct(paged, report->rhs.fds, report->rhs.hidden,
                         report->ind.inds, &paged_oracle);
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  EXPECT_EQ(reference::Describe(*actual), reference::Describe(*expected));
  for (const FunctionalDependency& fd : report->rhs.fds) {
    EXPECT_TRUE((*actual->database.GetTable(fd.relation))->is_paged())
        << fd.relation;
  }
}

TEST_F(PagedCrosscheckTest, RowExportersStreamPagedExtensionsLosslessly) {
  workload::SyntheticSpec spec;
  spec.num_entities = 3;
  spec.num_merged = 1;
  spec.rows_per_entity = 400;
  spec.seed = 21;
  auto generated = workload::GenerateSynthetic(spec);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();

  auto pool = std::make_shared<pagestore::BufferPool>(TestBufferPoolBytes());
  Database paged = PagedCopy(generated->database, pool);
  if (::testing::Test::HasFailure()) return;

  for (const std::string& name : generated->database.RelationNames()) {
    const Table& memory = **generated->database.GetTable(name);
    const Table& on_disk = **paged.GetTable(name);
    ASSERT_TRUE(on_disk.is_paged());
    EXPECT_EQ(WriteCsvText(on_disk), WriteCsvText(memory)) << name;
    EXPECT_EQ(sql::WriteInserts(on_disk, 50), sql::WriteInserts(memory, 50))
        << name;
    EXPECT_EQ(on_disk.VerifyUniqueConstraints().ok(),
              memory.VerifyUniqueConstraints().ok())
        << name;
    EXPECT_EQ(on_disk.VerifyNotNullConstraints().ok(),
              memory.VerifyNotNullConstraints().ok())
        << name;
  }
}

}  // namespace
}  // namespace dbre
