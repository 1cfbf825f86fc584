#include "store/snapshot.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "relational/extension_registry.h"
#include "relational/table.h"
#include "store/crc32c.h"
#include "support/table_rows.h"

namespace dbre::store {
namespace {

namespace fs = std::filesystem;

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("dbre_snapshot_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

Table MixedTable(int rows) {
  RelationSchema schema("orders");
  EXPECT_TRUE(schema.AddAttribute("id", DataType::kInt64).ok());
  EXPECT_TRUE(schema.AddAttribute("city", DataType::kString).ok());
  EXPECT_TRUE(schema.AddAttribute("weight", DataType::kDouble).ok());
  EXPECT_TRUE(schema.AddAttribute("express", DataType::kBool).ok());
  Table table(schema);
  const char* cities[] = {"paris", "namur", "liège"};
  for (int i = 0; i < rows; ++i) {
    ValueVector row;
    row.push_back(Value::Int(i));
    row.push_back(i % 7 == 3 ? Value::Null() : Value::Text(cities[i % 3]));
    row.push_back(Value::Real(i * 0.5));
    row.push_back(i % 5 == 0 ? Value::Null() : Value::Boolean(i % 2 == 0));
    EXPECT_TRUE(table.Insert(std::move(row)).ok());
  }
  return table;
}

TEST(Crc32cTest, KnownAnswers) {
  // RFC 3720 test vector for CRC32C (Castagnoli).
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(""), 0u);
  // Incremental == one-shot.
  uint32_t crc = Crc32c(0, "12345", 5);
  EXPECT_EQ(Crc32c(crc, "6789", 4), 0xE3069283u);
}

TEST_F(SnapshotTest, RoundTripsSchemaRowsAndFingerprint) {
  Table table = MixedTable(123);
  auto written = WriteSnapshot(table, Path("orders.snap"));
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  EXPECT_EQ(written->rows, 123u);
  EXPECT_EQ(written->columns, 4u);
  EXPECT_EQ(written->relation, "orders");
  EXPECT_EQ(written->fingerprint,
            ExtensionRegistry::ComputeFingerprint(table));

  auto loaded = LoadSnapshot(Path("orders.snap"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->fingerprint, written->fingerprint);
  EXPECT_EQ(loaded->schema.name(), "orders");
  ASSERT_EQ(loaded->extension.num_rows(), table.num_rows());
  Table restored(loaded->schema);
  ASSERT_TRUE(restored.AdoptExtension(loaded->extension).ok());
  const std::vector<ValueVector> rows = Rows(table);
  const std::vector<ValueVector> loaded_rows = Rows(restored);
  for (size_t i = 0; i < table.num_rows(); ++i) {
    EXPECT_EQ(loaded_rows[i], rows[i]) << "row " << i;
  }
}

TEST_F(SnapshotTest, RestoredTableRecomputesTheSameFingerprint) {
  Table table = MixedTable(64);
  auto written = WriteSnapshot(table, Path("t.snap"));
  ASSERT_TRUE(written.ok());
  auto loaded = LoadSnapshot(Path("t.snap"));
  ASSERT_TRUE(loaded.ok());

  Table restored(loaded->schema);
  ASSERT_TRUE(restored.AdoptExtension(loaded->extension).ok());
  // The footer fingerprint is not just stored — it is the same value a
  // fresh hash of the restored rows produces.
  EXPECT_EQ(ExtensionRegistry::ComputeFingerprint(restored),
            written->fingerprint);
}

TEST_F(SnapshotTest, EmptyExtensionRoundTrips) {
  Table table = MixedTable(0);
  ASSERT_TRUE(WriteSnapshot(table, Path("empty.snap")).ok());
  auto loaded = LoadSnapshot(Path("empty.snap"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->extension.num_rows(), 0u);
}

TEST_F(SnapshotTest, ReadSnapshotInfoMatchesWriterWithoutDecoding) {
  Table table = MixedTable(50);
  auto written = WriteSnapshot(table, Path("info.snap"));
  ASSERT_TRUE(written.ok());
  auto info = ReadSnapshotInfo(Path("info.snap"));
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->fingerprint, written->fingerprint);
  EXPECT_EQ(info->rows, 50u);
  EXPECT_EQ(info->columns, 4u);
  EXPECT_EQ(info->relation, "orders");
  EXPECT_EQ(info->file_bytes, fs::file_size(Path("info.snap")));
}

TEST_F(SnapshotTest, DetectsCorruptionAnywhere) {
  Table table = MixedTable(80);
  ASSERT_TRUE(WriteSnapshot(table, Path("good.snap")).ok());
  std::string bytes;
  {
    std::ifstream in(Path("good.snap"), std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 64u);

  // Flip one byte at several depths of the file: header, schema blob,
  // a column page in the middle, and the footer. Every flip must surface
  // as a structured error, never as wrong rows.
  for (size_t offset : {size_t{3}, size_t{25}, bytes.size() / 2,
                        bytes.size() - 10}) {
    std::string corrupt = bytes;
    corrupt[offset] = static_cast<char>(corrupt[offset] ^ 0x40);
    std::ofstream out(Path("bad.snap"), std::ios::binary | std::ios::trunc);
    out.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
    out.close();
    auto loaded = LoadSnapshot(Path("bad.snap"));
    EXPECT_FALSE(loaded.ok()) << "flip at offset " << offset;
  }
}

TEST_F(SnapshotTest, TruncatedFileIsAnErrorNotACrash) {
  Table table = MixedTable(60);
  ASSERT_TRUE(WriteSnapshot(table, Path("whole.snap")).ok());
  std::string bytes;
  {
    std::ifstream in(Path("whole.snap"), std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  for (size_t keep : {size_t{0}, size_t{4}, size_t{19}, bytes.size() / 3,
                      bytes.size() - 1}) {
    std::ofstream out(Path("cut.snap"), std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(keep));
    out.close();
    EXPECT_FALSE(LoadSnapshot(Path("cut.snap")).ok()) << "kept " << keep;
    EXPECT_FALSE(ReadSnapshotInfo(Path("cut.snap")).ok()) << "kept " << keep;
  }
}

TEST_F(SnapshotTest, MissingFileIsNotFound) {
  EXPECT_FALSE(LoadSnapshot(Path("nowhere.snap")).ok());
  EXPECT_FALSE(ReadSnapshotInfo(Path("nowhere.snap")).ok());
}

TEST_F(SnapshotTest, WriteLeavesNoTempFileBehind) {
  Table table = MixedTable(10);
  ASSERT_TRUE(WriteSnapshot(table, Path("clean.snap")).ok());
  size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 1u);  // just clean.snap — the .tmp was renamed away
}

}  // namespace
}  // namespace dbre::store
