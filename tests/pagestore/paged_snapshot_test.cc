#include "pagestore/paged_snapshot.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "pagestore/buffer_pool.h"
#include "relational/encoded_table.h"
#include "relational/table.h"
#include "store/snapshot.h"
#include "support/table_rows.h"

namespace dbre::pagestore {
namespace {

namespace fs = std::filesystem;

class PagedSnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("dbre_paged_snapshot_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    Failpoints::Instance().DisarmAll();
    fs::remove_all(dir_);
  }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::shared_ptr<BufferPool> TinyPool() {
    return std::make_shared<BufferPool>(1);  // kMinFrames frames
  }

  // Decodes cell (row, col) the way paged consumers do: cursor code, then
  // dictionary lookup (or NULL for the sentinel code).
  static Value DecodeCell(const PagedSnapshot& snap, PagedCodeCursor* cursor,
                          size_t column, size_t row) {
    uint32_t code = cursor->At(row);
    if (code == EncodedTable::kNullCode) return Value::Null();
    auto value = snap.DictValueAt(column, code);
    EXPECT_TRUE(value.ok()) << value.status().ToString();
    return value.ok() ? *value : Value::Null();
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
    row.push_back(Value::Int(i * 7 - 3));
    row.push_back(i % 7 == 3 ? Value::Null() : Value::Text(cities[i % 3]));
    row.push_back(Value::Real(i * 0.5));
    row.push_back(i % 5 == 0 ? Value::Null() : Value::Boolean(i % 2 == 0));
    EXPECT_TRUE(table.Insert(std::move(row)).ok());
  }
  return table;
}

TEST_F(PagedSnapshotTest, RoundTripsEveryCellThroughPages) {
  Table table = MixedTable(5000);
  auto written = store::WriteSnapshot(table, Path("orders.snap"));
  ASSERT_TRUE(written.ok()) << written.status().ToString();

  auto snap = OpenSnapshotPaged(Path("orders.snap"), TinyPool());
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ((*snap)->num_rows(), 5000u);
  EXPECT_EQ((*snap)->num_columns(), 4u);
  EXPECT_EQ((*snap)->fingerprint(), written->fingerprint);
  EXPECT_EQ((*snap)->schema().name(), "orders");
  EXPECT_TRUE((*snap)->typed(0));
  EXPECT_FALSE((*snap)->has_null(0));
  EXPECT_TRUE((*snap)->has_null(1));

  for (size_t c = 0; c < 4; ++c) {
    auto cursor = (*snap)->Codes(c);
    for (size_t r = 0; r < table.num_rows(); ++r) {
      EXPECT_EQ(DecodeCell(**snap, cursor.get(), c, r), Rows(table)[r][c])
          << "cell (" << r << ", " << c << ")";
    }
  }
}

TEST_F(PagedSnapshotTest, BatchFetchAgreesWithSingleCodeReads) {
  Table table = MixedTable(7000);
  ASSERT_TRUE(store::WriteSnapshot(table, Path("t.snap")).ok());
  auto snap = OpenSnapshotPaged(Path("t.snap"), TinyPool());
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();

  auto batch_cursor = (*snap)->Codes(1);
  auto point_cursor = (*snap)->Codes(1);
  size_t rows = (*snap)->num_rows();
  for (size_t start = 0; start < rows; start += 2048) {
    size_t count = std::min<size_t>(2048, rows - start);
    const uint32_t* codes = batch_cursor->Fetch(start, count);
    for (size_t i = 0; i < count; ++i) {
      ASSERT_EQ(codes[i], point_cursor->At(start + i))
          << "row " << (start + i);
    }
  }
}

TEST_F(PagedSnapshotTest, DictionaryStreamAndRandomAccessAgree) {
  Table table = MixedTable(900);
  ASSERT_TRUE(store::WriteSnapshot(table, Path("t.snap")).ok());
  auto snap = OpenSnapshotPaged(Path("t.snap"), TinyPool());
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();

  for (size_t c = 0; c < 4; ++c) {
    std::vector<Value> streamed((*snap)->dict_size(c));
    uint32_t seen = 0;
    ASSERT_TRUE((*snap)
                    ->ForEachDictValue(c,
                                       [&](uint32_t code, const Value& v) {
                                         EXPECT_EQ(code, seen++);
                                         streamed[code] = v;
                                       })
                    .ok());
    EXPECT_EQ(seen, (*snap)->dict_size(c));
    for (uint32_t code = 0; code < (*snap)->dict_size(c); ++code) {
      auto value = (*snap)->DictValueAt(c, code);
      ASSERT_TRUE(value.ok()) << value.status().ToString();
      EXPECT_EQ(*value, streamed[code]) << "column " << c << " code " << code;
    }
    auto past = (*snap)->DictValueAt(c, (*snap)->dict_size(c));
    EXPECT_FALSE(past.ok());
  }
}

TEST_F(PagedSnapshotTest, OversizedStringValuesSpanPages) {
  RelationSchema schema("blobs");
  ASSERT_TRUE(schema.AddAttribute("id", DataType::kInt64).ok());
  ASSERT_TRUE(schema.AddAttribute("body", DataType::kString).ok());
  Table table(schema);
  // Values far larger than kPageSize: they span 3-5 consecutive pages and
  // must reassemble exactly through a pool of only kMinFrames frames.
  std::string big_a(3 * kPageSize + 17, 'a');
  std::string big_b(5 * kPageSize - 9, 'b');
  for (size_t i = 0; i < big_a.size(); ++i) {
    big_a[i] = static_cast<char>('a' + (i * 131) % 23);
  }
  for (int i = 0; i < 10; ++i) {
    ValueVector row;
    row.push_back(Value::Int(i));
    row.push_back(i == 7   ? Value::Null()
                  : i == 3 ? Value::Text(big_b)
                           : Value::Text(big_a + std::to_string(i % 2)));
    EXPECT_TRUE(table.Insert(std::move(row)).ok());
  }
  ASSERT_TRUE(store::WriteSnapshot(table, Path("blobs.snap")).ok());

  auto snap = OpenSnapshotPaged(Path("blobs.snap"), TinyPool());
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  auto cursor = (*snap)->Codes(1);
  for (size_t r = 0; r < table.num_rows(); ++r) {
    EXPECT_EQ(DecodeCell(**snap, cursor.get(), 1, r), Rows(table)[r][1])
        << "row " << r;
  }
}

TEST_F(PagedSnapshotTest, ErrorMessagesMatchTheWholeFileLoader) {
  Table table = MixedTable(800);
  ASSERT_TRUE(store::WriteSnapshot(table, Path("t.snap")).ok());
  std::ifstream in(Path("t.snap"), std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();

  struct Corruption {
    const char* name;
    std::function<std::string(std::string)> apply;
  };
  std::vector<Corruption> corruptions = {
      {"bad_magic",
       [](std::string b) {
         b[0] ^= 0x40;
         return b;
       }},
      {"schema_flip",
       [](std::string b) {
         b[8 + 12 + 2] ^= 0x01;  // inside the schema blob
         return b;
       }},
      {"payload_flip",
       [](std::string b) {
         b[b.size() / 2] ^= 0x01;  // inside some column payload
         return b;
       }},
      {"truncated_tail",
       [](std::string b) {
         b.resize(b.size() - 37);  // footer and part of the last column gone
         return b;
       }},
      {"truncated_header",
       [](std::string b) {
         b.resize(6);
         return b;
       }},
  };

  for (const Corruption& corruption : corruptions) {
    std::string path = Path(std::string("bad_") + corruption.name + ".snap");
    std::string mutated = corruption.apply(bytes);
    std::ofstream out(path, std::ios::binary);
    out.write(mutated.data(), static_cast<std::streamsize>(mutated.size()));
    out.close();

    auto whole = store::LoadSnapshot(path);
    auto paged = OpenSnapshotPaged(path, TinyPool());
    ASSERT_FALSE(whole.ok()) << corruption.name;
    ASSERT_FALSE(paged.ok()) << corruption.name;
    EXPECT_EQ(paged.status().ToString(), whole.status().ToString())
        << corruption.name;
  }
}

TEST_F(PagedSnapshotTest, OpenFailpointSurfaces) {
  Table table = MixedTable(10);
  ASSERT_TRUE(store::WriteSnapshot(table, Path("t.snap")).ok());
  ASSERT_TRUE(Failpoints::Instance().Arm("pagestore.open", "error#1").ok());
  auto snap = OpenSnapshotPaged(Path("t.snap"), TinyPool());
  ASSERT_FALSE(snap.ok());
  EXPECT_EQ(snap.status().code(), StatusCode::kIoError);
  EXPECT_TRUE(OpenSnapshotPaged(Path("t.snap"), TinyPool()).ok());
}

TEST_F(PagedSnapshotTest, EmptyExtensionOpens) {
  Table table = MixedTable(0);
  ASSERT_TRUE(store::WriteSnapshot(table, Path("empty.snap")).ok());
  auto snap = OpenSnapshotPaged(Path("empty.snap"), TinyPool());
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ((*snap)->num_rows(), 0u);
}

}  // namespace
}  // namespace dbre::pagestore
