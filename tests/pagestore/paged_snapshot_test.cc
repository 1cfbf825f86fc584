#include "pagestore/paged_snapshot.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "pagestore/buffer_pool.h"
#include "relational/encoded_table.h"
#include "relational/table.h"
#include "store/crc32c.h"
#include "store/snapshot.h"
#include "store/snapshot_format.h"
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

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

uint64_t GetU64(const std::string& bytes, size_t at) {
  return store::LoadU64(reinterpret_cast<const unsigned char*>(&bytes[at]));
}
uint32_t GetU32(const std::string& bytes, size_t at) {
  return store::LoadU32(reinterpret_cast<const unsigned char*>(&bytes[at]));
}
void PutU32(std::string* bytes, size_t at, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    (*bytes)[at + i] = static_cast<char>(v >> (8 * i));
  }
}
void PutU64(std::string* bytes, size_t at, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    (*bytes)[at + i] = static_cast<char>(v >> (8 * i));
  }
}

// The format's dictionary entry tags, spelled out so the tests pin the
// bytes on disk rather than the reader's names for them.
constexpr uint8_t kIntTag = 1;
constexpr uint8_t kRealTag = 2;
constexpr uint8_t kBoolTag = 3;
constexpr uint8_t kStringTag = 4;

// The byte offset of column page `column`'s payload and its size, found by
// walking the section headers of a well-formed snapshot.
std::pair<size_t, size_t> FindPage(const std::string& bytes, size_t column) {
  size_t pos = 8 + 12 + GetU64(bytes, 8);
  for (size_t c = 0; c < column; ++c) pos += 12 + GetU64(bytes, pos);
  return {pos + 12, GetU64(bytes, pos)};
}

// Rewrites column page `column`'s payload with `edit`, which may resize it,
// and fixes the page's size and checksum: the file stays checksum-valid, so
// only what the edit changed can be wrong with it.
std::string RewritePage(std::string bytes, size_t column,
                        const std::function<void(std::string*)>& edit) {
  auto [begin, size] = FindPage(bytes, column);
  std::string payload = bytes.substr(begin, size);
  edit(&payload);
  std::string header(12, '\0');
  PutU64(&header, 0, payload.size());
  PutU32(&header, 8, store::Crc32c(payload));
  bytes.replace(begin - 12, size + 12, header + payload);
  return bytes;
}

// The payload offset of dictionary entry `index`, walking the entries by
// their tags (fixed-width entries take 9 bytes, bools 2, strings 5 plus
// their length).
size_t EntryOffset(const std::string& payload, uint32_t index) {
  size_t pos = 5;
  for (uint32_t i = 0; i < index; ++i) {
    const uint8_t tag = static_cast<uint8_t>(payload[pos]);
    pos += tag == kBoolTag     ? 2
           : tag == kStringTag ? 5 + GetU32(payload, pos + 1)
                                      : 9;
  }
  return pos;
}

// The payload offset of the first code (after every dictionary entry).
size_t CodesOffset(const std::string& payload) {
  return EntryOffset(payload, GetU32(payload, 0));
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
  EXPECT_FALSE((*snap)->has_null(0));
  EXPECT_TRUE((*snap)->has_null(1));

  const std::vector<ValueVector> rows = Rows(table);
  for (size_t c = 0; c < 4; ++c) {
    auto cursor = (*snap)->Codes(c);
    for (size_t r = 0; r < table.num_rows(); ++r) {
      EXPECT_EQ(DecodeCell(**snap, cursor.get(), c, r), rows[r][c])
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
         const size_t at = 8 + 12 + 2;  // inside the schema blob
         b.replace(at, 1, 1, static_cast<char>(b.at(at) ^ 0x01));
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
      // Checksum-valid pages whose codes break the encoding's invariant.
      {"out_of_range_code",
       [](std::string b) {
         return RewritePage(std::move(b), 0, [](std::string* payload) {
           PutU32(payload, CodesOffset(*payload), 5000);
         });
       }},
      {"code_out_of_order",
       [](std::string b) {
         return RewritePage(std::move(b), 1, [](std::string* payload) {
           PutU32(payload, CodesOffset(*payload), 1);  // before code 0
         });
       }},
      {"unused_entry",
       [](std::string b) {
         return RewritePage(std::move(b), 0, [](std::string* payload) {
           const size_t end = CodesOffset(*payload);
           std::string entry(9, '\0');
           entry[0] = static_cast<char>(kIntTag);
           PutU64(&entry, 1, 123456789);
           payload->insert(end, entry);
           PutU32(payload, 0, GetU32(*payload, 0) + 1);
         });
       }},
      // Checksum-valid pages whose first entry carries another type's tag.
      {"bool_page_int_entry",
       [](std::string b) {
         return RewritePage(std::move(b), 3, [](std::string* payload) {
           std::string entry(9, '\0');
           entry[0] = static_cast<char>(kIntTag);
           PutU64(&entry, 1, 1);
           payload->replace(EntryOffset(*payload, 0), 2, entry);
         });
       }},
      {"string_page_bool_entry",
       [](std::string b) {
         return RewritePage(std::move(b), 1, [](std::string* payload) {
           const size_t at = EntryOffset(*payload, 0);
           std::string entry = {static_cast<char>(kBoolTag), 1};
           payload->replace(at, 5 + GetU32(*payload, at + 1), entry);
         });
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

// Two decoded cells are the same if they are equal, or both the same NaN.
bool SameCell(const Value& a, const Value& b) {
  if (a.is_real() && b.is_real()) {
    return std::bit_cast<uint64_t>(a.as_real()) ==
           std::bit_cast<uint64_t>(b.as_real());
  }
  return a == b;
}

// A seeded mutation loop over one snapshot (the snapshot half of the
// decoder fuzzing): raw byte flips, truncations and extensions, plus
// checksum-valid rewrites of codes, dict_size, has_null, entry tags and
// string lengths. Every mutant must fail with the same status in both
// readers, or open in both with the same decoded cells.
TEST_F(PagedSnapshotTest, SeededMutantsAgreeWithTheWholeFileLoader) {
  Table table = MixedTable(300);
  ASSERT_TRUE(store::WriteSnapshot(table, Path("t.snap")).ok());
  const std::string bytes = ReadFile(Path("t.snap"));
  const auto pool = std::make_shared<BufferPool>(size_t{1} << 20);
  std::mt19937_64 rng(20260601);
  auto below = [&rng](uint64_t n) { return n == 0 ? 0 : rng() % n; };

  size_t opened = 0;
  size_t rejected = 0;
  for (int i = 0; i < 2000; ++i) {
    std::string mutant = bytes;
    const size_t column = below(4);
    std::string kind;
    switch (below(9)) {
      case 0:
        kind = "flip";
        mutant[below(mutant.size())] ^= static_cast<char>(1 + below(255));
        break;
      case 1:
        kind = "truncate";
        mutant.resize(below(mutant.size()));
        break;
      case 2: {
        kind = "extend";
        std::string extra(1 + below(16), '\0');
        for (char& c : extra) c = static_cast<char>(below(256));
        // Before the footer half the time, so the footer stays valid.
        const size_t at = below(2) == 0
                              ? mutant.size()
                              : mutant.size() - store::kSnapshotFooterSize;
        mutant.insert(at, extra);
        break;
      }
      case 3:
        kind = "code";
        mutant = RewritePage(mutant, column, [&](std::string* payload) {
          const size_t codes = CodesOffset(*payload);
          const size_t row = below((payload->size() - codes) / 4);
          const uint32_t dict_size = GetU32(*payload, 0);
          const uint32_t choices[] = {
              EncodedTable::kNullCode,
              static_cast<uint32_t>(below(dict_size + 2)), dict_size, 5000};
          PutU32(payload, codes + 4 * row, choices[below(4)]);
        });
        break;
      case 4:
        kind = "dict_size";
        mutant = RewritePage(mutant, column, [&](std::string* payload) {
          const uint32_t dict_size = GetU32(*payload, 0);
          const uint32_t choices[] = {dict_size - 1, dict_size + 1, 0,
                                      static_cast<uint32_t>(rng())};
          PutU32(payload, 0, choices[below(4)]);
        });
        break;
      case 5:
        kind = "has_null";
        mutant = RewritePage(mutant, column, [&](std::string* payload) {
          (*payload)[4] = static_cast<char>(below(3));
        });
        break;
      case 6:
        kind = "tag";
        mutant = RewritePage(mutant, column, [&](std::string* payload) {
          const size_t entry =
              EntryOffset(*payload, below(GetU32(*payload, 0)));
          (*payload)[entry] = static_cast<char>(below(6));
        });
        break;
      case 7:
        kind = "mistyped_int";
        // An int64 entry re-tagged as another type's, its bytes unchanged.
        mutant = RewritePage(mutant, 0, [&](std::string* payload) {
          const size_t entry =
              EntryOffset(*payload, below(GetU32(*payload, 0)));
          const uint8_t tags[] = {kRealTag, kBoolTag, kStringTag};
          (*payload)[entry] = static_cast<char>(tags[below(3)]);
        });
        break;
      default:
        kind = "string_length";
        mutant = RewritePage(mutant, 1, [&](std::string* payload) {
          const size_t entry =
              EntryOffset(*payload, below(GetU32(*payload, 0)));
          const uint32_t length = GetU32(*payload, entry + 1);
          const uint32_t choices[] = {length - 1, length + 1, 0,
                                      static_cast<uint32_t>(rng())};
          PutU32(payload, entry + 1, choices[below(4)]);
        });
        break;
    }
    SCOPED_TRACE("mutant " + std::to_string(i) + " (" + kind + ")");
    WriteFile(Path("m.snap"), mutant);

    auto whole = store::LoadSnapshot(Path("m.snap"));
    auto paged = OpenSnapshotPaged(Path("m.snap"), pool);
    ASSERT_EQ(whole.ok(), paged.ok())
        << "whole: " << whole.status().ToString()
        << " paged: " << paged.status().ToString();
    if (!whole.ok()) {
      ++rejected;
      EXPECT_EQ(paged.status().ToString(), whole.status().ToString());
      continue;
    }
    ++opened;
    const EncodedTable& extension = whole->extension;
    ASSERT_EQ((*paged)->num_rows(), extension.num_rows());
    ASSERT_EQ((*paged)->num_columns(), extension.num_columns());
    EXPECT_EQ((*paged)->fingerprint(), whole->fingerprint);
    for (size_t c = 0; c < extension.num_columns(); ++c) {
      EXPECT_EQ((*paged)->has_null(c), extension.has_null(c));
      auto cursor = (*paged)->Codes(c);
      for (size_t r = 0; r < extension.num_rows(); ++r) {
        const uint32_t code = extension.codes(c)[r];
        const Value expected =
            code == EncodedTable::kNullCode ? Value::Null()
                                            : extension.Decode(c, code);
        ASSERT_TRUE(SameCell(DecodeCell(**paged, cursor.get(), c, r),
                             expected))
            << "cell (" << r << ", " << c << ")";
      }
    }
  }
  // Both outcomes occur: has_null rewrites, for one, are harmless.
  EXPECT_GT(opened, 0u);
  EXPECT_GT(rejected, 0u);
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
