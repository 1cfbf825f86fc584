#include "relational/csv.h"

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "support/table_rows.h"

namespace dbre {
namespace {

Table MakeTable() {
  RelationSchema schema("T");
  EXPECT_TRUE(schema.AddAttribute("id", DataType::kInt64).ok());
  EXPECT_TRUE(schema.AddAttribute("name", DataType::kString).ok());
  EXPECT_TRUE(schema.AddAttribute("score", DataType::kDouble).ok());
  return Table(std::move(schema));
}

TEST(CsvTest, LoadsSimpleRows) {
  Table table = MakeTable();
  auto loaded = LoadCsvText("id,name,score\n1,alice,3.5\n2,bob,4\n", &table);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(*loaded, 2u);
  EXPECT_EQ(Rows(table)[0][0], Value::Int(1));
  EXPECT_EQ(Rows(table)[0][1], Value::Text("alice"));
  EXPECT_EQ(Rows(table)[1][2], Value::Real(4.0));
}

TEST(CsvTest, HeaderMayReorderColumns) {
  Table table = MakeTable();
  auto loaded = LoadCsvText("score,id,name\n1.5,7,x\n", &table);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(Rows(table)[0][0], Value::Int(7));
  EXPECT_EQ(Rows(table)[0][2], Value::Real(1.5));
}

TEST(CsvTest, EmptyAndNullBecomeNull) {
  Table table = MakeTable();
  auto loaded = LoadCsvText("id,name,score\n1,,\n2,NULL,2.0\n", &table);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(Rows(table)[0][1].is_null());
  EXPECT_TRUE(Rows(table)[0][2].is_null());
  EXPECT_TRUE(Rows(table)[1][1].is_null());
}

TEST(CsvTest, QuotedFieldsWithCommasAndQuotes) {
  Table table = MakeTable();
  auto loaded =
      LoadCsvText("id,name,score\n1,\"a,b\",1.0\n2,\"say \"\"hi\"\"\",2.0\n",
                  &table);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(Rows(table)[0][1], Value::Text("a,b"));
  EXPECT_EQ(Rows(table)[1][1], Value::Text("say \"hi\""));
}

TEST(CsvTest, QuotedEmptyStringIsNotNull) {
  Table table = MakeTable();
  auto loaded = LoadCsvText("id,name,score\n1,\"\",1.0\n", &table);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(Rows(table)[0][1], Value::Text(""));
}

TEST(CsvTest, QuotedNewlinesSupported) {
  Table table = MakeTable();
  auto loaded = LoadCsvText("id,name,score\n1,\"two\nlines\",1.0\n", &table);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(Rows(table)[0][1], Value::Text("two\nlines"));
}

TEST(CsvTest, BlankLinesSkipped) {
  Table table = MakeTable();
  auto loaded = LoadCsvText("id,name,score\n\n1,a,1.0\n\n", &table);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, 1u);
}

TEST(CsvTest, ErrorsAreDescriptive) {
  Table table = MakeTable();
  EXPECT_EQ(LoadCsvText("", &table).status().code(), StatusCode::kParseError);
  EXPECT_EQ(LoadCsvText("id,name\n1,a\n", &table).status().code(),
            StatusCode::kParseError);  // wrong column count
  EXPECT_EQ(LoadCsvText("id,name,nope\n1,a,2\n", &table).status().code(),
            StatusCode::kNotFound);  // unknown column
  EXPECT_EQ(LoadCsvText("id,id,name\n1,2,a\n", &table).status().code(),
            StatusCode::kParseError);  // duplicate column
  EXPECT_EQ(LoadCsvText("id,name,score\n1,a\n", &table).status().code(),
            StatusCode::kParseError);  // short record
  EXPECT_EQ(LoadCsvText("id,name,score\nx,a,1.0\n", &table).status().code(),
            StatusCode::kParseError);  // bad int
  EXPECT_EQ(LoadCsvText("id,name,score\n1,\"unterminated,1.0\n", &table)
                .status()
                .code(),
            StatusCode::kParseError);
}

TEST(CsvTest, RoundTripsThroughText) {
  Table table = MakeTable();
  ASSERT_TRUE(
      table.Insert({Value::Int(1), Value::Text("a,b"), Value::Real(2.5)})
          .ok());
  ASSERT_TRUE(table.Insert({Value::Int(2), Value::Null(), Value::Null()}).ok());
  ASSERT_TRUE(table.Insert({Value::Int(3), Value::Text(""), Value::Real(0)})
                  .ok());
  std::string csv = WriteCsvText(table);

  Table reloaded = MakeTable();
  auto loaded = LoadCsvText(csv, &reloaded);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(reloaded.num_rows(), table.num_rows());
  for (size_t i = 0; i < table.num_rows(); ++i) {
    EXPECT_EQ(Rows(reloaded)[i], Rows(table)[i]) << "row " << i;
  }
}

// Text that merely looks like NULL must come back as the same text, and
// real NULLs must come back as NULL — the writer quotes every
// NULL-lookalike so the reader can tell them apart.
TEST(CsvTest, NullLookalikeTextRoundTrips) {
  Table table = MakeTable();
  const char* lookalikes[] = {"NULL", "null", "Null", "nUlL", " ",
                              "   ",  "\t",   " null ", "  x  "};
  int64_t id = 0;
  for (const char* text : lookalikes) {
    ASSERT_TRUE(
        table.Insert({Value::Int(++id), Value::Text(text), Value::Real(1.0)})
            .ok());
  }
  ASSERT_TRUE(
      table.Insert({Value::Int(++id), Value::Null(), Value::Null()}).ok());
  ASSERT_TRUE(
      table.Insert({Value::Int(++id), Value::Text(""), Value::Real(0)}).ok());

  std::string csv = WriteCsvText(table);
  Table reloaded = MakeTable();
  auto loaded = LoadCsvText(csv, &reloaded);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(reloaded.num_rows(), table.num_rows());
  for (size_t i = 0; i < table.num_rows(); ++i) {
    EXPECT_EQ(Rows(reloaded)[i], Rows(table)[i]) << "row " << i;
  }
}

// Double round trip: write ∘ load ∘ write must be a fixed point for every
// hazard class (delimiters, quotes, newlines, NULL lookalikes, whitespace).
TEST(CsvTest, WriteLoadWriteIsIdempotent) {
  Table table = MakeTable();
  const char* texts[] = {"plain", "a,b", "say \"hi\"", "two\nlines",
                         "NULL",  " ",   "", " padded "};
  int64_t id = 0;
  for (const char* text : texts) {
    ASSERT_TRUE(
        table.Insert({Value::Int(++id), Value::Text(text), Value::Real(1.0)})
            .ok());
  }
  std::string first = WriteCsvText(table);
  Table reloaded = MakeTable();
  ASSERT_TRUE(LoadCsvText(first, &reloaded).ok());
  EXPECT_EQ(WriteCsvText(reloaded), first);
}

// A quoted field is explicit data, never NULL: in a string column it is
// taken verbatim, in a typed column a quoted "NULL" is a parse error
// rather than a silent NULL.
TEST(CsvTest, QuotedFieldsNeverParseAsNull) {
  Table table = MakeTable();
  auto loaded =
      LoadCsvText("id,name,score\n1,\"NULL\",1.0\n2,\" \",2.0\n", &table);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(Rows(table)[0][1], Value::Text("NULL"));
  EXPECT_EQ(Rows(table)[1][1], Value::Text(" "));

  Table bad = MakeTable();
  EXPECT_EQ(
      LoadCsvText("id,name,score\n\"NULL\",a,1.0\n", &bad).status().code(),
      StatusCode::kParseError);
}

// Unquoted fields keep the lenient convention: empty or NULL (any case)
// means SQL NULL.
TEST(CsvTest, UnquotedNullStaysNull) {
  Table table = MakeTable();
  auto loaded = LoadCsvText("id,name,score\n1,nUlL,\n", &table);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(Rows(table)[0][1].is_null());
  EXPECT_TRUE(Rows(table)[0][2].is_null());
}

// Error messages must count physical lines, not records — a quoted field
// with embedded newlines shifts everything after it.
TEST(CsvTest, ErrorLineNumbersCountEmbeddedNewlines) {
  Table table = MakeTable();
  // Header = line 1; record 1 spans lines 2-4 ("a\nb\nc"); the bad record
  // (3 fields expected, 2 given) starts on line 5.
  auto loaded = LoadCsvText(
      "id,name,score\n1,\"a\nb\nc\",1.0\n2,oops\n", &table);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("line 5"), std::string::npos)
      << loaded.status();
}

TEST(CsvTest, ErrorLineNumbersWithoutQuotedNewlines) {
  Table table = MakeTable();
  auto loaded = LoadCsvText("id,name,score\n1,a,1.0\n\n2,b\n", &table);
  ASSERT_FALSE(loaded.ok());
  // Header line 1, good record line 2, blank line 3, bad record line 4.
  EXPECT_NE(loaded.status().ToString().find("line 4"), std::string::npos)
      << loaded.status();
}

// --- Parser edge cases, with the exact messages loaders have always given --

// T(id*, name, score) with id declared not-null.
Table MakeNotNullTable() {
  RelationSchema schema("T");
  EXPECT_TRUE(schema.AddAttribute("id", DataType::kInt64, true).ok());
  EXPECT_TRUE(schema.AddAttribute("name", DataType::kString).ok());
  EXPECT_TRUE(schema.AddAttribute("score", DataType::kDouble).ok());
  return Table(std::move(schema));
}

std::string LoadError(std::string_view csv, Table* table) {
  auto loaded = LoadCsvText(csv, table);
  return loaded.ok() ? "ok" : loaded.status().ToString();
}

TEST(CsvEdgeTest, DoubledQuotesAndQuotedVersusUnquotedEmpty) {
  Table table = MakeTable();
  auto loaded = LoadCsvText(
      "id,name,score\n"
      "1,\"a\"\"b\",1\n"    // "" inside quotes is one quote
      "2,\"\"\"\",1\n"      // a field that is just a quote
      "3,\"\",\n"           // quoted empty: ""; unquoted empty: NULL
      "4,,\n"
      "5,\"ab\"cd,1\n"      // bytes after the closing quote are text
      "6,ab\"cd,1\n",       // a quote inside an unquoted field is text
      &table);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(*loaded, 6u);
  EXPECT_EQ(Rows(table)[0][1], Value::Text("a\"b"));
  EXPECT_EQ(Rows(table)[1][1], Value::Text("\""));
  EXPECT_EQ(Rows(table)[2][1], Value::Text(""));
  EXPECT_TRUE(Rows(table)[2][2].is_null());
  EXPECT_TRUE(Rows(table)[3][1].is_null());
  EXPECT_TRUE(Rows(table)[3][2].is_null());
  EXPECT_EQ(Rows(table)[4][1], Value::Text("abcd"));
  EXPECT_EQ(Rows(table)[5][1], Value::Text("ab\"cd"));

  // A quoted empty field in a typed column must parse, and "" is no int.
  Table typed = MakeTable();
  EXPECT_EQ(LoadError("id,name,score\n\"\",a,1\n", &typed),
            "parse_error: not an int64: ''");
}

TEST(CsvEdgeTest, QuotedNullIsText) {
  Table table = MakeTable();
  ASSERT_TRUE(LoadCsvText("id,name,score\n1,\"NULL\",1\n2,NULL,1\n", &table)
                  .ok());
  EXPECT_EQ(Rows(table)[0][1], Value::Text("NULL"));
  EXPECT_TRUE(Rows(table)[1][1].is_null());
  Table typed = MakeTable();
  EXPECT_EQ(LoadError("id,name,score\n\"NULL\",a,1\n", &typed),
            "parse_error: not an int64: 'NULL'");
}

TEST(CsvEdgeTest, EmbeddedLineBreaksKeepPhysicalLineNumbers) {
  // The quoted field breaks with \n, \r\n and a lone \r: three physical
  // lines, so the short record after it starts on line 6.
  Table table = MakeTable();
  EXPECT_EQ(LoadError("id,name,score\n1,\"a\nb\r\nc\rd\",1\n2,x\n", &table),
            "parse_error: CSV record at line 6 has 2 fields, expected 3");
  EXPECT_EQ(Rows(table)[0][1], Value::Text("a\nb\r\nc\rd"));
}

TEST(CsvEdgeTest, CrlfAndBlankLines) {
  Table table = MakeTable();
  auto loaded = LoadCsvText(
      "id,name,score\r\n\r\n1,a,2\r\n\n\r\n3,b,4\r\n", &table);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(*loaded, 2u);
  EXPECT_EQ(Rows(table)[1], (ValueVector{Value::Int(3), Value::Text("b"),
                                       Value::Real(4)}));
  Table bad = MakeTable();
  EXPECT_EQ(LoadError("id,name,score\r\n\r\n1,a\r\n", &bad),
            "parse_error: CSV record at line 3 has 2 fields, expected 3");
}

TEST(CsvEdgeTest, TrailingRecordWithoutNewline) {
  Table table = MakeTable();
  auto loaded = LoadCsvText("id,name,score\n1,a,1\n2,\"b\",", &table);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(*loaded, 2u);
  EXPECT_EQ(Rows(table)[1][1], Value::Text("b"));
  EXPECT_TRUE(Rows(table)[1][2].is_null());  // the empty field after ','
  Table unterminated = MakeTable();
  EXPECT_EQ(LoadError("id,name,score\n1,\"a,1", &unterminated),
            "parse_error: unterminated quoted CSV field");
}

TEST(CsvEdgeTest, TypeAndNotNullErrors) {
  Table ints = MakeNotNullTable();
  EXPECT_EQ(LoadError("id,name,score\nx,a,1\n", &ints),
            "parse_error: not an int64: 'x'");
  Table doubles = MakeNotNullTable();
  EXPECT_EQ(LoadError("id,name,score\n1,a,zz\n", &doubles),
            "parse_error: not a double: 'zz'");
  // Rows before the failing one stay loaded, as with row-by-row Insert.
  Table nulls = MakeNotNullTable();
  EXPECT_EQ(LoadError("id,name,score\n1,a,1\nNULL,b,2\n", &nulls),
            "invalid_argument: NULL in not-null attribute T.id");
  EXPECT_EQ(nulls.num_rows(), 1u);
  // Unique declarations imply not-null, checked through the same mask.
  RelationSchema keyed("K");
  ASSERT_TRUE(keyed.AddAttribute("id", DataType::kInt64).ok());
  ASSERT_TRUE(keyed.AddAttribute("name", DataType::kString).ok());
  ASSERT_TRUE(keyed.DeclareUnique({"name"}).ok());
  Table keyed_table(std::move(keyed));
  EXPECT_EQ(LoadError("name,id\n,1\n", &keyed_table),
            "invalid_argument: NULL in not-null attribute K.name");
}

// One double column holding `values`, in order.
Table DoubleTable(const std::vector<double>& values) {
  RelationSchema schema("D");
  EXPECT_TRUE(schema.AddAttribute("x", DataType::kDouble).ok());
  Table table(schema);
  for (double v : values) EXPECT_TRUE(table.Insert({Value::Real(v)}).ok());
  return table;
}

TEST(CsvTest, DoublesRoundTripBitIdentically) {
  std::mt19937_64 rng(20260417);
  std::vector<double> values = {
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
      9007199254740991.0,  // 2^53 - 1
      9007199254740992.0,  // 2^53
      9007199254740993.0,  // 2^53 + 1 (rounds to an even neighbour)
      0.1234567,
      1234567.0,
      3.141592653589793,
      -0.0,
      std::numeric_limits<double>::quiet_NaN(),
  };
  for (int i = 0; i < 2000; ++i) {
    // Random bit patterns cover subnormals and extreme exponents.
    const double v = std::bit_cast<double>(rng());
    if (v != 0.0) values.push_back(v);
  }
  Table table = DoubleTable(values);
  Table loaded = DoubleTable({});
  auto rows = LoadCsvText(WriteCsvText(table), &loaded);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(*rows, values.size());
  const std::vector<ValueVector> decoded = Rows(loaded);
  for (size_t i = 0; i < values.size(); ++i) {
    const double got = decoded[i][0].as_real();
    if (std::isnan(values[i])) {
      EXPECT_TRUE(std::isnan(got)) << "row " << i;
    } else {
      EXPECT_EQ(std::bit_cast<uint64_t>(got),
                std::bit_cast<uint64_t>(values[i]))
          << "row " << i << ": " << values[i] << " came back as " << got;
    }
  }
}

TEST(CsvTest, ShortDoublesExportAsValueToString) {
  // Doubles with at most six significant digits print exactly as they
  // always have (Value::ToString); among them every salary of the paper
  // example, so its exported CSVs do not change.
  std::mt19937_64 rng(7);
  std::vector<double> values;
  for (int salary = 1000; salary < 1600; ++salary) values.push_back(salary);
  for (int i = 0; i < 2000; ++i) {
    char text[32];
    std::snprintf(text, sizeof text, "%.*g", 1 + static_cast<int>(rng() % 6),
                  std::ldexp(static_cast<double>(rng() % 1000000) - 500000.0,
                             static_cast<int>(rng() % 80) - 40));
    values.push_back(std::strtod(text, nullptr));
  }
  const std::string csv = WriteCsvText(DoubleTable(values));
  std::string expected = "x\n";
  for (double v : values) expected += Value::Real(v).ToString() + "\n";
  // The writer renders each distinct value once, from its dictionary entry.
  EXPECT_EQ(csv, expected);
}

TEST(CsvTest, ParallelLoadsMatchSequentialLoads) {
  // dbre_cli loads its relations concurrently: each load writes only its
  // own table, so the result is that of loading them one at a time.
  constexpr size_t kTables = 4;
  std::vector<std::string> texts;
  for (size_t t = 0; t < kTables; ++t) {
    std::string csv = "id,name,score\n";
    for (int i = 0; i < 3000; ++i) {
      csv += std::to_string(i) + ",n" + std::to_string((i * (t + 3)) % 97) +
             "," + std::to_string(i % 13) + ".5\n";
    }
    texts.push_back(std::move(csv));
  }
  std::vector<Table> sequential(kTables, MakeTable());
  for (size_t t = 0; t < kTables; ++t) {
    ASSERT_TRUE(LoadCsvText(texts[t], &sequential[t]).ok());
  }
  std::vector<Table> parallel(kTables, MakeTable());
  std::vector<Status> loaded(kTables);
  ParallelFor(kTables, kTables, [&](size_t t) {
    loaded[t] = LoadCsvText(texts[t], &parallel[t]).status();
  });
  for (size_t t = 0; t < kTables; ++t) {
    ASSERT_TRUE(loaded[t].ok()) << loaded[t].ToString();
    EXPECT_EQ(Rows(parallel[t]), Rows(sequential[t])) << "table " << t;
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(parallel[t].extension().codes(c),
                sequential[t].extension().codes(c));
    }
  }
}

TEST(CsvTest, FileRoundTrip) {
  Table table = MakeTable();
  ASSERT_TRUE(
      table.Insert({Value::Int(1), Value::Text("x"), Value::Real(1.0)}).ok());
  std::string path = ::testing::TempDir() + "/dbre_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(table, path).ok());
  Table reloaded = MakeTable();
  auto loaded = LoadCsvFile(path, &reloaded);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(Rows(reloaded)[0], Rows(table)[0]);
  EXPECT_EQ(LoadCsvFile("/nonexistent/x.csv", &reloaded).status().code(),
            StatusCode::kIoError);
}

TEST(CsvTest, FileLoadsThroughPipe) {
  // A FIFO cannot be sized or seeked; the loader streams it instead. The
  // text spans several read chunks.
  const std::string path = ::testing::TempDir() + "/dbre_csv_pipe.csv";
  std::remove(path.c_str());
  ASSERT_EQ(mkfifo(path.c_str(), 0600), 0);
  constexpr int kRows = 10000;
  std::string text = "id,name,score\n";
  for (int i = 0; i < kRows; ++i) {
    text += std::to_string(i) + ",name" + std::to_string(i) + ",1.5\n";
  }
  std::thread writer([&path, &text] {
    std::ofstream out(path, std::ios::binary);  // blocks until a reader opens
    out << text;
  });
  Table table = MakeTable();
  auto loaded = LoadCsvFile(path, &table);
  writer.join();
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(*loaded, static_cast<size_t>(kRows));
  EXPECT_EQ(Rows(table)[kRows - 1][1], Value::Text("name9999"));
}

TEST(CsvTest, DatabaseExportImportRoundTrip) {
  Database db;
  for (const char* name : {"A", "B"}) {
    RelationSchema schema(name);
    ASSERT_TRUE(schema.AddAttribute("id", DataType::kInt64).ok());
    ASSERT_TRUE(schema.AddAttribute("label", DataType::kString).ok());
    ASSERT_TRUE(db.CreateRelation(std::move(schema)).ok());
    Table* table = *db.GetMutableTable(name);
    for (int64_t i = 1; i <= 3; ++i) {
      ASSERT_TRUE(table
                      ->Insert({Value::Int(i),
                                Value::Text(std::string(name) + "_" +
                                            std::to_string(i))})
                      .ok());
    }
  }
  std::string directory = ::testing::TempDir() + "/dbre_csv_db";
  auto written = ExportDatabaseCsv(db, directory);
  ASSERT_TRUE(written.ok()) << written.status();
  EXPECT_EQ(*written, 2u);

  // Import into a fresh catalog with the same schemas.
  Database reloaded;
  for (const char* name : {"A", "B", "NoFile"}) {
    RelationSchema schema(name);
    ASSERT_TRUE(schema.AddAttribute("id", DataType::kInt64).ok());
    ASSERT_TRUE(schema.AddAttribute("label", DataType::kString).ok());
    ASSERT_TRUE(reloaded.CreateRelation(std::move(schema)).ok());
  }
  auto loaded = ImportDatabaseCsv(directory, &reloaded);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(*loaded, 2u);  // NoFile.csv does not exist → skipped
  for (const char* name : {"A", "B"}) {
    EXPECT_EQ(Rows((**reloaded.GetTable(name))),
              Rows((**db.GetTable(name))));
  }
  EXPECT_EQ((**reloaded.GetTable("NoFile")).num_rows(), 0u);
  EXPECT_FALSE(ImportDatabaseCsv(directory, nullptr).ok());
}

}  // namespace
}  // namespace dbre
