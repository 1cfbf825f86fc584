// The columnar CSV loader against the row-at-a-time reference
// (support/csv_reference.h) on seeded random inputs: quoting and escapes,
// NULL spellings and lookalikes, padding, CRLF, blank lines, embedded line
// breaks, a last record without a newline, every type (-0.0, NaN and inf
// included), arity/type/not-null errors, and loads into non-empty tables.
// Decoded rows must agree up to the sign of zeros, codes and dictionaries
// must equal a cold encode of the reference's rows, and error strings must
// be byte-identical. CSV is untrusted input: CI runs this suite under
// ASan+UBSan.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "relational/csv.h"
#include "relational/table.h"
#include "support/cold_encode.h"
#include "support/csv_reference.h"
#include "support/table_rows.h"

namespace dbre {
namespace {

constexpr int kInputs = 10000;

class Generator {
 public:
  explicit Generator(uint64_t seed) : rng_(seed) {}

  size_t Below(size_t n) { return static_cast<size_t>(rng_() % n); }
  bool Chance(int percent) { return Below(100) < static_cast<size_t>(percent); }

  RelationSchema Schema() {
    RelationSchema schema("R");
    const size_t arity = 1 + Below(4);
    for (size_t i = 0; i < arity; ++i) {
      const DataType type = static_cast<DataType>(Below(4));
      EXPECT_TRUE(schema
                      .AddAttribute("c" + std::to_string(i), type,
                                    /*not_null=*/Chance(20))
                      .ok());
    }
    return schema;
  }

  // A value of `type`, as the reference would parse it from CellText.
  Value Cell(DataType type) {
    switch (type) {
      case DataType::kInt64:
        return Value::Int(static_cast<int64_t>(Below(7)) - 3);
      case DataType::kDouble: {
        static const double kDoubles[] = {0.0, -0.0, 1.5, -2.25, 1e300};
        return Value::Real(kDoubles[Below(5)]);
      }
      case DataType::kBool:
        return Value::Boolean(Chance(50));
      case DataType::kString: {
        static const char* kTexts[] = {"a", "b c", "x,y", "q\"t", ""};
        return Value::Text(kTexts[Below(5)]);
      }
    }
    return Value::Null();
  }

  // The text of one field of `type`: mostly well-formed, sometimes NULL
  // spellings, lookalikes, padding, quoting, or garbage.
  std::string Field(DataType type) {
    const size_t pick = Below(100);
    if (pick < 8) return "";
    if (pick < 12) return Chance(50) ? "NULL" : " null ";
    if (pick < 15) return "\"NULL\"";
    if (pick < 17) return Chance(50) ? "\"\"" : "\"  \"";
    if (pick < 19) return "garbage";
    std::string text;
    switch (type) {
      case DataType::kInt64: {
        static const char* kInts[] = {"0",  "-1", "42", "9223372036854775807",
                                      "-9223372036854775808", "+5", "1.0",
                                      "0x10", "99999999999999999999", "007"};
        text = kInts[Below(10)];
        break;
      }
      case DataType::kDouble: {
        static const char* kDoubles[] = {
            "0",      "-0",     "0.0",     "-0.0",   "1.5",     "1e300",
            "-1e-320", "5e-324", "nan",     "-nan",   "inf",     "-inf",
            "INF",    "Infinity", "1e999", "+2.5",   "0x1p3",   ".5",
            "1.",     "3.141592653589793", "1234567", "1e",    "2.5e-3",
            "1e-400"};
        text = kDoubles[Below(24)];
        break;
      }
      case DataType::kBool: {
        static const char* kBools[] = {"true", "false", "1", "0", "TRUE",
                                       "False", "yes", "2"};
        text = kBools[Below(8)];
        break;
      }
      case DataType::kString: {
        static const char* kTexts[] = {"a",     "b c",   "x,y",    "q\"t",
                                       "line\nbreak", "crlf\r\nin", "null",
                                       "NULL",  " pad ", "tab\t",  "é"};
        text = kTexts[Below(11)];
        break;
      }
    }
    if (Chance(10)) text = " " + text + " ";
    const bool must_quote = text.find_first_of(",\"\n\r") != std::string::npos;
    if (must_quote || Chance(20)) {
      std::string quoted = "\"";
      for (char c : text) {
        if (c == '"') quoted += '"';
        quoted += c;
      }
      quoted += '"';
      if (Chance(3)) quoted += "tail";  // bytes after the closing quote
      text = quoted;
    }
    return text;
  }

  std::string Csv(const RelationSchema& schema) {
    std::vector<size_t> order(schema.arity());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), rng_);
    const char* eol = Chance(30) ? "\r\n" : "\n";
    std::string csv;
    for (size_t i = 0; i < order.size(); ++i) {
      if (i > 0) csv += ',';
      csv += schema.attributes()[order[i]].name;
    }
    csv += eol;
    const size_t records = Below(9);
    for (size_t r = 0; r < records; ++r) {
      if (Chance(5)) csv += eol;  // blank line
      size_t fields = order.size();
      if (Chance(3)) fields = Chance(50) ? fields + 1 : fields - 1;
      for (size_t i = 0; i < fields; ++i) {
        if (i > 0) csv += ',';
        const size_t column = order[std::min(i, order.size() - 1)];
        csv += Field(schema.attributes()[column].type);
      }
      if (r + 1 < records || Chance(70)) csv += eol;
    }
    if (Chance(2)) csv += "\"unterminated";
    return csv;
  }

 private:
  std::mt19937_64 rng_;
};

TEST(CsvDifferentialTest, ColumnarLoaderMatchesRowReference) {
  size_t loaded_rows = 0;
  size_t errors = 0;
  for (int seed = 1; seed <= kInputs; ++seed) {
    Generator gen(static_cast<uint64_t>(seed));
    const RelationSchema schema = gen.Schema();
    Table base(schema);
    std::vector<ValueVector> prior;
    if (gen.Chance(30)) {
      // A non-empty target: the load must continue its dictionaries.
      for (size_t r = gen.Below(5); r > 0; --r) {
        ValueVector row;
        for (const Attribute& attribute : schema.attributes()) {
          row.push_back(gen.Chance(15) && !attribute.not_null
                            ? Value::Null()
                            : gen.Cell(attribute.type));
        }
        if (base.Insert(row).ok()) prior.push_back(row);
      }
      if (gen.Chance(50)) {
        ASSERT_TRUE(base.query_cache().ok());
      }
    }
    const std::string csv = gen.Csv(schema);

    Table expected_table = base;
    std::vector<ValueVector> reference_rows = Rows(base);
    const size_t prior_rows = reference_rows.size();
    Result<size_t> expected =
        reference::LoadCsvText(csv, &expected_table, &reference_rows);
    Table actual_table = base;
    Result<size_t> actual = LoadCsvText(csv, &actual_table);

    ASSERT_EQ(actual.ok(), expected.ok()) << "seed " << seed << "\n" << csv;
    if (expected.ok()) {
      EXPECT_EQ(*actual, *expected) << "seed " << seed;
      loaded_rows += *expected;
    } else {
      EXPECT_EQ(actual.status().ToString(), expected.status().ToString())
          << "seed " << seed << "\n" << csv;
      ++errors;
    }
    // Rows before a failing record stay loaded in both.
    const std::vector<ValueVector> decoded = Rows(actual_table);
    ASSERT_EQ(decoded.size(), reference_rows.size()) << "seed " << seed;
    for (size_t r = 0; r < decoded.size(); ++r) {
      for (size_t c = 0; c < schema.arity(); ++c) {
        const Value& got = decoded[r][c];
        const Value& want = reference_rows[r][c];
        // Value equality folds ±0.0; NaN only matches NaN.
        const bool both_nan = got.is_real() && want.is_real() &&
                              std::isnan(got.as_real()) &&
                              std::isnan(want.as_real());
        EXPECT_TRUE(both_nan || got == want)
            << "seed " << seed << " row " << r << " column " << c << ": "
            << got << " vs " << want;
      }
    }
    ExpectEncodes(actual_table, reference_rows);
    if (HasFailure()) {
      ADD_FAILURE() << "first failing seed " << seed << " (prior rows "
                    << prior_rows << ")\n" << csv;
      return;
    }
  }
  // The generator exercises both outcomes in bulk.
  EXPECT_GT(loaded_rows, 5000u);
  EXPECT_GT(errors, 1000u);
}

}  // namespace
}  // namespace dbre
