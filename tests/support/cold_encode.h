// An independent first-appearance encoder over decoded rows — the reference
// every writer's codes and dictionaries are compared against — and the
// gtest check built on it.
#ifndef DBRE_TESTS_SUPPORT_COLD_ENCODE_H_
#define DBRE_TESTS_SUPPORT_COLD_ENCODE_H_

#include <bit>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "relational/encoded_table.h"
#include "relational/table.h"
#include "support/table_rows.h"

namespace dbre {

struct ColdColumn {
  std::vector<uint32_t> codes;
  std::vector<Value> dictionary;
};

// Codes in first-appearance order per column. Value equality decides
// (±0.0 fold; a NaN never equals anything, so each NaN is a new code), and
// each dictionary entry is the first row's value.
inline std::vector<ColdColumn> ColdEncode(const std::vector<ValueVector>& rows,
                                          size_t arity) {
  std::vector<ColdColumn> columns(arity);
  for (size_t c = 0; c < arity; ++c) {
    std::unordered_map<Value, uint32_t, ValueHash> assigned;
    for (const ValueVector& row : rows) {
      const Value& value = row[c];
      if (value.is_null()) {
        columns[c].codes.push_back(EncodedTable::kNullCode);
        continue;
      }
      auto [it, inserted] = assigned.try_emplace(
          value, static_cast<uint32_t>(columns[c].dictionary.size()));
      if (inserted) columns[c].dictionary.push_back(value);
      columns[c].codes.push_back(it->second);
    }
  }
  return columns;
}

// Bitwise equality, except that any two NaNs match.
inline bool SameBits(const Value& a, const Value& b) {
  if (a.is_real() && b.is_real()) {
    if (std::isnan(a.as_real()) && std::isnan(b.as_real())) return true;
    return std::bit_cast<uint64_t>(a.as_real()) ==
           std::bit_cast<uint64_t>(b.as_real());
  }
  return a == b;
}

// Expects `table`'s (in-memory) codes and dictionaries to equal a cold
// encode of `rows`.
inline void ExpectEncodes(const Table& table,
                          const std::vector<ValueVector>& rows) {
  const EncodedTable& encoded = table.extension();
  ASSERT_FALSE(encoded.paged());
  ASSERT_EQ(encoded.num_rows(), rows.size());
  const std::vector<ColdColumn> cold = ColdEncode(rows, encoded.num_columns());
  for (size_t c = 0; c < encoded.num_columns(); ++c) {
    EXPECT_EQ(encoded.codes(c), cold[c].codes) << "column " << c;
    ASSERT_EQ(encoded.dict_size(c), cold[c].dictionary.size())
        << "column " << c;
    for (uint32_t code = 0; code < encoded.dict_size(c); ++code) {
      EXPECT_TRUE(SameBits(encoded.Decode(c, code), cold[c].dictionary[code]))
          << "column " << c << " code " << code << ": "
          << encoded.Decode(c, code) << " vs " << cold[c].dictionary[code];
    }
    bool has_null = false;
    for (uint32_t code : cold[c].codes) {
      has_null |= code == EncodedTable::kNullCode;
    }
    EXPECT_EQ(encoded.has_null(c), has_null) << "column " << c;
  }
}

// Expects `table`'s codes and dictionaries to equal a cold encode of its
// own decoded rows: the first-appearance invariant every writer keeps.
inline void ExpectColdEncoding(const Table& table) {
  ExpectEncodes(table, Rows(table));
}

}  // namespace dbre

#endif  // DBRE_TESTS_SUPPORT_COLD_ENCODE_H_
