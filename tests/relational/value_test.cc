#include "relational/value.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

namespace dbre {
namespace {

TEST(ValueTest, DefaultIsNull) {
  Value value;
  EXPECT_TRUE(value.is_null());
  EXPECT_EQ(value.ToString(), "NULL");
}

TEST(ValueTest, TaggedAccessors) {
  EXPECT_EQ(Value::Int(7).as_int(), 7);
  EXPECT_DOUBLE_EQ(Value::Real(1.5).as_real(), 1.5);
  EXPECT_TRUE(Value::Boolean(true).as_bool());
  EXPECT_EQ(Value::Text("x").as_text(), "x");
}

TEST(ValueTest, EqualityIsTagAware) {
  EXPECT_EQ(Value::Int(1), Value::Int(1));
  EXPECT_NE(Value::Int(1), Value::Int(2));
  EXPECT_NE(Value::Int(1), Value::Real(1.0));
  EXPECT_NE(Value::Int(1), Value::Text("1"));
  EXPECT_EQ(Value::Null(), Value::Null());
  EXPECT_NE(Value::Null(), Value::Int(0));
}

TEST(ValueTest, OrderingIsTotal) {
  EXPECT_LT(Value::Null(), Value::Int(0));  // NULL first
  EXPECT_LT(Value::Int(1), Value::Int(2));
  EXPECT_LT(Value::Text("a"), Value::Text("b"));
}

// `<` must stay a strict weak order with NaN present, or std::sort over
// Values (SELECT DISTINCT, set operations, Restruct's dictionary ranks) is
// undefined.
TEST(ValueTest, OrderIsStrictWeakWithNaN) {
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<Value> values = {
      Value::Null(),
      Value::Int(-3), Value::Int(0), Value::Int(7),
      Value::Real(nan), Value::Real(-inf), Value::Real(-1.5),
      Value::Real(-0.0), Value::Real(0.0), Value::Real(2.5),
      Value::Real(inf), Value::Real(-nan),
      Value::Boolean(false), Value::Boolean(true),
      Value::Text(""), Value::Text("b")};
  auto equivalent = [](const Value& a, const Value& b) {
    return !(a < b) && !(b < a);
  };
  for (size_t i = 0; i < values.size(); ++i) {
    const Value& a = values[i];
    EXPECT_FALSE(a < a) << "irreflexive: " << i;
    for (size_t j = 0; j < values.size(); ++j) {
      const Value& b = values[j];
      EXPECT_FALSE(a < b && b < a) << "asymmetric: " << i << ", " << j;
      for (size_t k = 0; k < values.size(); ++k) {
        const Value& c = values[k];
        if (a < b && b < c) {
          EXPECT_TRUE(a < c) << "transitive: " << i << ", " << j << ", " << k;
        }
        if (equivalent(a, b) && equivalent(b, c)) {
          EXPECT_TRUE(equivalent(a, c))
              << "equivalence transitive: " << i << ", " << j << ", " << k;
        }
      }
    }
  }
  // NaN sorts after every other double, and all NaNs are equivalent.
  EXPECT_LT(Value::Real(inf), Value::Real(nan));
  EXPECT_LT(Value::Real(nan), Value::Boolean(false));
  EXPECT_TRUE(equivalent(Value::Real(nan), Value::Real(-nan)));
  EXPECT_TRUE(equivalent(Value::Real(-0.0), Value::Real(0.0)));
  // `==` is unchanged: each NaN is its own value.
  EXPECT_NE(Value::Real(nan), Value::Real(nan));
  EXPECT_EQ(Value::Real(-0.0), Value::Real(0.0));
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Int(42).Hash(), Value::Int(42).Hash());
  EXPECT_EQ(Value::Text("abc").Hash(), Value::Text("abc").Hash());
  // Different tags with "same" payload should (overwhelmingly) differ.
  EXPECT_NE(Value::Int(0).Hash(), Value::Null().Hash());
}

TEST(ValueTest, MatchesType) {
  EXPECT_TRUE(Value::Int(1).MatchesType(DataType::kInt64));
  EXPECT_FALSE(Value::Int(1).MatchesType(DataType::kString));
  EXPECT_TRUE(Value::Null().MatchesType(DataType::kInt64));
  EXPECT_TRUE(Value::Null().MatchesType(DataType::kString));
}

TEST(ValueParseTest, ParsesInt) {
  auto value = Value::Parse("42", DataType::kInt64);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value->as_int(), 42);
  EXPECT_FALSE(Value::Parse("4x", DataType::kInt64).ok());
  EXPECT_FALSE(Value::Parse("4.2", DataType::kInt64).ok());
}

TEST(ValueParseTest, ParsesNegativeInt) {
  auto value = Value::Parse("-17", DataType::kInt64);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value->as_int(), -17);
}

TEST(ValueParseTest, ParsesDouble) {
  auto value = Value::Parse("3.25", DataType::kDouble);
  ASSERT_TRUE(value.ok());
  EXPECT_DOUBLE_EQ(value->as_real(), 3.25);
  EXPECT_FALSE(Value::Parse("x", DataType::kDouble).ok());
}

TEST(ValueParseTest, ParsesBool) {
  EXPECT_TRUE(Value::Parse("true", DataType::kBool)->as_bool());
  EXPECT_TRUE(Value::Parse("1", DataType::kBool)->as_bool());
  EXPECT_FALSE(Value::Parse("FALSE", DataType::kBool)->as_bool());
  EXPECT_FALSE(Value::Parse("yes", DataType::kBool).ok());
}

TEST(ValueParseTest, ParsesStringTrimmed) {
  EXPECT_EQ(Value::Parse("  hi  ", DataType::kString)->as_text(), "hi");
}

TEST(ValueParseTest, EmptyAndNullLiteralsAreNull) {
  EXPECT_TRUE(Value::Parse("", DataType::kInt64)->is_null());
  EXPECT_TRUE(Value::Parse("NULL", DataType::kString)->is_null());
  EXPECT_TRUE(Value::Parse("null", DataType::kDouble)->is_null());
}

TEST(DataTypeTest, NamesRoundTrip) {
  for (DataType type : {DataType::kInt64, DataType::kDouble, DataType::kBool,
                        DataType::kString}) {
    auto parsed = DataTypeFromName(DataTypeName(type));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, type);
  }
  EXPECT_TRUE(DataTypeFromName("VARCHAR").ok());
  EXPECT_FALSE(DataTypeFromName("blob").ok());
}

TEST(ValueVectorHashTest, ConsistentAndOrderSensitive) {
  ValueVectorHash hash;
  ValueVector a = {Value::Int(1), Value::Text("x")};
  ValueVector b = {Value::Int(1), Value::Text("x")};
  ValueVector c = {Value::Text("x"), Value::Int(1)};
  EXPECT_EQ(hash(a), hash(b));
  EXPECT_NE(hash(a), hash(c));
}

// SketchHashCombine chains per-column keys into the row hashes the
// partition builder groups by. The hashes never leave the process, so only
// determinism and order sensitivity are pinned, not values.
TEST(SketchHashTest, EqualValuesHashEqualAcrossConstruction) {
  EXPECT_EQ(SketchHashCombine(kRowHashSeed, Value::Int(42).Hash()),
            SketchHashCombine(kRowHashSeed, Value::Int(42).Hash()));
  EXPECT_EQ(SketchHashCombine(kRowHashSeed, Value::Text("abc").Hash()),
            SketchHashCombine(kRowHashSeed, Value::Text("abc").Hash()));
  // The combiner is order-sensitive (attribute lists are ordered).
  uint64_t a = Value::Int(1).Hash(), b = Value::Int(2).Hash();
  EXPECT_NE(SketchHashCombine(SketchHashCombine(kRowHashSeed, a), b),
            SketchHashCombine(SketchHashCombine(kRowHashSeed, b), a));
}

}  // namespace
}  // namespace dbre
