// Runtime values stored in table cells.
//
// A `Value` is a tagged union of NULL, 64-bit integer, double, boolean and
// string. Values order NULL-first, then by type tag, then by payload; this
// total order lets value vectors act as map/set keys in projection and
// dependency-checking code. NaN sorts after every other double.
#ifndef DBRE_RELATIONAL_VALUE_H_
#define DBRE_RELATIONAL_VALUE_H_

#include <cmath>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/status.h"

namespace dbre {

// Declared type of an attribute in the data dictionary.
enum class DataType {
  kInt64,
  kDouble,
  kBool,
  kString,
};

// Stable lowercase name ("int64", "double", "bool", "string").
const char* DataTypeName(DataType type);

// Parses a type name as produced by DataTypeName (case-insensitive).
Result<DataType> DataTypeFromName(std::string_view name);

class Value {
 public:
  // NULL value.
  Value() : data_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Int(int64_t v) { return Value(Payload(v)); }
  static Value Real(double v) { return Value(Payload(v)); }
  static Value Boolean(bool v) { return Value(Payload(v)); }
  static Value Text(std::string v) { return Value(Payload(std::move(v))); }

  bool is_null() const { return std::holds_alternative<std::monostate>(data_); }
  bool is_int() const { return std::holds_alternative<int64_t>(data_); }
  bool is_real() const { return std::holds_alternative<double>(data_); }
  bool is_bool() const { return std::holds_alternative<bool>(data_); }
  bool is_text() const { return std::holds_alternative<std::string>(data_); }

  // Accessors abort if the tag does not match; check first.
  int64_t as_int() const { return std::get<int64_t>(data_); }
  double as_real() const { return std::get<double>(data_); }
  bool as_bool() const { return std::get<bool>(data_); }
  const std::string& as_text() const { return std::get<std::string>(data_); }

  // True if this value's tag matches the declared attribute type (NULL
  // matches every type).
  bool MatchesType(DataType type) const;

  // Renders the value for display; NULL renders as "NULL", strings verbatim.
  std::string ToString() const;

  // Controls how Parse treats NULL-lookalike text.
  enum class NullHandling {
    // The literal "NULL" (case-insensitive) or whitespace-only text parses
    // as the NULL value.
    kLenient,
    // Text always parses as a typed value or fails; callers that already
    // know the field is non-NULL (e.g. a quoted CSV field) use this so
    // "NULL" round-trips as data rather than collapsing to SQL NULL.
    kNeverNull,
  };

  // Parses `text` (trimmed of surrounding whitespace) as a value of
  // declared type `type`.
  static Result<Value> Parse(std::string_view text, DataType type,
                             NullHandling nulls = NullHandling::kLenient);

  // NULL-first total order across type tags; used for container keys and
  // sorting, not SQL comparison semantics (sql/compare.h). It stays a
  // strict weak order with NaN present: NaN sorts after every other double
  // and all NaNs are equivalent under `<`, while `==` keeps each NaN its
  // own value, as each NaN cell is its own code.
  friend bool operator==(const Value& a, const Value& b) {
    return a.data_ == b.data_;
  }
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }
  friend bool operator<(const Value& a, const Value& b) {
    const double* x = std::get_if<double>(&a.data_);
    const double* y = std::get_if<double>(&b.data_);
    if (x != nullptr && y != nullptr) {
      return *x < *y || (std::isnan(*y) && !std::isnan(*x));
    }
    return a.data_ < b.data_;
  }

  // Hash compatible with operator==.
  size_t Hash() const;

 private:
  using Payload =
      std::variant<std::monostate, int64_t, double, bool, std::string>;
  explicit Value(Payload payload) : data_(std::move(payload)) {}

  Payload data_;
};

std::ostream& operator<<(std::ostream& os, const Value& value);

// A row (or a projected sub-row) of values.
using ValueVector = std::vector<Value>;

struct ValueVectorHash {
  size_t operator()(const ValueVector& values) const;
};

struct ValueHash {
  size_t operator()(const Value& value) const { return value.Hash(); }
};

}  // namespace dbre

#endif  // DBRE_RELATIONAL_VALUE_H_
