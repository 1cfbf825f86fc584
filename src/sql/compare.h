// The one SQL comparison rule, shared by the SELECT executor and DML.
//
// A comparison is three-valued: a NULL or NaN operand makes it UNKNOWN,
// so it selects nothing, and neither does its negation. Two ints compare
// exactly; an int and a double compare as doubles; two strings and two
// booleans compare directly. Any other pair of types is an error. The
// executor reports it; DML never meets it, because it parses each literal
// at its column's declared type.
#ifndef DBRE_SQL_COMPARE_H_
#define DBRE_SQL_COMPARE_H_

#include <cmath>

#include "common/status.h"
#include "relational/value.h"
#include "sql/ast.h"

namespace dbre::sql {

// SQL three-valued logic.
enum class Ternary { kFalse, kTrue, kUnknown };

inline Result<Ternary> Compare(ComparisonOp op, const Value& a,
                               const Value& b) {
  auto is_nan = [](const Value& v) {
    return v.is_real() && std::isnan(v.as_real());
  };
  if (a.is_null() || b.is_null() || is_nan(a) || is_nan(b)) {
    return Ternary::kUnknown;
  }
  int cmp = 0;
  if (a.is_int() && b.is_int()) {
    cmp = a.as_int() < b.as_int() ? -1 : (a.as_int() > b.as_int() ? 1 : 0);
  } else if ((a.is_int() || a.is_real()) && (b.is_int() || b.is_real())) {
    double da = a.is_int() ? static_cast<double>(a.as_int()) : a.as_real();
    double db = b.is_int() ? static_cast<double>(b.as_int()) : b.as_real();
    cmp = da < db ? -1 : (da > db ? 1 : 0);
  } else if (a.is_text() && b.is_text()) {
    int text_cmp = a.as_text().compare(b.as_text());
    cmp = text_cmp < 0 ? -1 : (text_cmp > 0 ? 1 : 0);
  } else if (a.is_bool() && b.is_bool()) {
    cmp = static_cast<int>(a.as_bool()) - static_cast<int>(b.as_bool());
  } else {
    return InvalidArgumentError("cannot compare " + a.ToString() + " with " +
                                b.ToString());
  }
  bool truth = false;
  switch (op) {
    case ComparisonOp::kEq: truth = cmp == 0; break;
    case ComparisonOp::kNe: truth = cmp != 0; break;
    case ComparisonOp::kLt: truth = cmp < 0; break;
    case ComparisonOp::kLe: truth = cmp <= 0; break;
    case ComparisonOp::kGt: truth = cmp > 0; break;
    case ComparisonOp::kGe: truth = cmp >= 0; break;
  }
  return truth ? Ternary::kTrue : Ternary::kFalse;
}

}  // namespace dbre::sql

#endif  // DBRE_SQL_COMPARE_H_
