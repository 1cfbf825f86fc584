#include "sql/executor.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <sstream>
#include <utility>

#include "common/string_util.h"
#include "relational/query_cache.h"
#include "sql/compare.h"
#include "sql/parser.h"

namespace dbre::sql {
namespace {

Ternary And(Ternary a, Ternary b) {
  if (a == Ternary::kFalse || b == Ternary::kFalse) return Ternary::kFalse;
  if (a == Ternary::kTrue && b == Ternary::kTrue) return Ternary::kTrue;
  return Ternary::kUnknown;
}

Ternary Or(Ternary a, Ternary b) {
  if (a == Ternary::kTrue || b == Ternary::kTrue) return Ternary::kTrue;
  if (a == Ternary::kFalse && b == Ternary::kFalse) return Ternary::kFalse;
  return Ternary::kUnknown;
}

Ternary Not(Ternary a) {
  if (a == Ternary::kTrue) return Ternary::kFalse;
  if (a == Ternary::kFalse) return Ternary::kTrue;
  return Ternary::kUnknown;
}

// One table instance of a FROM clause with its current row, decoded into
// `decoded` through the query cache's RowReader (in either backing).
struct Binding {
  const TableRef* ref = nullptr;
  const Table* table = nullptr;
  const ValueVector* row = nullptr;
  std::shared_ptr<QueryCache> cache;
  std::unique_ptr<EncodedTable::RowReader> reader;
  ValueVector decoded;

  void Bind(size_t index) {
    reader->Read(index, &decoded);
    row = &decoded;
  }
};

using Frame = std::vector<Binding>;

// SQL LIKE with % (any run) and _ (any one character).
bool LikeMatches(std::string_view text, std::string_view pattern) {
  // Iterative two-pointer with backtracking on the last %.
  size_t t = 0, p = 0;
  size_t star_p = std::string_view::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string_view::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

class Evaluator {
 public:
  Evaluator(const Database& database, const ExecutorOptions& options)
      : database_(database), options_(options) {}

  Result<ResultSet> ExecuteStatement(const SelectStatement& statement) {
    DBRE_ASSIGN_OR_RETURN(ResultSet left, ExecuteCore(statement));
    if (statement.set_rhs == nullptr) return left;
    DBRE_ASSIGN_OR_RETURN(ResultSet right,
                          ExecuteStatement(*statement.set_rhs));
    if (left.columns.size() != right.columns.size()) {
      return InvalidArgumentError(
          "set operation over differently-shaped selects");
    }
    // SQL set operations work on distinct rows.
    auto distinct = [](std::vector<ValueVector> rows) {
      std::sort(rows.begin(), rows.end());
      rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
      return rows;
    };
    std::vector<ValueVector> lhs = distinct(std::move(left.rows));
    std::vector<ValueVector> rhs = distinct(std::move(right.rows));
    std::vector<ValueVector> out;
    switch (statement.set_op) {
      case SelectStatement::SetOp::kIntersect:
        std::set_intersection(lhs.begin(), lhs.end(), rhs.begin(),
                              rhs.end(), std::back_inserter(out));
        break;
      case SelectStatement::SetOp::kUnion:
        std::set_union(lhs.begin(), lhs.end(), rhs.begin(), rhs.end(),
                       std::back_inserter(out));
        break;
      case SelectStatement::SetOp::kMinus:
        std::set_difference(lhs.begin(), lhs.end(), rhs.begin(), rhs.end(),
                            std::back_inserter(out));
        break;
      case SelectStatement::SetOp::kNone:
        return InternalError("set_rhs without set_op");
    }
    left.rows = std::move(out);
    return left;
  }

 private:
  Result<ResultSet> ExecuteCore(const SelectStatement& statement) {
    // Resolve the FROM tables.
    Frame frame;
    frame.reserve(statement.from.size());
    for (const TableRef& ref : statement.from) {
      DBRE_ASSIGN_OR_RETURN(const Table* table,
                            database_.GetTable(ref.table));
      Binding binding;
      binding.ref = &ref;
      binding.table = table;
      DBRE_ASSIGN_OR_RETURN(std::shared_ptr<QueryCache> cache,
                            table->query_cache());
      std::vector<size_t> columns(table->schema().arity());
      std::iota(columns.begin(), columns.end(), size_t{0});
      cache->EnsureEncoded(columns);
      binding.reader = std::make_unique<EncodedTable::RowReader>(
          cache->encoded().row_reader(std::move(columns)));
      binding.cache = std::move(cache);
      frame.push_back(std::move(binding));
    }
    env_.push_back(&frame);

    // Classify the select list: plain columns or aggregate COUNTs.
    bool has_count = false, has_scalar = false;
    for (const SelectItem& item : statement.select_list) {
      (item.count ? has_count : has_scalar) = true;
    }
    if (has_count && has_scalar) {
      env_.pop_back();
      return InvalidArgumentError(
          "mixed COUNT and plain columns without GROUP BY support");
    }

    ResultSet result;
    Status failure = Status::Ok();

    // For COUNT queries we gather the counted values; for plain queries,
    // the projected rows.
    std::vector<ValueVector> projected;
    size_t plain_row_count = 0;

    // Enumerate the cross product of the FROM tables.
    std::vector<size_t> cursor(frame.size(), 0);
    bool exhausted = frame.empty();
    for (const Binding& binding : frame) {
      if (binding.table->num_rows() == 0) exhausted = true;
    }
    while (!exhausted) {
      for (size_t i = 0; i < frame.size(); ++i) frame[i].Bind(cursor[i]);
      // Evaluate the ON conditions and the WHERE clause.
      Ternary keep = Ternary::kTrue;
      for (const auto& condition : statement.join_conditions) {
        auto value = EvaluateExpression(*condition);
        if (!value.ok()) {
          failure = value.status();
          break;
        }
        keep = And(keep, *value);
      }
      if (failure.ok() && keep == Ternary::kTrue &&
          statement.where != nullptr) {
        auto value = EvaluateExpression(*statement.where);
        if (!value.ok()) {
          failure = value.status();
        } else {
          keep = And(keep, *value);
        }
      }
      if (!failure.ok()) break;

      if (keep == Ternary::kTrue) {
        ++plain_row_count;
        auto row = ProjectRow(statement.select_list, has_count);
        if (!row.ok()) {
          failure = row.status();
          break;
        }
        projected.push_back(std::move(row).value());
        if (options_.max_intermediate_rows != 0 &&
            projected.size() > options_.max_intermediate_rows) {
          failure = FailedPreconditionError(
              "query exceeded max_intermediate_rows");
          break;
        }
      }
      // Advance the odometer.
      size_t level = frame.size();
      while (level > 0) {
        --level;
        if (++cursor[level] < frame[level].table->num_rows()) break;
        cursor[level] = 0;
        if (level == 0) exhausted = true;
      }
    }
    env_.pop_back();
    DBRE_RETURN_IF_ERROR(failure);

    // Column names.
    DBRE_RETURN_IF_ERROR(
        NameColumns(statement, frame, has_count, &result.columns));

    if (has_count) {
      // Aggregate: one output row of counts.
      ValueVector counts;
      for (size_t c = 0; c < statement.select_list.size(); ++c) {
        const SelectItem& item = statement.select_list[c];
        if (item.star) {
          counts.push_back(Value::Int(static_cast<int64_t>(plain_row_count)));
          continue;
        }
        // COUNT(col): non-NULL values; DISTINCT dedups.
        std::vector<Value> values;
        for (const ValueVector& row : projected) {
          if (!row[c].is_null()) values.push_back(row[c]);
        }
        if (item.distinct) {
          std::sort(values.begin(), values.end());
          values.erase(std::unique(values.begin(), values.end()),
                       values.end());
        }
        counts.push_back(Value::Int(static_cast<int64_t>(values.size())));
      }
      result.rows.push_back(std::move(counts));
      return result;
    }

    if (statement.select_distinct) {
      std::sort(projected.begin(), projected.end());
      projected.erase(std::unique(projected.begin(), projected.end()),
                      projected.end());
    }
    result.rows = std::move(projected);
    return result;
  }

  // Projects the current bound row combination onto the select list. For
  // COUNT items the counted column value is projected (aggregated later).
  Result<ValueVector> ProjectRow(const std::vector<SelectItem>& select_list,
                                 bool for_count) {
    ValueVector out;
    for (const SelectItem& item : select_list) {
      if (item.star) {
        if (for_count) {
          out.push_back(Value::Int(1));  // placeholder; COUNT(*) uses rows
          continue;
        }
        // Expand *: all columns of all (or the qualified) tables in the
        // innermost frame.
        const Frame& frame = *env_.back();
        for (const Binding& binding : frame) {
          if (!item.column.qualifier.empty()) {
            const std::string& name = binding.ref->alias.empty()
                                          ? binding.ref->table
                                          : binding.ref->alias;
            if (name != item.column.qualifier) continue;
          }
          for (const Value& value : *binding.row) out.push_back(value);
        }
        continue;
      }
      DBRE_ASSIGN_OR_RETURN(Value value, ResolveColumnValue(item.column));
      out.push_back(std::move(value));
    }
    return out;
  }

  Status NameColumns(const SelectStatement& statement, const Frame& frame,
                     bool has_count, std::vector<std::string>* names) {
    for (const SelectItem& item : statement.select_list) {
      if (item.star && !has_count) {
        for (const Binding& binding : frame) {
          if (!item.column.qualifier.empty()) {
            const std::string& name = binding.ref->alias.empty()
                                          ? binding.ref->table
                                          : binding.ref->alias;
            if (name != item.column.qualifier) continue;
          }
          for (const Attribute& attribute :
               binding.table->schema().attributes()) {
            names->push_back(attribute.name);
          }
        }
        continue;
      }
      names->push_back(item.ToString());
    }
    return Status::Ok();
  }

  // Looks up a column in the environment, innermost frame first.
  Result<Value> ResolveColumnValue(const ColumnRef& ref) {
    for (size_t depth = env_.size(); depth-- > 0;) {
      const Frame& frame = *env_[depth];
      const Binding* found = nullptr;
      for (const Binding& binding : frame) {
        if (!ref.qualifier.empty()) {
          const std::string& name = binding.ref->alias.empty()
                                        ? binding.ref->table
                                        : binding.ref->alias;
          if (name != ref.qualifier) continue;
          found = &binding;
          break;
        }
        if (binding.table->schema().HasAttribute(ref.column)) {
          if (found != nullptr) {
            return InvalidArgumentError("ambiguous column " + ref.column);
          }
          found = &binding;
        }
      }
      if (found == nullptr) continue;
      auto index = found->table->schema().AttributeIndex(ref.column);
      if (!index.ok()) {
        if (!ref.qualifier.empty()) return index.status();
        continue;  // unqualified: keep searching outer scopes
      }
      if (found->row == nullptr) {
        return InternalError("column referenced outside row context");
      }
      return (*found->row)[*index];
    }
    return NotFoundError("cannot resolve column " + ref.ToString());
  }

  Result<Value> EvaluateOperand(const Operand& operand) {
    switch (operand.kind) {
      case Operand::Kind::kColumn:
        return ResolveColumnValue(operand.column);
      case Operand::Kind::kInteger: {
        DBRE_ASSIGN_OR_RETURN(Value value,
                              Value::Parse(operand.literal,
                                           DataType::kInt64));
        return value;
      }
      case Operand::Kind::kDecimal: {
        DBRE_ASSIGN_OR_RETURN(Value value,
                              Value::Parse(operand.literal,
                                           DataType::kDouble));
        return value;
      }
      case Operand::Kind::kString:
        return Value::Text(operand.literal);
      case Operand::Kind::kHostVariable:
        // Host variables have no value at reverse-engineering time; SQL
        // NULL makes the containing predicate unknown, which is the
        // conservative reading.
        return Value::Null();
      case Operand::Kind::kNull:
        return Value::Null();
    }
    return InternalError("unhandled operand kind");
  }

  Result<Ternary> EvaluateComparison(const Expression& expr) {
    DBRE_ASSIGN_OR_RETURN(Value lhs, EvaluateOperand(expr.lhs));
    DBRE_ASSIGN_OR_RETURN(Value rhs, EvaluateOperand(expr.rhs));
    return Compare(expr.op, lhs, rhs);
  }

  Result<Ternary> EvaluateExpression(const Expression& expr) {
    switch (expr.kind) {
      case Expression::Kind::kComparison:
        return EvaluateComparison(expr);
      case Expression::Kind::kAnd: {
        Ternary value = Ternary::kTrue;
        for (const auto& child : expr.children) {
          DBRE_ASSIGN_OR_RETURN(Ternary v, EvaluateExpression(*child));
          value = And(value, v);
          if (value == Ternary::kFalse) break;
        }
        return value;
      }
      case Expression::Kind::kOr: {
        Ternary value = Ternary::kFalse;
        for (const auto& child : expr.children) {
          DBRE_ASSIGN_OR_RETURN(Ternary v, EvaluateExpression(*child));
          value = Or(value, v);
          if (value == Ternary::kTrue) break;
        }
        return value;
      }
      case Expression::Kind::kNot: {
        if (expr.children.empty()) return InternalError("NOT without child");
        DBRE_ASSIGN_OR_RETURN(Ternary v,
                              EvaluateExpression(*expr.children[0]));
        return Not(v);
      }
      case Expression::Kind::kIsNull: {
        DBRE_ASSIGN_OR_RETURN(Value value, EvaluateOperand(expr.lhs));
        bool is_null = value.is_null();
        return (is_null != expr.negated) ? Ternary::kTrue : Ternary::kFalse;
      }
      case Expression::Kind::kBetween:
        // The parser keeps BETWEEN opaque (bounds discarded): evaluate as
        // unknown, which filters the row without failing the query.
        return Ternary::kUnknown;
      case Expression::Kind::kLike: {
        DBRE_ASSIGN_OR_RETURN(Value text, EvaluateOperand(expr.lhs));
        DBRE_ASSIGN_OR_RETURN(Value pattern, EvaluateOperand(expr.rhs));
        if (text.is_null() || pattern.is_null()) return Ternary::kUnknown;
        if (!text.is_text() || !pattern.is_text()) {
          return InvalidArgumentError("LIKE requires string operands");
        }
        bool matches = LikeMatches(text.as_text(), pattern.as_text());
        return (matches != expr.negated) ? Ternary::kTrue : Ternary::kFalse;
      }
      case Expression::Kind::kInSubquery:
        return EvaluateInSubquery(expr);
      case Expression::Kind::kExists: {
        if (expr.subquery == nullptr) {
          return InternalError("EXISTS without subquery");
        }
        DBRE_ASSIGN_OR_RETURN(ResultSet rows,
                              ExecuteStatement(*expr.subquery));
        bool exists = !rows.rows.empty();
        return (exists != expr.negated) ? Ternary::kTrue : Ternary::kFalse;
      }
    }
    return InternalError("unhandled expression kind");
  }

  Result<Ternary> EvaluateInSubquery(const Expression& expr) {
    if (expr.subquery == nullptr) return InternalError("IN without subquery");
    ValueVector probe;
    for (const ColumnRef& column : expr.in_columns) {
      DBRE_ASSIGN_OR_RETURN(Value value, ResolveColumnValue(column));
      probe.push_back(std::move(value));
    }
    DBRE_ASSIGN_OR_RETURN(ResultSet rows, ExecuteStatement(*expr.subquery));
    bool saw_unknown = false;
    for (const ValueVector& row : rows.rows) {
      if (row.size() != probe.size()) {
        return InvalidArgumentError("IN subquery arity mismatch");
      }
      Ternary match = Ternary::kTrue;
      for (size_t i = 0; i < probe.size() && match != Ternary::kFalse;
           ++i) {
        DBRE_ASSIGN_OR_RETURN(Ternary equal,
                              Compare(ComparisonOp::kEq, probe[i], row[i]));
        match = And(match, equal);
      }
      if (match == Ternary::kTrue) {
        return expr.negated ? Ternary::kFalse : Ternary::kTrue;
      }
      if (match == Ternary::kUnknown) saw_unknown = true;
    }
    if (saw_unknown) return Ternary::kUnknown;
    return expr.negated ? Ternary::kTrue : Ternary::kFalse;
  }

  const Database& database_;
  const ExecutorOptions& options_;
  std::vector<Frame*> env_;
};

}  // namespace

std::string ResultSet::ToString() const {
  // Compute column widths.
  std::vector<size_t> widths(columns.size());
  for (size_t c = 0; c < columns.size(); ++c) widths[c] = columns[c].size();
  std::vector<std::vector<std::string>> rendered;
  for (const ValueVector& row : rows) {
    std::vector<std::string> cells;
    for (size_t c = 0; c < row.size(); ++c) {
      cells.push_back(row[c].ToString());
      if (c < widths.size()) widths[c] = std::max(widths[c], cells[c].size());
    }
    rendered.push_back(std::move(cells));
  }
  std::ostringstream os;
  for (size_t c = 0; c < columns.size(); ++c) {
    os << (c ? " | " : "") << columns[c]
       << std::string(widths[c] - columns[c].size(), ' ');
  }
  os << "\n";
  for (size_t c = 0; c < columns.size(); ++c) {
    os << (c ? "-+-" : "") << std::string(widths[c], '-');
  }
  os << "\n";
  for (const auto& cells : rendered) {
    for (size_t c = 0; c < cells.size(); ++c) {
      size_t width = c < widths.size() ? widths[c] : cells[c].size();
      os << (c ? " | " : "") << cells[c]
         << std::string(width - std::min(width, cells[c].size()), ' ');
    }
    os << "\n";
  }
  return os.str();
}

bool ResultSet::SameRows(const ResultSet& other) const {
  std::vector<ValueVector> a = rows, b = other.rows;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

Result<ResultSet> Execute(const Database& database,
                          const SelectStatement& statement,
                          const ExecutorOptions& options) {
  Evaluator evaluator(database, options);
  return evaluator.ExecuteStatement(statement);
}

Result<ResultSet> ExecuteQuery(const Database& database,
                               std::string_view sql,
                               const ExecutorOptions& options) {
  DBRE_ASSIGN_OR_RETURN(std::unique_ptr<SelectStatement> statement,
                        ParseSelect(sql));
  return Execute(database, *statement, options);
}

Result<size_t> CountDistinct(const Database& database,
                             const std::string& relation,
                             const std::vector<std::string>& attributes) {
  if (attributes.empty()) {
    return InvalidArgumentError("count distinct over no attributes");
  }
  // COUNT(DISTINCT a, b, ...) is not portable SQL; evaluate as the number
  // of distinct non-NULL projections via SELECT DISTINCT.
  std::string sql = "SELECT DISTINCT " + Join(attributes, ", ") + " FROM " +
                    relation;
  DBRE_ASSIGN_OR_RETURN(ResultSet rows, ExecuteQuery(database, sql));
  size_t count = 0;
  for (const ValueVector& row : rows.rows) {
    bool has_null = std::any_of(row.begin(), row.end(),
                                [](const Value& v) { return v.is_null(); });
    if (!has_null) ++count;
  }
  return count;
}

}  // namespace dbre::sql
