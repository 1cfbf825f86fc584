#include "sql/parser.h"

#include <optional>
#include <utility>

#include "sql/reader.h"

namespace dbre::sql {
namespace {

class Parser : public TokenCursor {
 public:
  using TokenCursor::TokenCursor;

  Result<std::unique_ptr<SelectStatement>> ParseStatement() {
    DBRE_ASSIGN_OR_RETURN(std::unique_ptr<SelectStatement> stmt,
                          ParseStatementInScript());
    if (!Check(TokenType::kEnd)) {
      return ErrorHere("trailing input after statement");
    }
    return stmt;
  }

  // Parses one statement, stopping after its optional ';' without requiring
  // end of input (for scripts).
  Result<std::unique_ptr<SelectStatement>> ParseStatementInScript() {
    DBRE_ASSIGN_OR_RETURN(std::unique_ptr<SelectStatement> stmt,
                          ParseSelectCore());
    // Set-operation chaining.
    SelectStatement* tail = stmt.get();
    while (true) {
      SelectStatement::SetOp op = SelectStatement::SetOp::kNone;
      if (MatchKeyword("INTERSECT")) {
        op = SelectStatement::SetOp::kIntersect;
      } else if (MatchKeyword("UNION")) {
        MatchKeyword("ALL");
        op = SelectStatement::SetOp::kUnion;
      } else if (MatchKeyword("MINUS")) {
        op = SelectStatement::SetOp::kMinus;
      } else {
        break;
      }
      DBRE_ASSIGN_OR_RETURN(std::unique_ptr<SelectStatement> rhs,
                            ParseSelectCore());
      tail->set_op = op;
      tail->set_rhs = std::move(rhs);
      tail = tail->set_rhs.get();
    }
    Match(TokenType::kSemicolon);
    return stmt;
  }

  // Skips tokens until just past the next top-level ';' (error recovery).
  void SkipToNextStatement() {
    int depth = 0;
    while (!Check(TokenType::kEnd)) {
      if (Check(TokenType::kLeftParen)) ++depth;
      if (Check(TokenType::kRightParen) && depth > 0) --depth;
      bool was_semicolon = Check(TokenType::kSemicolon) && depth == 0;
      Advance();
      if (was_semicolon) break;
    }
  }

 private:
  Result<ColumnRef> ParseColumnRef() {
    if (!Check(TokenType::kIdentifier)) {
      return ErrorHere("expected column reference");
    }
    ColumnRef ref;
    ref.column = Advance().text;
    if (Match(TokenType::kDot)) {
      if (!Check(TokenType::kIdentifier) && !Check(TokenType::kStar)) {
        return ErrorHere("expected column after '.'");
      }
      ref.qualifier = std::move(ref.column);
      ref.column = Match(TokenType::kStar) ? std::string("*") : Advance().text;
    }
    return ref;
  }

  Result<SelectItem> ParseSelectItem() {
    SelectItem item;
    if (Match(TokenType::kStar)) {
      item.star = true;
      return item;
    }
    if (MatchKeyword("COUNT")) {
      item.count = true;
      DBRE_RETURN_IF_ERROR(Expect(TokenType::kLeftParen));
      if (Match(TokenType::kStar)) {
        item.star = true;
      } else {
        if (MatchKeyword("DISTINCT")) item.distinct = true;
        DBRE_ASSIGN_OR_RETURN(item.column, ParseColumnRef());
      }
      DBRE_RETURN_IF_ERROR(Expect(TokenType::kRightParen));
      return item;
    }
    DBRE_ASSIGN_OR_RETURN(item.column, ParseColumnRef());
    if (item.column.column == "*") item.star = true;
    return item;
  }

  Result<TableRef> ParseTableRef() {
    if (!Check(TokenType::kIdentifier)) {
      return ErrorHere("expected table name");
    }
    TableRef ref;
    ref.table = Advance().text;
    if (MatchKeyword("AS")) {
      if (!Check(TokenType::kIdentifier)) {
        return ErrorHere("expected alias after AS");
      }
      ref.alias = Advance().text;
    } else if (Check(TokenType::kIdentifier)) {
      ref.alias = Advance().text;
    }
    return ref;
  }

  Result<Operand> ParseOperand() {
    Operand op;  // kNull
    switch (Peek().type) {
      case TokenType::kIdentifier: {
        DBRE_ASSIGN_OR_RETURN(ColumnRef ref, ParseColumnRef());
        return Operand::Column(std::move(ref));
      }
      case TokenType::kInteger: op.kind = Operand::Kind::kInteger; break;
      case TokenType::kDecimal: op.kind = Operand::Kind::kDecimal; break;
      case TokenType::kString: op.kind = Operand::Kind::kString; break;
      case TokenType::kHostVariable:
        op.kind = Operand::Kind::kHostVariable;
        break;
      default:
        if (MatchKeyword("NULL")) return op;
        return ErrorHere("expected operand");
    }
    op.literal = Advance().text;
    return op;
  }

  // '(' SELECT ... ')'; `error` when the parenthesis opens no SELECT.
  Result<std::unique_ptr<SelectStatement>> ParseSubquery(
      std::string_view error) {
    DBRE_RETURN_IF_ERROR(Expect(TokenType::kLeftParen));
    if (!CheckKeyword("SELECT")) return ErrorHere(error);
    DBRE_ASSIGN_OR_RETURN(std::unique_ptr<SelectStatement> subquery,
                          ParseSelectCore());
    DBRE_RETURN_IF_ERROR(Expect(TokenType::kRightParen));
    return subquery;
  }

  // predicate after an already-parsed first operand.
  Result<std::unique_ptr<Expression>> ParsePredicateWithOperand(Operand lhs) {
    auto expr = std::make_unique<Expression>();
    bool negated = MatchKeyword("NOT");
    if (MatchKeyword("IN")) {
      if (lhs.kind != Operand::Kind::kColumn) {
        return ErrorHere("IN requires a column on the left");
      }
      expr->kind = Expression::Kind::kInSubquery;
      expr->negated = negated;
      expr->in_columns.push_back(lhs.column);
      DBRE_ASSIGN_OR_RETURN(expr->subquery,
                            ParseSubquery("only IN (SELECT ...) is supported"));
      return expr;
    }
    if (MatchKeyword("BETWEEN")) {
      expr->kind = Expression::Kind::kBetween;
      expr->negated = negated;
      expr->lhs = std::move(lhs);
      DBRE_ASSIGN_OR_RETURN(Operand low, ParseOperand());
      (void)low;
      DBRE_RETURN_IF_ERROR(ExpectKeyword("AND"));
      DBRE_ASSIGN_OR_RETURN(Operand high, ParseOperand());
      (void)high;
      return expr;
    }
    if (MatchKeyword("LIKE")) {
      expr->kind = Expression::Kind::kLike;
      expr->negated = negated;
      expr->lhs = std::move(lhs);
      DBRE_ASSIGN_OR_RETURN(expr->rhs, ParseOperand());
      return expr;
    }
    if (negated) return ErrorHere("expected IN/BETWEEN/LIKE after NOT");
    if (MatchKeyword("IS")) {
      expr->kind = Expression::Kind::kIsNull;
      expr->negated = MatchKeyword("NOT");
      DBRE_RETURN_IF_ERROR(ExpectKeyword("NULL"));
      expr->lhs = std::move(lhs);
      return expr;
    }
    expr->kind = Expression::Kind::kComparison;
    std::optional<ComparisonOp> op = MatchComparisonOp(*this);
    if (!op) return ErrorHere("expected comparison operator");
    expr->op = *op;
    expr->lhs = std::move(lhs);
    DBRE_ASSIGN_OR_RETURN(expr->rhs, ParseOperand());
    return expr;
  }

  Result<std::unique_ptr<Expression>> ParseUnary() {
    if (MatchKeyword("NOT")) {
      // NOT EXISTS (...) folds into the exists node.
      if (CheckKeyword("EXISTS")) {
        DBRE_ASSIGN_OR_RETURN(std::unique_ptr<Expression> exists,
                              ParseUnary());
        exists->negated = !exists->negated;
        return exists;
      }
      auto expr = std::make_unique<Expression>();
      expr->kind = Expression::Kind::kNot;
      DBRE_ASSIGN_OR_RETURN(std::unique_ptr<Expression> child, ParseUnary());
      expr->children.push_back(std::move(child));
      return expr;
    }
    if (MatchKeyword("EXISTS")) {
      auto expr = std::make_unique<Expression>();
      expr->kind = Expression::Kind::kExists;
      DBRE_ASSIGN_OR_RETURN(expr->subquery,
                            ParseSubquery("expected SELECT after EXISTS("));
      return expr;
    }
    if (Check(TokenType::kLeftParen)) {
      // Either a parenthesized boolean expression or a column tuple for a
      // multi-column IN: (a, b) IN (SELECT ...).
      if (IsColumnTupleAhead()) {
        Advance();  // '('
        auto expr = std::make_unique<Expression>();
        expr->kind = Expression::Kind::kInSubquery;
        while (true) {
          DBRE_ASSIGN_OR_RETURN(ColumnRef ref, ParseColumnRef());
          expr->in_columns.push_back(std::move(ref));
          if (!Match(TokenType::kComma)) break;
        }
        DBRE_RETURN_IF_ERROR(Expect(TokenType::kRightParen));
        expr->negated = MatchKeyword("NOT");
        DBRE_RETURN_IF_ERROR(ExpectKeyword("IN"));
        DBRE_ASSIGN_OR_RETURN(expr->subquery,
                              ParseSubquery("only IN (SELECT ...) is supported"));
        return expr;
      }
      Advance();  // '('
      DBRE_ASSIGN_OR_RETURN(std::unique_ptr<Expression> inner, ParseExpr());
      DBRE_RETURN_IF_ERROR(Expect(TokenType::kRightParen));
      return inner;
    }
    DBRE_ASSIGN_OR_RETURN(Operand lhs, ParseOperand());
    return ParsePredicateWithOperand(std::move(lhs));
  }

  // Lookahead check for "( col [, col]* ) [NOT] IN".
  bool IsColumnTupleAhead() const {
    size_t ahead = 1;  // past '('
    int commas = 0;
    while (true) {
      const Token& token = Peek(ahead);
      if (token.type != TokenType::kIdentifier) return false;
      ++ahead;
      if (Peek(ahead).type == TokenType::kDot) {
        ahead += 2;  // .column
      }
      if (Peek(ahead).type == TokenType::kComma) {
        ++commas;
        ++ahead;
        continue;
      }
      break;
    }
    if (Peek(ahead).type != TokenType::kRightParen) return false;
    ++ahead;
    if (CheckKeyword("NOT", ahead)) ++ahead;
    return commas > 0 && CheckKeyword("IN", ahead);
  }

  Result<std::unique_ptr<Expression>> ParseAnd() {
    DBRE_ASSIGN_OR_RETURN(std::unique_ptr<Expression> first, ParseUnary());
    if (!CheckKeyword("AND")) return first;
    auto expr = std::make_unique<Expression>();
    expr->kind = Expression::Kind::kAnd;
    expr->children.push_back(std::move(first));
    while (MatchKeyword("AND")) {
      DBRE_ASSIGN_OR_RETURN(std::unique_ptr<Expression> next, ParseUnary());
      expr->children.push_back(std::move(next));
    }
    return expr;
  }

  Result<std::unique_ptr<Expression>> ParseExpr() {
    DBRE_ASSIGN_OR_RETURN(std::unique_ptr<Expression> first, ParseAnd());
    if (!CheckKeyword("OR")) return first;
    auto expr = std::make_unique<Expression>();
    expr->kind = Expression::Kind::kOr;
    expr->children.push_back(std::move(first));
    while (MatchKeyword("OR")) {
      DBRE_ASSIGN_OR_RETURN(std::unique_ptr<Expression> next, ParseAnd());
      expr->children.push_back(std::move(next));
    }
    return expr;
  }

  Result<std::unique_ptr<SelectStatement>> ParseSelectCore() {
    DBRE_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    auto stmt = std::make_unique<SelectStatement>();
    if (MatchKeyword("DISTINCT")) stmt->select_distinct = true;
    while (true) {
      DBRE_ASSIGN_OR_RETURN(SelectItem item, ParseSelectItem());
      stmt->select_list.push_back(std::move(item));
      if (!Match(TokenType::kComma)) break;
    }
    DBRE_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    DBRE_ASSIGN_OR_RETURN(TableRef first, ParseTableRef());
    stmt->from.push_back(std::move(first));
    while (true) {
      if (Match(TokenType::kComma)) {
        DBRE_ASSIGN_OR_RETURN(TableRef ref, ParseTableRef());
        stmt->from.push_back(std::move(ref));
        continue;
      }
      if (MatchKeyword("INNER") || CheckKeyword("JOIN")) {
        DBRE_RETURN_IF_ERROR(ExpectKeyword("JOIN"));
        DBRE_ASSIGN_OR_RETURN(TableRef ref, ParseTableRef());
        stmt->from.push_back(std::move(ref));
        DBRE_RETURN_IF_ERROR(ExpectKeyword("ON"));
        DBRE_ASSIGN_OR_RETURN(std::unique_ptr<Expression> condition,
                              ParseExpr());
        stmt->join_conditions.push_back(std::move(condition));
        continue;
      }
      break;
    }
    if (MatchKeyword("WHERE")) {
      DBRE_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
    }
    if (MatchKeyword("GROUP")) {
      DBRE_RETURN_IF_ERROR(ExpectKeyword("BY"));
      DBRE_RETURN_IF_ERROR(SkipColumnList());
      if (MatchKeyword("HAVING")) {
        DBRE_ASSIGN_OR_RETURN(std::unique_ptr<Expression> having,
                              ParseExpr());
        (void)having;  // carries no navigation info
      }
    }
    if (MatchKeyword("ORDER")) {
      DBRE_RETURN_IF_ERROR(ExpectKeyword("BY"));
      DBRE_RETURN_IF_ERROR(SkipColumnList());
    }
    return stmt;
  }

  Status SkipColumnList() {
    while (true) {
      DBRE_ASSIGN_OR_RETURN(ColumnRef ref, ParseColumnRef());
      (void)ref;
      MatchKeyword("ASC") || MatchKeyword("DESC");
      if (!Match(TokenType::kComma)) break;
    }
    return Status::Ok();
  }
};

}  // namespace

Result<std::unique_ptr<SelectStatement>> ParseSelect(std::string_view sql) {
  DBRE_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  return parser.ParseStatement();
}

Result<std::vector<std::unique_ptr<SelectStatement>>> ParseScript(
    std::string_view sql, std::vector<Status>* errors) {
  DBRE_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  std::vector<std::unique_ptr<SelectStatement>> statements;
  while (!parser.Check(TokenType::kEnd)) {
    auto result = parser.ParseStatementInScript();
    if (result.ok()) {
      statements.push_back(std::move(result).value());
    } else {
      if (errors != nullptr) errors->push_back(result.status());
      parser.SkipToNextStatement();
    }
  }
  return statements;
}

}  // namespace dbre::sql
