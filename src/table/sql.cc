#include "table/sql.h"

#include <cctype>
#include <vector>

#include "common/date.h"
#include "common/strings.h"
#include "table/aggregate.h"
#include "table/predicate.h"
#include "table/query.h"

namespace ddgms {

namespace {

enum class SqlTokenType {
  kIdent,    // bare or "quoted" identifier
  kString,   // 'literal'
  kNumber,
  kOperator,  // = != <> < <= > >=
  kLParen,
  kRParen,
  kComma,
  kStar,
  kEof,
};

struct SqlToken {
  SqlTokenType type = SqlTokenType::kEof;
  std::string text;
  size_t offset = 0;
};

Result<std::vector<SqlToken>> SqlTokenize(const std::string& input) {
  std::vector<SqlToken> tokens;
  size_t i = 0;
  const size_t n = input.size();
  while (i < n) {
    char c = input[i];
    size_t start = i;
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '(') {
      tokens.push_back({SqlTokenType::kLParen, "(", start});
      ++i;
    } else if (c == ')') {
      tokens.push_back({SqlTokenType::kRParen, ")", start});
      ++i;
    } else if (c == ',') {
      tokens.push_back({SqlTokenType::kComma, ",", start});
      ++i;
    } else if (c == '*') {
      tokens.push_back({SqlTokenType::kStar, "*", start});
      ++i;
    } else if (c == '\'') {
      std::string text;
      ++i;
      bool closed = false;
      while (i < n) {
        if (input[i] == '\'') {
          if (i + 1 < n && input[i + 1] == '\'') {
            text.push_back('\'');
            i += 2;
            continue;
          }
          closed = true;
          ++i;
          break;
        }
        text.push_back(input[i]);
        ++i;
      }
      if (!closed) {
        return Status::ParseError(
            StrFormat("unterminated string at offset %zu", start));
      }
      tokens.push_back({SqlTokenType::kString, std::move(text), start});
    } else if (c == '"') {
      std::string text;
      ++i;
      bool closed = false;
      while (i < n) {
        if (input[i] == '"') {
          closed = true;
          ++i;
          break;
        }
        text.push_back(input[i]);
        ++i;
      }
      if (!closed) {
        return Status::ParseError(
            StrFormat("unterminated identifier at offset %zu", start));
      }
      tokens.push_back({SqlTokenType::kIdent, std::move(text), start});
    } else if (c == '=' || c == '<' || c == '>' || c == '!') {
      std::string op(1, c);
      ++i;
      if (i < n && (input[i] == '=' || (c == '<' && input[i] == '>'))) {
        op.push_back(input[i]);
        ++i;
      }
      if (op == "!") {
        return Status::ParseError(
            StrFormat("bad operator '!' at offset %zu", start));
      }
      tokens.push_back({SqlTokenType::kOperator, std::move(op), start});
    } else if (std::isdigit(static_cast<unsigned char>(c)) ||
               (c == '-' && i + 1 < n &&
                std::isdigit(static_cast<unsigned char>(input[i + 1])))) {
      std::string num(1, c);
      ++i;
      while (i < n && (std::isdigit(static_cast<unsigned char>(input[i])) ||
                       input[i] == '.')) {
        num.push_back(input[i]);
        ++i;
      }
      tokens.push_back({SqlTokenType::kNumber, std::move(num), start});
    } else if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::string ident;
      while (i < n &&
             (std::isalnum(static_cast<unsigned char>(input[i])) ||
              input[i] == '_')) {
        ident.push_back(input[i]);
        ++i;
      }
      tokens.push_back({SqlTokenType::kIdent, std::move(ident), start});
    } else {
      return Status::ParseError(
          StrFormat("unexpected character '%c' at offset %zu", c, start));
    }
  }
  tokens.push_back({SqlTokenType::kEof, "", n});
  return tokens;
}

/// Recursive-descent SELECT parser building a TableQuery.
class SqlParser {
 public:
  SqlParser(std::vector<SqlToken> tokens,
            const std::unordered_map<std::string, const Table*>& tables)
      : tokens_(std::move(tokens)), tables_(tables) {}

  Result<Table> ParseAndRun() {
    DDGMS_RETURN_IF_ERROR(ExpectKeyword("SELECT"));

    // Select list (deferred until we know the table).
    struct SelectItem {
      bool star = false;
      bool is_aggregate = false;
      AggSpec agg;
      std::string column;
    };
    std::vector<SelectItem> items;
    while (true) {
      SelectItem item;
      if (ConsumeIf(SqlTokenType::kStar)) {
        item.star = true;
      } else if (Peek().type == SqlTokenType::kIdent) {
        std::string name = Next().text;
        if (ConsumeIf(SqlTokenType::kLParen)) {
          DDGMS_ASSIGN_OR_RETURN(AggFn fn, AggFnFromName(name));
          item.is_aggregate = true;
          item.agg.fn = fn;
          if (ConsumeIf(SqlTokenType::kStar)) {
            if (fn != AggFn::kCount) {
              return Error("only COUNT(*) may aggregate '*'");
            }
          } else if (Peek().type == SqlTokenType::kIdent) {
            item.agg.column = Next().text;
          } else {
            return Error("expected column or * in aggregate");
          }
          if (!ConsumeIf(SqlTokenType::kRParen)) {
            return Error("expected ) closing aggregate");
          }
        } else {
          item.column = std::move(name);
        }
        if (IsKeyword(Peek(), "AS")) {
          Next();
          if (Peek().type != SqlTokenType::kIdent) {
            return Error("expected alias after AS");
          }
          if (item.is_aggregate) {
            item.agg.alias = Next().text;
          } else {
            return Error("AS is only supported on aggregates");
          }
        }
      } else {
        return Error("expected select item");
      }
      items.push_back(std::move(item));
      if (!ConsumeIf(SqlTokenType::kComma)) break;
    }

    DDGMS_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    if (Peek().type != SqlTokenType::kIdent) {
      return Error("expected table name after FROM");
    }
    std::string table_name = ToLower(Next().text);
    auto table_it = tables_.find(table_name);
    if (table_it == tables_.end()) {
      return Status::NotFound("no table named '" + table_name + "'");
    }
    TableQuery query(table_it->second);

    if (IsKeyword(Peek(), "WHERE")) {
      Next();
      DDGMS_ASSIGN_OR_RETURN(PredicatePtr pred, ParseOrExpr());
      query.Where(std::move(pred));
    }
    std::vector<std::string> group_by;
    if (IsKeyword(Peek(), "GROUP")) {
      Next();
      DDGMS_RETURN_IF_ERROR(ExpectKeyword("BY"));
      while (true) {
        if (Peek().type != SqlTokenType::kIdent) {
          return Error("expected column in GROUP BY");
        }
        group_by.push_back(Next().text);
        if (!ConsumeIf(SqlTokenType::kComma)) break;
      }
      query.GroupBy(group_by);
    }

    // Resolve the select list now that grouping is known.
    bool any_aggregate = false;
    std::vector<AggSpec> aggregates;
    std::vector<std::string> plain_columns;
    bool star = false;
    for (const auto& item : items) {
      if (item.star) {
        star = true;
      } else if (item.is_aggregate) {
        any_aggregate = true;
        aggregates.push_back(item.agg);
      } else {
        plain_columns.push_back(item.column);
      }
    }
    if (any_aggregate || !group_by.empty()) {
      if (star) {
        return Error("SELECT * cannot be combined with aggregation");
      }
      // Plain columns must match the group-by keys (they are implied in
      // the output); anything else is an error.
      for (const std::string& col : plain_columns) {
        bool is_key = false;
        for (const std::string& key : group_by) {
          if (key == col) {
            is_key = true;
            break;
          }
        }
        if (!is_key) {
          return Status::InvalidArgument(
              "column '" + col +
              "' must appear in GROUP BY or an aggregate");
        }
      }
      query.Aggregate(aggregates);
    } else if (!star) {
      query.Select(plain_columns);
    }

    bool limit_zero = false;
    if (IsKeyword(Peek(), "ORDER")) {
      Next();
      DDGMS_RETURN_IF_ERROR(ExpectKeyword("BY"));
      if (Peek().type != SqlTokenType::kIdent) {
        return Error("expected column in ORDER BY");
      }
      std::string col = Next().text;
      bool ascending = true;
      if (IsKeyword(Peek(), "ASC")) {
        Next();
      } else if (IsKeyword(Peek(), "DESC")) {
        Next();
        ascending = false;
      }
      query.OrderBy(col, ascending);
    }
    if (IsKeyword(Peek(), "LIMIT")) {
      Next();
      if (Peek().type != SqlTokenType::kNumber) {
        return Error("expected number after LIMIT");
      }
      DDGMS_ASSIGN_OR_RETURN(int64_t limit, ParseInt64(Next().text));
      if (limit < 0) return Error("LIMIT must be non-negative");
      query.Limit(static_cast<size_t>(limit));
      limit_zero = limit == 0;
    }
    if (Peek().type != SqlTokenType::kEof) {
      return Error("unexpected trailing tokens");
    }
    DDGMS_ASSIGN_OR_RETURN(Table result, query.Run());
    // An aggregate without GROUP BY answers one row even over zero input
    // rows: the counts are 0 and every other aggregate is NULL. LIMIT 0
    // still answers none. (TableQuery keeps returning no groups, as a
    // cube has no cell for an empty slice.)
    if (any_aggregate && group_by.empty() && result.num_rows() == 0 &&
        !limit_zero) {
      Row row;
      for (const AggSpec& agg : aggregates) {
        const bool count = agg.fn == AggFn::kCount ||
                           agg.fn == AggFn::kCountValid ||
                           agg.fn == AggFn::kCountDistinct;
        row.push_back(count ? Value::Int(0) : Value::Null());
      }
      DDGMS_RETURN_IF_ERROR(result.AppendRow(row));
    }
    return result;
  }

 private:
  const SqlToken& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const SqlToken& Next() { return tokens_[pos_++]; }
  bool ConsumeIf(SqlTokenType type) {
    if (Peek().type == type) {
      ++pos_;
      return true;
    }
    return false;
  }
  static bool IsKeyword(const SqlToken& tok, const char* kw) {
    return tok.type == SqlTokenType::kIdent &&
           EqualsIgnoreCase(tok.text, kw);
  }
  Status ExpectKeyword(const char* kw) {
    if (!IsKeyword(Peek(), kw)) {
      return Status::ParseError(
          StrFormat("expected %s at offset %zu (found '%s')", kw,
                    Peek().offset, Peek().text.c_str()));
    }
    ++pos_;
    return Status::OK();
  }
  Status Error(const std::string& what) const {
    return Status::ParseError(StrFormat("%s at offset %zu (near '%s')",
                                        what.c_str(), Peek().offset,
                                        Peek().text.c_str()));
  }

  Result<Value> ParseLiteral() {
    const SqlToken& tok = Peek();
    if (tok.type == SqlTokenType::kString) {
      Next();
      return Value::Str(tok.text);
    }
    if (tok.type == SqlTokenType::kNumber) {
      Next();
      if (tok.text.find('.') != std::string::npos) {
        DDGMS_ASSIGN_OR_RETURN(double d, ParseDouble(tok.text));
        return Value::Real(d);
      }
      DDGMS_ASSIGN_OR_RETURN(int64_t i, ParseInt64(tok.text));
      return Value::Int(i);
    }
    if (IsKeyword(tok, "TRUE")) {
      Next();
      return Value::Bool(true);
    }
    if (IsKeyword(tok, "FALSE")) {
      Next();
      return Value::Bool(false);
    }
    if (IsKeyword(tok, "NULL")) {
      Next();
      return Value::Null();
    }
    if (IsKeyword(tok, "DATE")) {
      Next();
      if (Peek().type != SqlTokenType::kString) {
        return Error("expected 'YYYY-MM-DD' after DATE");
      }
      DDGMS_ASSIGN_OR_RETURN(Date d, Date::FromString(Next().text));
      return Value::FromDate(d);
    }
    return Error("expected literal");
  }

  Result<PredicatePtr> ParseOrExpr() {
    DDGMS_ASSIGN_OR_RETURN(PredicatePtr left, ParseAndExpr());
    while (IsKeyword(Peek(), "OR")) {
      Next();
      DDGMS_ASSIGN_OR_RETURN(PredicatePtr right, ParseAndExpr());
      left = Or(std::move(left), std::move(right));
    }
    return left;
  }

  Result<PredicatePtr> ParseAndExpr() {
    DDGMS_ASSIGN_OR_RETURN(PredicatePtr left, ParseUnary());
    while (IsKeyword(Peek(), "AND")) {
      Next();
      DDGMS_ASSIGN_OR_RETURN(PredicatePtr right, ParseUnary());
      left = And(std::move(left), std::move(right));
    }
    return left;
  }

  Result<PredicatePtr> ParseUnary() {
    if (IsKeyword(Peek(), "NOT")) {
      Next();
      DDGMS_ASSIGN_OR_RETURN(PredicatePtr inner, ParseUnary());
      return Not(std::move(inner));
    }
    if (ConsumeIf(SqlTokenType::kLParen)) {
      DDGMS_ASSIGN_OR_RETURN(PredicatePtr inner, ParseOrExpr());
      if (!ConsumeIf(SqlTokenType::kRParen)) {
        return Error("expected ) closing predicate");
      }
      return inner;
    }
    if (Peek().type != SqlTokenType::kIdent) {
      return Error("expected column in predicate");
    }
    std::string column = Next().text;

    if (IsKeyword(Peek(), "IS")) {
      Next();
      bool negated = false;
      if (IsKeyword(Peek(), "NOT")) {
        Next();
        negated = true;
      }
      DDGMS_RETURN_IF_ERROR(ExpectKeyword("NULL"));
      return negated ? NotNull(column) : IsNull(column);
    }
    if (IsKeyword(Peek(), "BETWEEN")) {
      Next();
      DDGMS_ASSIGN_OR_RETURN(Value lo, ParseLiteral());
      DDGMS_RETURN_IF_ERROR(ExpectKeyword("AND"));
      DDGMS_ASSIGN_OR_RETURN(Value hi, ParseLiteral());
      return Between(column, std::move(lo), std::move(hi));
    }
    if (IsKeyword(Peek(), "IN")) {
      Next();
      if (!ConsumeIf(SqlTokenType::kLParen)) {
        return Error("expected ( after IN");
      }
      std::vector<Value> options;
      while (true) {
        DDGMS_ASSIGN_OR_RETURN(Value v, ParseLiteral());
        options.push_back(std::move(v));
        if (!ConsumeIf(SqlTokenType::kComma)) break;
      }
      if (!ConsumeIf(SqlTokenType::kRParen)) {
        return Error("expected ) closing IN list");
      }
      return In(column, std::move(options));
    }
    if (Peek().type != SqlTokenType::kOperator) {
      return Error("expected comparison operator");
    }
    std::string op = Next().text;
    DDGMS_ASSIGN_OR_RETURN(Value literal, ParseLiteral());
    if (op == "=") return Eq(column, std::move(literal));
    if (op == "!=" || op == "<>") return Ne(column, std::move(literal));
    if (op == "<") return Lt(column, std::move(literal));
    if (op == "<=") return Le(column, std::move(literal));
    if (op == ">") return Gt(column, std::move(literal));
    if (op == ">=") return Ge(column, std::move(literal));
    return Error("unknown operator '" + op + "'");
  }

  std::vector<SqlToken> tokens_;
  size_t pos_ = 0;
  const std::unordered_map<std::string, const Table*>& tables_;
};

}  // namespace

std::string SqlEngine::ToLowerName(const std::string& name) {
  return ToLower(name);
}

Result<Table> SqlEngine::Execute(const std::string& sql) const {
  DDGMS_ASSIGN_OR_RETURN(std::vector<SqlToken> tokens, SqlTokenize(sql));
  SqlParser parser(std::move(tokens), tables_);
  return parser.ParseAndRun();
}

}  // namespace ddgms
