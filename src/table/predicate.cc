#include "table/predicate.h"

#include <utility>

namespace ddgms {

namespace {

enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq: return "==";
    case CmpOp::kNe: return "!=";
    case CmpOp::kLt: return "<";
    case CmpOp::kLe: return "<=";
    case CmpOp::kGt: return ">";
    case CmpOp::kGe: return ">=";
  }
  return "?";
}

class ComparisonPredicate final : public Predicate {
 public:
  ComparisonPredicate(std::string column, CmpOp op, Value literal)
      : column_(std::move(column)), op_(op), literal_(std::move(literal)) {}

  bool Matches(const Table& table, size_t row) const override {
    auto col = table.ColumnByName(column_);
    if (!col.ok()) return false;
    if ((*col)->IsNull(row)) return false;
    int c = (*col)->GetValue(row).Compare(literal_);
    switch (op_) {
      case CmpOp::kEq: return c == 0;
      case CmpOp::kNe: return c != 0;
      case CmpOp::kLt: return c < 0;
      case CmpOp::kLe: return c <= 0;
      case CmpOp::kGt: return c > 0;
      case CmpOp::kGe: return c >= 0;
    }
    return false;
  }

  Status Validate(const Table& table) const override {
    return table.ColumnByName(column_).status();
  }

  std::string ToString() const override {
    return column_ + " " + CmpOpName(op_) + " " + literal_.ToString();
  }

 private:
  std::string column_;
  CmpOp op_;
  Value literal_;
};

class InPredicate final : public Predicate {
 public:
  InPredicate(std::string column, std::vector<Value> options)
      : column_(std::move(column)), options_(std::move(options)) {}

  bool Matches(const Table& table, size_t row) const override {
    auto col = table.ColumnByName(column_);
    if (!col.ok()) return false;
    if ((*col)->IsNull(row)) return false;
    Value v = (*col)->GetValue(row);
    for (const Value& opt : options_) {
      if (v.Equals(opt)) return true;
    }
    return false;
  }

  Status Validate(const Table& table) const override {
    return table.ColumnByName(column_).status();
  }

  std::string ToString() const override {
    std::string out = column_ + " IN (";
    for (size_t i = 0; i < options_.size(); ++i) {
      if (i > 0) out += ", ";
      out += options_[i].ToString();
    }
    return out + ")";
  }

 private:
  std::string column_;
  std::vector<Value> options_;
};

class BetweenPredicate final : public Predicate {
 public:
  BetweenPredicate(std::string column, Value lo, Value hi)
      : column_(std::move(column)),
        lo_(std::move(lo)),
        hi_(std::move(hi)) {}

  bool Matches(const Table& table, size_t row) const override {
    auto col = table.ColumnByName(column_);
    if (!col.ok()) return false;
    if ((*col)->IsNull(row)) return false;
    Value v = (*col)->GetValue(row);
    return v.Compare(lo_) >= 0 && v.Compare(hi_) <= 0;
  }

  Status Validate(const Table& table) const override {
    return table.ColumnByName(column_).status();
  }

  std::string ToString() const override {
    return column_ + " BETWEEN " + lo_.ToString() + " AND " +
           hi_.ToString();
  }

 private:
  std::string column_;
  Value lo_;
  Value hi_;
};

class NullPredicate final : public Predicate {
 public:
  NullPredicate(std::string column, bool want_null)
      : column_(std::move(column)), want_null_(want_null) {}

  bool Matches(const Table& table, size_t row) const override {
    auto col = table.ColumnByName(column_);
    if (!col.ok()) return false;
    return (*col)->IsNull(row) == want_null_;
  }

  Status Validate(const Table& table) const override {
    return table.ColumnByName(column_).status();
  }

  std::string ToString() const override {
    return column_ + (want_null_ ? " IS NULL" : " IS NOT NULL");
  }

 private:
  std::string column_;
  bool want_null_;
};

class BinaryLogicPredicate final : public Predicate {
 public:
  BinaryLogicPredicate(PredicatePtr a, PredicatePtr b, bool is_and)
      : a_(std::move(a)), b_(std::move(b)), is_and_(is_and) {}

  bool Matches(const Table& table, size_t row) const override {
    if (is_and_) {
      return a_->Matches(table, row) && b_->Matches(table, row);
    }
    return a_->Matches(table, row) || b_->Matches(table, row);
  }

  Status Validate(const Table& table) const override {
    DDGMS_RETURN_IF_ERROR(a_->Validate(table));
    return b_->Validate(table);
  }

  std::string ToString() const override {
    std::string out = "(";
    out += a_->ToString();
    out += is_and_ ? " AND " : " OR ";
    out += b_->ToString();
    out += ')';
    return out;
  }

 private:
  PredicatePtr a_;
  PredicatePtr b_;
  bool is_and_;
};

class NotPredicate final : public Predicate {
 public:
  explicit NotPredicate(PredicatePtr inner) : inner_(std::move(inner)) {}

  bool Matches(const Table& table, size_t row) const override {
    return !inner_->Matches(table, row);
  }

  Status Validate(const Table& table) const override {
    return inner_->Validate(table);
  }

  std::string ToString() const override {
    return "NOT " + inner_->ToString();
  }

 private:
  PredicatePtr inner_;
};

class ConstPredicate final : public Predicate {
 public:
  explicit ConstPredicate(bool value) : value_(value) {}

  bool Matches(const Table&, size_t) const override { return value_; }
  Status Validate(const Table&) const override { return Status::OK(); }
  std::string ToString() const override {
    return value_ ? "TRUE" : "FALSE";
  }

 private:
  bool value_;
};

}  // namespace

PredicatePtr Eq(std::string column, Value literal) {
  return std::make_shared<ComparisonPredicate>(std::move(column), CmpOp::kEq,
                                               std::move(literal));
}
PredicatePtr Ne(std::string column, Value literal) {
  return std::make_shared<ComparisonPredicate>(std::move(column), CmpOp::kNe,
                                               std::move(literal));
}
PredicatePtr Lt(std::string column, Value literal) {
  return std::make_shared<ComparisonPredicate>(std::move(column), CmpOp::kLt,
                                               std::move(literal));
}
PredicatePtr Le(std::string column, Value literal) {
  return std::make_shared<ComparisonPredicate>(std::move(column), CmpOp::kLe,
                                               std::move(literal));
}
PredicatePtr Gt(std::string column, Value literal) {
  return std::make_shared<ComparisonPredicate>(std::move(column), CmpOp::kGt,
                                               std::move(literal));
}
PredicatePtr Ge(std::string column, Value literal) {
  return std::make_shared<ComparisonPredicate>(std::move(column), CmpOp::kGe,
                                               std::move(literal));
}
PredicatePtr In(std::string column, std::vector<Value> options) {
  return std::make_shared<InPredicate>(std::move(column),
                                       std::move(options));
}
PredicatePtr Between(std::string column, Value lo, Value hi) {
  return std::make_shared<BetweenPredicate>(std::move(column), std::move(lo),
                                            std::move(hi));
}
PredicatePtr IsNull(std::string column) {
  return std::make_shared<NullPredicate>(std::move(column), true);
}
PredicatePtr NotNull(std::string column) {
  return std::make_shared<NullPredicate>(std::move(column), false);
}
PredicatePtr And(PredicatePtr a, PredicatePtr b) {
  return std::make_shared<BinaryLogicPredicate>(std::move(a), std::move(b),
                                                /*is_and=*/true);
}
PredicatePtr Or(PredicatePtr a, PredicatePtr b) {
  return std::make_shared<BinaryLogicPredicate>(std::move(a), std::move(b),
                                                /*is_and=*/false);
}
PredicatePtr Not(PredicatePtr inner) {
  return std::make_shared<NotPredicate>(std::move(inner));
}
PredicatePtr AllOf(std::vector<PredicatePtr> preds) {
  PredicatePtr acc = TruePredicate();
  for (PredicatePtr& p : preds) {
    acc = And(std::move(acc), std::move(p));
  }
  return acc;
}
PredicatePtr TruePredicate() {
  return std::make_shared<ConstPredicate>(true);
}

}  // namespace ddgms
