#include "table/aggregate.h"

#include <cmath>

#include "common/annotations.h"
#include "common/strings.h"

namespace ddgms {

const char* AggFnName(AggFn fn) {
  switch (fn) {
    case AggFn::kCount: return "count";
    case AggFn::kCountValid: return "count_valid";
    case AggFn::kCountDistinct: return "count_distinct";
    case AggFn::kSum: return "sum";
    case AggFn::kAvg: return "avg";
    case AggFn::kMin: return "min";
    case AggFn::kMax: return "max";
    case AggFn::kVariance: return "variance";
    case AggFn::kStdDev: return "stddev";
  }
  return "unknown";
}

Result<AggFn> AggFnFromName(const std::string& name) {
  std::string lower = ToLower(name);
  if (lower == "count") return AggFn::kCount;
  if (lower == "count_valid") return AggFn::kCountValid;
  if (lower == "count_distinct" || lower == "distinct_count") {
    return AggFn::kCountDistinct;
  }
  if (lower == "sum") return AggFn::kSum;
  if (lower == "avg" || lower == "mean" || lower == "average") {
    return AggFn::kAvg;
  }
  if (lower == "min") return AggFn::kMin;
  if (lower == "max") return AggFn::kMax;
  if (lower == "variance" || lower == "var") return AggFn::kVariance;
  if (lower == "stddev" || lower == "stdev" || lower == "std") {
    return AggFn::kStdDev;
  }
  return Status::InvalidArgument("unknown aggregate function '" + name +
                                 "'");
}

std::string AggSpec::OutputName() const {
  if (!alias.empty()) return alias;
  std::string out = AggFnName(fn);
  out += "(";
  out += column.empty() ? "*" : column;
  out += ")";
  return out;
}

// Runs once per admitted fact row per measure — the innermost work of
// both the group-by engine and the OLAP cube scan.
DDGMS_HOT void Accumulator::Add(const Value& v) {
  ++rows_;
  if (v.is_null()) return;
  ++valid_;
  switch (fn_) {
    case AggFn::kCount:
    case AggFn::kCountValid:
      break;
    case AggFn::kCountDistinct:
      distinct_.insert(v);
      break;
    case AggFn::kSum:
    case AggFn::kAvg:
    case AggFn::kVariance:
    case AggFn::kStdDev: {
      Result<double> d = v.AsDouble();
      if (!d.ok()) {
        numeric_ok_ = false;
        break;
      }
      sum_ += *d;
      sum_sq_ += (*d) * (*d);
      break;
    }
    case AggFn::kMin:
      if (min_.is_null() || v.Compare(min_) < 0) min_ = v;
      break;
    case AggFn::kMax:
      if (max_.is_null() || v.Compare(max_) > 0) max_ = v;
      break;
  }
}

Value Accumulator::Finish() const {
  switch (fn_) {
    case AggFn::kCount:
      return Value::Int(static_cast<int64_t>(rows_));
    case AggFn::kCountValid:
      return Value::Int(static_cast<int64_t>(valid_));
    case AggFn::kCountDistinct:
      return Value::Int(static_cast<int64_t>(distinct_.size()));
    case AggFn::kSum:
      if (!numeric_ok_) return Value::Null();
      return Value::Real(sum_);
    case AggFn::kAvg:
      if (!numeric_ok_ || valid_ == 0) return Value::Null();
      return Value::Real(sum_ / static_cast<double>(valid_));
    case AggFn::kMin:
      return min_;
    case AggFn::kMax:
      return max_;
    case AggFn::kVariance:
    case AggFn::kStdDev: {
      if (!numeric_ok_ || valid_ == 0) return Value::Null();
      double n = static_cast<double>(valid_);
      double mean = sum_ / n;
      double var = sum_sq_ / n - mean * mean;
      if (var < 0.0) var = 0.0;  // numerical noise
      return Value::Real(fn_ == AggFn::kVariance ? var : std::sqrt(var));
    }
  }
  return Value::Null();
}

}  // namespace ddgms
