#include "table/aggregate.h"

#include <cassert>
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
    case AggFn::kMax:
      Extend(v);
      break;
  }
}

void Accumulator::Extend(const Value& v) {
  if (extreme_.is_null()) {
    extreme_ = v;
    return;
  }
  const int c = v.Compare(extreme_);
  if (fn_ == AggFn::kMin ? c < 0 : c > 0) extreme_ = v;
}

void Accumulator::Merge(const Accumulator& other) {
  assert(fn_ == other.fn_);
  assert(dropped_distinct_ == 0 && other.dropped_distinct_ == 0);
  rows_ += other.rows_;
  valid_ += other.valid_;
  sum_ += other.sum_;
  sum_sq_ += other.sum_sq_;
  numeric_ok_ = numeric_ok_ && other.numeric_ok_;
  if (!other.extreme_.is_null()) Extend(other.extreme_);
  distinct_.insert(other.distinct_.begin(), other.distinct_.end());
}

void Accumulator::DropDistinctValues() {
  if (distinct_.empty()) return;  // nothing to free
  dropped_distinct_ += distinct_.size();
  std::unordered_set<Value, ValueHash, ValueEq>().swap(distinct_);
}

uint64_t Accumulator::ApproxBytes() const {
  auto payload = [](const Value& v) -> uint64_t {
    return v.type() == DataType::kString ? v.string_value().size() : 0;
  };
  uint64_t bytes = sizeof(Accumulator) + payload(extreme_);
  // A set node holds the value, its cached hash and the next pointer.
  for (const Value& v : distinct_) {
    bytes += sizeof(Value) + 2 * sizeof(void*) + payload(v);
  }
  return bytes;
}

Value FinishSums(AggFn fn, size_t rows, size_t valid, double sum,
                 double sum_sq) {
  switch (fn) {
    case AggFn::kCount:
      return Value::Int(static_cast<int64_t>(rows));
    case AggFn::kCountValid:
      return Value::Int(static_cast<int64_t>(valid));
    case AggFn::kSum:
      return Value::Real(sum);
    case AggFn::kAvg:
      if (valid == 0) return Value::Null();
      return Value::Real(sum / static_cast<double>(valid));
    case AggFn::kVariance:
    case AggFn::kStdDev: {
      if (valid == 0) return Value::Null();
      double n = static_cast<double>(valid);
      double mean = sum / n;
      double var = sum_sq / n - mean * mean;
      if (var < 0.0) var = 0.0;  // numerical noise
      return Value::Real(fn == AggFn::kVariance ? var : std::sqrt(var));
    }
    case AggFn::kCountDistinct:
    case AggFn::kMin:
    case AggFn::kMax:
      break;
  }
  return Value::Null();
}

Value Accumulator::Finish() const {
  switch (fn_) {
    case AggFn::kCountDistinct:
      return Value::Int(
          static_cast<int64_t>(dropped_distinct_ + distinct_.size()));
    case AggFn::kMin:
    case AggFn::kMax:
      return extreme_;
    case AggFn::kSum:
    case AggFn::kAvg:
    case AggFn::kVariance:
    case AggFn::kStdDev:
      if (!numeric_ok_) return Value::Null();
      break;
    case AggFn::kCount:
    case AggFn::kCountValid:
      break;
  }
  return FinishSums(fn_, rows_, valid_, sum_, sum_sq_);
}

}  // namespace ddgms
