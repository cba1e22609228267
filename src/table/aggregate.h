#ifndef DDGMS_TABLE_AGGREGATE_H_
#define DDGMS_TABLE_AGGREGATE_H_

#include <cassert>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "table/value.h"

namespace ddgms {

/// Aggregate functions shared by the OLTP group-by engine and the OLAP
/// cube engine.
enum class AggFn {
  kCount,          // number of rows (nulls included)
  kCountValid,     // number of non-null values
  kCountDistinct,  // number of distinct non-null values
  kSum,
  kAvg,
  kMin,
  kMax,
  kVariance,       // population variance
  kStdDev,         // population standard deviation
};

/// Canonical name ("count", "sum", ...).
const char* AggFnName(AggFn fn);

/// Parses an aggregate name (case-insensitive); accepts both "stddev" and
/// "stdev".
Result<AggFn> AggFnFromName(const std::string& name);

/// One requested aggregate: fn applied to `column`, reported as `alias`
/// (defaults to "fn(column)" when empty). kCount may leave column empty.
struct AggSpec {
  AggFn fn = AggFn::kCount;
  std::string column;
  std::string alias;

  /// Effective output name.
  std::string OutputName() const;
};

/// Streaming accumulator for one aggregate over one group/cell.
/// Numeric aggregates (sum/avg/min/max/var/stddev) require numeric input
/// values; min/max also accept any ordered type.
class Accumulator {
 public:
  explicit Accumulator(AggFn fn) : fn_(fn) {}

  /// Feeds one cell. Nulls count toward kCount only.
  void Add(const Value& v);

  /// Typed entry points for scans that read typed column arrays. They
  /// serve kCount, kCountValid, kSum, kAvg, kVariance and kStdDev only;
  /// kMin, kMax and kCountDistinct need the Value and use Add.
  /// AddNumeric(x) feeds one non-null numeric cell (a bool as 0 or 1)
  /// and equals Add of that cell; AddNull() equals Add(Value::Null()).
  void AddNumeric(double x) {
    assert(fn_ != AggFn::kMin && fn_ != AggFn::kMax &&
           fn_ != AggFn::kCountDistinct);
    ++rows_;
    ++valid_;
    sum_ += x;
    sum_sq_ += x * x;
  }
  void AddNull() { ++rows_; }

  /// Number of rows fed (including nulls).
  size_t rows() const { return rows_; }

  /// Final aggregate value; Value::Null() when undefined (e.g. avg of an
  /// empty group).
  Value Finish() const;

 private:
  AggFn fn_;
  size_t rows_ = 0;
  size_t valid_ = 0;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
  bool numeric_ok_ = true;
  Value min_ = Value::Null();
  Value max_ = Value::Null();
  std::unordered_set<Value, ValueHash, ValueEq> distinct_;
};

}  // namespace ddgms

#endif  // DDGMS_TABLE_AGGREGATE_H_
