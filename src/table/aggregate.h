#ifndef DDGMS_TABLE_AGGREGATE_H_
#define DDGMS_TABLE_AGGREGATE_H_

#include <cstdint>
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

/// The value of `fn` over `rows` rows of which `valid` are numbers with
/// sum `sum` and sum of squares `sum_sq`: what Accumulator::Finish
/// reports for an accumulator fed those rows. It serves kCount,
/// kCountValid, kSum, kAvg, kVariance and kStdDev, whose state is those
/// four figures; kMin, kMax and kCountDistinct need an Accumulator.
Value FinishSums(AggFn fn, size_t rows, size_t valid, double sum,
                 double sum_sq);

/// Streaming accumulator for one aggregate over one group/cell.
/// Numeric aggregates (sum/avg/min/max/var/stddev) require numeric input
/// values; min/max also accept any ordered type.
class Accumulator {
 public:
  explicit Accumulator(AggFn fn) : fn_(fn) {}

  /// Feeds one cell. Nulls count toward kCount only.
  void Add(const Value& v);

  /// Folds another accumulator of the same function into this one:
  /// merging the accumulators of the parts of a split stream equals
  /// feeding the whole stream (up to the order of a double sum). Cube
  /// navigation merges a parent cube's cells this way.
  void Merge(const Accumulator& other);

  /// Frees a count_distinct accumulator's value set and keeps only the
  /// count Finish reports; Add and Merge must not follow. A no-op for
  /// the other functions.
  void DropDistinctValues();

  /// Estimated heap footprint: the accumulator itself, a string
  /// min or max, and the count_distinct value set.
  uint64_t ApproxBytes() const;

  /// Number of rows fed (including nulls).
  size_t rows() const { return rows_; }

  /// Final aggregate value; Value::Null() when undefined (e.g. avg of an
  /// empty group).
  Value Finish() const;

 private:
  /// kMin/kMax: keeps `v` when it is below (kMin) or above (kMax) the
  /// extreme so far.
  void Extend(const Value& v);

  // Cubes keep one accumulator per cell and measure, so its size is a
  // cube's footprint: one extreme serves min and max.
  AggFn fn_;
  bool numeric_ok_ = true;
  size_t rows_ = 0;
  size_t valid_ = 0;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
  Value extreme_ = Value::Null();
  std::unordered_set<Value, ValueHash, ValueEq> distinct_;
  size_t dropped_distinct_ = 0;  // count kept by DropDistinctValues
};

}  // namespace ddgms

#endif  // DDGMS_TABLE_AGGREGATE_H_
