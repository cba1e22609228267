#ifndef DDGMS_TABLE_COLUMN_H_
#define DDGMS_TABLE_COLUMN_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/result.h"
#include "table/value.h"

namespace ddgms {

/// Typed columnar storage with a validity (non-null) bitmap. Bool columns
/// store uint8_t; date columns store days-since-epoch as int32_t. Values
/// in invalid slots are zero-initialized and must not be interpreted.
class ColumnVector {
 public:
  /// Creates an empty column of the given type. `type` must not be kNull.
  ColumnVector(std::string name, DataType type);

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }
  DataType type() const { return type_; }

  size_t size() const { return validity_.size(); }
  bool empty() const { return validity_.empty(); }

  /// Number of null entries.
  size_t null_count() const { return null_count_; }

  bool IsNull(size_t row) const { return validity_[row] == 0; }

  /// Reserves storage for `rows` entries in total (decoders that know
  /// the row count up front append without regrowing).
  void Reserve(size_t rows);

  /// Appends a value; the value must be null or match the column type
  /// (int64 literals are accepted into double columns).
  Status Append(const Value& value);

  /// Appends a null.
  void AppendNull();

  /// Typed fast-path appends (no validity/type checking beyond asserts).
  void AppendBool(bool v);
  void AppendInt(int64_t v);
  void AppendDouble(double v);
  void AppendString(std::string_view v);
  void AppendDate(Date v);

  /// Appends every row of `other`, which must have this column's type;
  /// `other` may be this column.
  void AppendColumn(const ColumnVector& other);

  /// Appends row `row` of `other` without boxing it. `other` must have
  /// this column's type, or be int64 or bool when this column is
  /// numeric (a bool appends as 0 or 1).
  void AppendFrom(const ColumnVector& other, size_t row);

  /// Reads a cell as a dynamically typed Value (null if invalid).
  Value GetValue(size_t row) const;

  /// True if row `row` equals row `other_row` of `other` as Value::Equals
  /// compares them (int64 and double numerically, null only to null),
  /// except that NaN equals only a NaN of the same bits, as a hashed
  /// Value key behaves.
  bool EqualsAt(size_t row, const ColumnVector& other,
                size_t other_row) const;

  /// Hash of row `row`; rows that EqualsAt() pairs hash alike, across
  /// int64 and double columns too.
  size_t HashAt(size_t row) const;

  /// Overwrites a cell. Same typing rules as Append.
  Status SetValue(size_t row, const Value& value);

  /// Typed accessors; undefined if the row is null or type mismatches.
  bool BoolAt(size_t row) const { return bools()[row] != 0; }
  int64_t IntAt(size_t row) const { return ints()[row]; }
  double DoubleAt(size_t row) const { return doubles()[row]; }
  const std::string& StringAt(size_t row) const { return strings()[row]; }
  Date DateAt(size_t row) const { return Date(dates()[row]); }

  /// Read-only views of the typed storage, one entry per row, for scans
  /// that must not box cells. validity()[row] is 0 for a null row, whose
  /// typed entry is zero (or empty) and must not be interpreted. Taking
  /// the view of another type than type() is a programming error
  /// (std::bad_variant_access).
  std::span<const uint8_t> validity() const { return validity_; }
  std::span<const uint8_t> bools() const {
    return std::get<std::vector<uint8_t>>(data_);
  }
  std::span<const int64_t> ints() const {
    return std::get<std::vector<int64_t>>(data_);
  }
  std::span<const double> doubles() const {
    return std::get<std::vector<double>>(data_);
  }
  std::span<const std::string> strings() const {
    return std::get<std::vector<std::string>>(data_);
  }
  /// Days since the epoch.
  std::span<const int32_t> dates() const {
    return std::get<std::vector<int32_t>>(data_);
  }

  /// Numeric view of a cell: int64/double/bool coerce to double.
  /// Error if null or non-numeric type.
  Result<double> NumericAt(size_t row) const;

  /// New column containing rows at `indices`, in order.
  ColumnVector Take(const std::vector<size_t>& indices) const;

  /// Distinct non-null values, in first-appearance order.
  std::vector<Value> DistinctValues() const;

  /// Estimated heap footprint of this column's payload: value storage
  /// plus the validity bitmap plus per-string heap bytes. This is the
  /// same estimate the per-append resource charges accumulate, so a
  /// column built by appends reconciles with its pool's total.
  uint64_t ApproxBytes() const;

  /// Min / max over non-null entries; null Value if the column is all-null.
  Value Min() const;
  Value Max() const;

 private:
  std::string name_;
  DataType type_;
  std::variant<std::vector<uint8_t>,   // bool
               std::vector<int64_t>,   // int64
               std::vector<double>,    // double
               std::vector<std::string>,  // string
               std::vector<int32_t>>   // date (days since epoch)
      data_;
  std::vector<uint8_t> validity_;  // 1 = valid, 0 = null
  size_t null_count_ = 0;
};

}  // namespace ddgms

#endif  // DDGMS_TABLE_COLUMN_H_
