#include "table/column.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <string_view>
#include <type_traits>
#include <unordered_set>

#include "common/resource.h"
#include "common/strings.h"

namespace ddgms {

namespace {

// Index of the storage alternative for a type.
size_t StorageIndex(DataType type) {
  switch (type) {
    case DataType::kBool: return 0;
    case DataType::kInt64: return 1;
    case DataType::kDouble: return 2;
    case DataType::kString: return 3;
    case DataType::kDate: return 4;
    case DataType::kNull: break;
  }
  assert(false && "kNull has no column storage");
  return 0;
}

// Bytes one appended slot adds to value storage + validity bitmap.
// Strings add their heap payload on top (see AppendString).
uint64_t SlotBytes(DataType type) {
  switch (type) {
    case DataType::kBool: return sizeof(uint8_t) + 1;
    case DataType::kInt64: return sizeof(int64_t) + 1;
    case DataType::kDouble: return sizeof(double) + 1;
    case DataType::kString: return sizeof(std::string) + 1;
    case DataType::kDate: return sizeof(int32_t) + 1;
    case DataType::kNull: break;
  }
  return 0;
}

// MurmurHash3's 64-bit finalizer: spreads every input bit over the low
// bits that a power-of-two hash table indexes by.
uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

// The double image of a valid int64 or double cell.
double NumericImage(const ColumnVector& col, size_t row) {
  return col.type() == DataType::kInt64 ? static_cast<double>(col.IntAt(row))
                                        : col.DoubleAt(row);
}

}  // namespace

ColumnVector::ColumnVector(std::string name, DataType type)
    : name_(std::move(name)), type_(type) {
  switch (StorageIndex(type)) {
    case 0: data_ = std::vector<uint8_t>{}; break;
    case 1: data_ = std::vector<int64_t>{}; break;
    case 2: data_ = std::vector<double>{}; break;
    case 3: data_ = std::vector<std::string>{}; break;
    case 4: data_ = std::vector<int32_t>{}; break;
  }
}

Status ColumnVector::Append(const Value& value) {
  if (value.is_null()) {
    AppendNull();
    return Status::OK();
  }
  switch (type_) {
    case DataType::kBool:
      if (value.type() != DataType::kBool) break;
      AppendBool(value.bool_value());
      return Status::OK();
    case DataType::kInt64:
      if (value.type() != DataType::kInt64) break;
      AppendInt(value.int_value());
      return Status::OK();
    case DataType::kDouble:
      if (value.type() == DataType::kDouble) {
        AppendDouble(value.double_value());
        return Status::OK();
      }
      if (value.type() == DataType::kInt64) {
        AppendDouble(static_cast<double>(value.int_value()));
        return Status::OK();
      }
      break;
    case DataType::kString:
      if (value.type() != DataType::kString) break;
      AppendString(value.string_value());
      return Status::OK();
    case DataType::kDate:
      if (value.type() != DataType::kDate) break;
      AppendDate(value.date_value());
      return Status::OK();
    case DataType::kNull:
      break;
  }
  return Status::InvalidArgument(
      StrFormat("cannot append %s value to %s column '%s'",
                DataTypeName(value.type()), DataTypeName(type_),
                name_.c_str()));
}

void ColumnVector::Reserve(size_t rows) {
  std::visit([rows](auto& values) { values.reserve(rows); }, data_);
  validity_.reserve(rows);
}

void ColumnVector::AppendNull() {
  switch (type_) {
    case DataType::kBool:
      std::get<std::vector<uint8_t>>(data_).push_back(0);
      break;
    case DataType::kInt64:
      std::get<std::vector<int64_t>>(data_).push_back(0);
      break;
    case DataType::kDouble:
      std::get<std::vector<double>>(data_).push_back(0.0);
      break;
    case DataType::kString:
      std::get<std::vector<std::string>>(data_).emplace_back();
      break;
    case DataType::kDate:
      std::get<std::vector<int32_t>>(data_).push_back(0);
      break;
    case DataType::kNull:
      assert(false);
      break;
  }
  validity_.push_back(0);
  ++null_count_;
  DDGMS_RESOURCE_CHARGE(SlotBytes(type_));
}

void ColumnVector::AppendBool(bool v) {
  assert(type_ == DataType::kBool);
  std::get<std::vector<uint8_t>>(data_).push_back(v ? 1 : 0);
  validity_.push_back(1);
  DDGMS_RESOURCE_CHARGE(SlotBytes(DataType::kBool));
}

void ColumnVector::AppendInt(int64_t v) {
  assert(type_ == DataType::kInt64);
  std::get<std::vector<int64_t>>(data_).push_back(v);
  validity_.push_back(1);
  DDGMS_RESOURCE_CHARGE(SlotBytes(DataType::kInt64));
}

void ColumnVector::AppendDouble(double v) {
  assert(type_ == DataType::kDouble);
  std::get<std::vector<double>>(data_).push_back(v);
  validity_.push_back(1);
  DDGMS_RESOURCE_CHARGE(SlotBytes(DataType::kDouble));
}

void ColumnVector::AppendString(std::string_view v) {
  assert(type_ == DataType::kString);
  DDGMS_RESOURCE_CHARGE(SlotBytes(DataType::kString) + v.size());
  std::get<std::vector<std::string>>(data_).emplace_back(v);
  validity_.push_back(1);
}

void ColumnVector::AppendDate(Date v) {
  assert(type_ == DataType::kDate);
  std::get<std::vector<int32_t>>(data_).push_back(v.days_since_epoch());
  validity_.push_back(1);
  DDGMS_RESOURCE_CHARGE(SlotBytes(DataType::kDate));
}

void ColumnVector::AppendColumn(const ColumnVector& other) {
  assert(other.type_ == type_);
  // Read everything about `other` before growing: it may be this column.
  const size_t n = other.size();
  const size_t nulls = other.null_count_;
  DDGMS_RESOURCE_CHARGE(other.ApproxBytes());
  std::visit(
      [&other, n](auto& values) {
        using Values = std::decay_t<decltype(values)>;
        const Values& from = std::get<Values>(other.data_);
        const size_t old = values.size();
        values.resize(old + n);
        std::copy_n(from.begin(), n, values.begin() + old);
      },
      data_);
  const size_t old = validity_.size();
  validity_.resize(old + n);
  std::copy_n(other.validity_.begin(), n, validity_.begin() + old);
  null_count_ += nulls;
}

void ColumnVector::AppendFrom(const ColumnVector& other, size_t row) {
  if (other.IsNull(row)) {
    AppendNull();
    return;
  }
  switch (type_) {
    case DataType::kBool:
      AppendBool(other.BoolAt(row));
      return;
    case DataType::kInt64:
      AppendInt(other.type_ == DataType::kBool ? int64_t{other.BoolAt(row)}
                                               : other.IntAt(row));
      return;
    case DataType::kDouble:
      AppendDouble(other.type_ == DataType::kBool
                       ? (other.BoolAt(row) ? 1.0 : 0.0)
                       : NumericImage(other, row));
      return;
    case DataType::kString:
      AppendString(other.StringAt(row));
      return;
    case DataType::kDate:
      AppendDate(other.DateAt(row));
      return;
    case DataType::kNull:
      break;
  }
  assert(false && "kNull has no column storage");
}

Value ColumnVector::GetValue(size_t row) const {
  assert(row < size());
  if (IsNull(row)) return Value::Null();
  switch (type_) {
    case DataType::kBool: return Value::Bool(BoolAt(row));
    case DataType::kInt64: return Value::Int(IntAt(row));
    case DataType::kDouble: return Value::Real(DoubleAt(row));
    case DataType::kString: return Value::Str(StringAt(row));
    case DataType::kDate: return Value::FromDate(DateAt(row));
    case DataType::kNull: break;
  }
  return Value::Null();
}

bool ColumnVector::EqualsAt(size_t row, const ColumnVector& other,
                            size_t other_row) const {
  const bool null = IsNull(row);
  if (null || other.IsNull(other_row)) {
    return null && other.IsNull(other_row);
  }
  if (IsNumeric(type_) && IsNumeric(other.type_)) {
    return NumericKey(NumericImage(*this, row)) ==
           NumericKey(NumericImage(other, other_row));
  }
  if (type_ != other.type_) return false;
  switch (type_) {
    case DataType::kBool: return BoolAt(row) == other.BoolAt(other_row);
    case DataType::kString: return StringAt(row) == other.StringAt(other_row);
    case DataType::kDate: return dates()[row] == other.dates()[other_row];
    default: return false;  // numeric handled above; kNull has no storage
  }
}

size_t ColumnVector::HashAt(size_t row) const {
  if (IsNull(row)) return 0x9e3779b97f4a7c15ULL;
  switch (type_) {
    case DataType::kBool:
      return BoolAt(row) ? 0x2545f4914f6cdd1dULL : 0x6a09e667f3bcc909ULL;
    case DataType::kInt64:
    case DataType::kDouble:
      return Mix64(NumericKey(NumericImage(*this, row)));
    case DataType::kString:
      return std::hash<std::string_view>{}(StringAt(row));
    case DataType::kDate:
      return Mix64(static_cast<uint64_t>(dates()[row]) ^
                   0x94d049bb133111ebULL);
    case DataType::kNull:
      break;
  }
  return 0;
}

Status ColumnVector::SetValue(size_t row, const Value& value) {
  if (row >= size()) {
    return Status::OutOfRange(
        StrFormat("row %zu out of range (size %zu)", row, size()));
  }
  bool was_null = IsNull(row);
  if (value.is_null()) {
    if (!was_null) {
      validity_[row] = 0;
      ++null_count_;
    }
    return Status::OK();
  }
  bool stored = false;
  switch (type_) {
    case DataType::kBool:
      if (value.type() == DataType::kBool) {
        std::get<std::vector<uint8_t>>(data_)[row] =
            value.bool_value() ? 1 : 0;
        stored = true;
      }
      break;
    case DataType::kInt64:
      if (value.type() == DataType::kInt64) {
        std::get<std::vector<int64_t>>(data_)[row] = value.int_value();
        stored = true;
      }
      break;
    case DataType::kDouble:
      if (value.type() == DataType::kDouble) {
        std::get<std::vector<double>>(data_)[row] = value.double_value();
        stored = true;
      } else if (value.type() == DataType::kInt64) {
        std::get<std::vector<double>>(data_)[row] =
            static_cast<double>(value.int_value());
        stored = true;
      }
      break;
    case DataType::kString:
      if (value.type() == DataType::kString) {
        std::get<std::vector<std::string>>(data_)[row] =
            value.string_value();
        stored = true;
      }
      break;
    case DataType::kDate:
      if (value.type() == DataType::kDate) {
        std::get<std::vector<int32_t>>(data_)[row] =
            value.date_value().days_since_epoch();
        stored = true;
      }
      break;
    case DataType::kNull:
      break;
  }
  if (!stored) {
    return Status::InvalidArgument(
        StrFormat("cannot set %s value in %s column '%s'",
                  DataTypeName(value.type()), DataTypeName(type_),
                  name_.c_str()));
  }
  if (was_null) {
    validity_[row] = 1;
    --null_count_;
  }
  return Status::OK();
}

Result<double> ColumnVector::NumericAt(size_t row) const {
  if (row >= size()) {
    return Status::OutOfRange(
        StrFormat("row %zu out of range (size %zu)", row, size()));
  }
  if (IsNull(row)) {
    return Status::InvalidArgument("null cell has no numeric value");
  }
  switch (type_) {
    case DataType::kBool: return BoolAt(row) ? 1.0 : 0.0;
    case DataType::kInt64: return static_cast<double>(IntAt(row));
    case DataType::kDouble: return DoubleAt(row);
    default:
      return Status::InvalidArgument(
          StrFormat("column '%s' of type %s is not numeric", name_.c_str(),
                    DataTypeName(type_)));
  }
}

ColumnVector ColumnVector::Take(const std::vector<size_t>& indices) const {
  ColumnVector out(name_, type_);
  for (size_t idx : indices) {
    assert(idx < size());
    if (IsNull(idx)) {
      out.AppendNull();
      continue;
    }
    switch (type_) {
      case DataType::kBool: out.AppendBool(BoolAt(idx)); break;
      case DataType::kInt64: out.AppendInt(IntAt(idx)); break;
      case DataType::kDouble: out.AppendDouble(DoubleAt(idx)); break;
      case DataType::kString: out.AppendString(StringAt(idx)); break;
      case DataType::kDate: out.AppendDate(DateAt(idx)); break;
      case DataType::kNull: break;
    }
  }
  return out;
}

uint64_t ColumnVector::ApproxBytes() const {
  uint64_t bytes = static_cast<uint64_t>(size()) * SlotBytes(type_);
  if (type_ == DataType::kString) {
    for (const std::string& s : strings()) bytes += s.size();
  }
  return bytes;
}

std::vector<Value> ColumnVector::DistinctValues() const {
  std::vector<Value> out;
  std::unordered_set<Value, ValueHash, ValueEq> seen;
  for (size_t i = 0; i < size(); ++i) {
    if (IsNull(i)) continue;
    Value v = GetValue(i);
    if (seen.insert(v).second) {
      out.push_back(std::move(v));
    }
  }
  return out;
}

Value ColumnVector::Min() const {
  Value best = Value::Null();
  for (size_t i = 0; i < size(); ++i) {
    if (IsNull(i)) continue;
    Value v = GetValue(i);
    if (best.is_null() || v.Compare(best) < 0) best = std::move(v);
  }
  return best;
}

Value ColumnVector::Max() const {
  Value best = Value::Null();
  for (size_t i = 0; i < size(); ++i) {
    if (IsNull(i)) continue;
    Value v = GetValue(i);
    if (best.is_null() || v.Compare(best) > 0) best = std::move(v);
  }
  return best;
}

}  // namespace ddgms
