#include "table/column.h"

#include <cassert>
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

void ColumnVector::AppendString(std::string v) {
  assert(type_ == DataType::kString);
  DDGMS_RESOURCE_CHARGE(SlotBytes(DataType::kString) + v.size());
  std::get<std::vector<std::string>>(data_).push_back(std::move(v));
  validity_.push_back(1);
}

void ColumnVector::AppendDate(Date v) {
  assert(type_ == DataType::kDate);
  std::get<std::vector<int32_t>>(data_).push_back(v.days_since_epoch());
  validity_.push_back(1);
  DDGMS_RESOURCE_CHARGE(SlotBytes(DataType::kDate));
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
