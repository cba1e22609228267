#ifndef DDGMS_TABLE_VALUE_H_
#define DDGMS_TABLE_VALUE_H_

#include <bit>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/date.h"
#include "common/result.h"

namespace ddgms {

/// Logical type of a column or value.
enum class DataType {
  kNull = 0,   // untyped null (only for standalone Values)
  kBool,
  kInt64,
  kDouble,
  kString,
  kDate,
};

/// Returns the canonical name ("int64", "string", ...).
const char* DataTypeName(DataType type);

/// True for kInt64 and kDouble.
bool IsNumeric(DataType type);

/// Dynamically typed scalar cell. Used at API boundaries (row append,
/// predicate literals, query results); bulk storage lives in typed
/// ColumnVector arrays.
class Value {
 public:
  /// Null value.
  Value() : data_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Bool(bool v) { return Value(Payload(v)); }
  static Value Int(int64_t v) { return Value(Payload(v)); }
  static Value Real(double v) { return Value(Payload(v)); }
  static Value Str(std::string v) { return Value(Payload(std::move(v))); }
  static Value FromDate(Date v) { return Value(Payload(v)); }

  DataType type() const {
    switch (data_.index()) {
      case 0: return DataType::kNull;
      case 1: return DataType::kBool;
      case 2: return DataType::kInt64;
      case 3: return DataType::kDouble;
      case 4: return DataType::kString;
      case 5: return DataType::kDate;
    }
    return DataType::kNull;
  }

  bool is_null() const { return data_.index() == 0; }

  /// Typed accessors. Calling the wrong accessor is a programming error
  /// (checked by assert in std::get).
  bool bool_value() const { return std::get<bool>(data_); }
  int64_t int_value() const { return std::get<int64_t>(data_); }
  double double_value() const { return std::get<double>(data_); }
  const std::string& string_value() const {
    return std::get<std::string>(data_);
  }
  Date date_value() const { return std::get<Date>(data_); }

  /// Numeric view: int64 and double coerce to double; bool to 0/1.
  /// Errors for null, string and date.
  Result<double> AsDouble() const;

  /// Human-readable rendering; nulls render as the empty string.
  std::string ToString() const;

  /// Total ordering across values: null sorts first; int64/double compare
  /// numerically with each other; otherwise values of different types
  /// order by type id. Returns <0, 0, >0.
  int Compare(const Value& other) const;

  bool Equals(const Value& other) const { return Compare(other) == 0; }

  /// Stable hash (used by group-by and dictionary keys).
  size_t Hash() const;

  friend bool operator==(const Value& a, const Value& b) {
    return a.Equals(b);
  }
  friend bool operator!=(const Value& a, const Value& b) {
    return !a.Equals(b);
  }
  friend bool operator<(const Value& a, const Value& b) {
    return a.Compare(b) < 0;
  }

 private:
  using Payload =
      std::variant<std::monostate, bool, int64_t, double, std::string, Date>;

  explicit Value(Payload data) : data_(std::move(data)) {}

  Payload data_;
};

/// std::hash adapter for Value (enables unordered containers keyed by
/// Value via explicit hasher).
struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

struct ValueEq {
  bool operator()(const Value& a, const Value& b) const {
    return a.Equals(b);
  }
};

/// Value compares int64 and double numerically, so typed hashes key both
/// by their double image: 5 and 5.0 are one key, and so are 0.0 and -0.0.
inline uint64_t NumericKey(double d) {
  return std::bit_cast<uint64_t>(d == 0.0 ? 0.0 : d);
}

/// Hash for a vector of values (group-by keys, cube coordinates).
struct ValueVectorHash {
  size_t operator()(const std::vector<Value>& vs) const {
    size_t h = 0xcbf29ce484222325ULL;
    for (const Value& v : vs) {
      h ^= v.Hash();
      h *= 0x100000001b3ULL;
    }
    return h;
  }
};

struct ValueVectorEq {
  bool operator()(const std::vector<Value>& a,
                  const std::vector<Value>& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (!a[i].Equals(b[i])) return false;
    }
    return true;
  }
};

}  // namespace ddgms

#endif  // DDGMS_TABLE_VALUE_H_
