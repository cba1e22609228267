#ifndef DDGMS_COMMON_DATE_H_
#define DDGMS_COMMON_DATE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"

namespace ddgms {

/// Calendar date stored as days since the civil epoch 1970-01-01.
/// Visit timestamps in the clinical data are day-granular; a compact
/// integer encoding keeps columns sortable and arithmetic trivial.
class Date {
 public:
  Date() : days_(0) {}
  explicit Date(int32_t days_since_epoch) : days_(days_since_epoch) {}

  /// Builds a date from a civil year/month/day. Validates ranges
  /// (month 1-12, day valid for that month, with leap years, and a day
  /// count that fits in int32: -5877641-06-23 to 5881580-07-11).
  static Result<Date> FromYmd(int year, int month, int day);

  /// Parses "YYYY-MM-DD" with sscanf("%d-%d-%d") rules: each component
  /// may carry leading whitespace and a sign, and nothing may follow
  /// the day. ParseError when the text is not of that shape;
  /// InvalidArgument when a component or the date is out of range.
  static Result<Date> FromString(std::string_view text);

  /// FromString without allocating: true, with `*out` set, exactly when
  /// FromString succeeds.
  static bool TryParse(std::string_view text, Date* out);

  int32_t days_since_epoch() const { return days_; }

  int year() const;
  int month() const;
  int day() const;

  /// Date shifted by a number of days.
  Date AddDays(int32_t days) const { return Date(days_ + days); }
  /// Whole days from `other` to this date (positive if this is later).
  int32_t DaysSince(const Date& other) const { return days_ - other.days_; }
  /// Fractional years from `other` to this date (365.25-day years).
  double YearsSince(const Date& other) const {
    return static_cast<double>(days_ - other.days_) / 365.25;
  }

  /// "YYYY-MM-DD".
  std::string ToString() const;

  friend bool operator==(const Date& a, const Date& b) {
    return a.days_ == b.days_;
  }
  friend bool operator!=(const Date& a, const Date& b) { return !(a == b); }
  friend bool operator<(const Date& a, const Date& b) {
    return a.days_ < b.days_;
  }
  friend bool operator<=(const Date& a, const Date& b) {
    return a.days_ <= b.days_;
  }
  friend bool operator>(const Date& a, const Date& b) { return b < a; }
  friend bool operator>=(const Date& a, const Date& b) { return b <= a; }

 private:
  int32_t days_;
};

}  // namespace ddgms

#endif  // DDGMS_COMMON_DATE_H_
