#include "common/date.h"

#include <limits>

#include "common/annotations.h"
#include "common/strings.h"

namespace ddgms {

namespace {

// Howard Hinnant's civil-from-days / days-from-civil algorithms, in
// int64 so that every int year stays exact.
int64_t DaysFromCivil(int64_t y, int m, int d) {
  y -= m <= 2;
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy =
      (153 * (static_cast<unsigned>(m) + (m > 2 ? -3 : 9)) + 2) / 5 +
      static_cast<unsigned>(d) - 1;
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + static_cast<int64_t>(doe) - 719468;
}

void CivilFromDays(int64_t z, int* y, int* m, int* d) {
  z += 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t yy = static_cast<int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  const unsigned dd = doy - (153 * mp + 2) / 5 + 1;
  const unsigned mm = mp + (mp < 10 ? 3 : -9);
  *y = static_cast<int>(yy + (mm <= 2));
  *m = static_cast<int>(mm);
  *d = static_cast<int>(dd);
}

bool IsLeapYear(int year) {
  return (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
}

int DaysInMonth(int year, int month) {
  static const int kDays[] = {31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};
  if (month == 2 && IsLeapYear(year)) return 29;
  return kDays[month - 1];
}

// How reading "Y-M-D" ended.
enum class YmdScan { kOk, kSyntax, kRange };

// Reads three '-'-separated components as sscanf("%d-%d-%d%c") does:
// each %d skips whitespace and takes an optional sign and at least one
// digit, and the %c must find the end of the C string (so an embedded
// NUL ends the text too). A component outside int is kRange, where
// sscanf's behaviour is undefined.
DDGMS_HOT YmdScan ScanYmd(std::string_view text, int parts[3]) {
  const char* p = text.data();
  const char* const end = p + text.size();
  bool in_range = true;
  for (int i = 0; i < 3; ++i) {
    if (i > 0) {
      if (p == end || *p != '-') return YmdScan::kSyntax;
      ++p;
    }
    while (p != end && IsAsciiSpace(*p)) ++p;
    const bool negative = p != end && *p == '-';
    if (p != end && (*p == '-' || *p == '+')) ++p;
    if (p == end || !IsAsciiDigit(*p)) return YmdScan::kSyntax;
    int64_t value = 0;
    for (; p != end && IsAsciiDigit(*p); ++p) {
      // Saturates far outside int; only the range verdict matters then.
      if (value <= (int64_t{1} << 40)) value = value * 10 + (*p - '0');
    }
    if (negative) value = -value;
    if (value < std::numeric_limits<int>::min() ||
        value > std::numeric_limits<int>::max()) {
      in_range = false;
    } else {
      parts[i] = static_cast<int>(value);
    }
  }
  if (p != end && *p != '\0') return YmdScan::kSyntax;
  return in_range ? YmdScan::kOk : YmdScan::kRange;
}

// Which FromYmd rule a civil date breaks.
enum class YmdCheck { kOk, kMonth, kDay, kRange };

DDGMS_HOT YmdCheck CheckYmd(int year, int month, int day, int32_t* days) {
  if (month < 1 || month > 12) return YmdCheck::kMonth;
  if (day < 1 || day > DaysInMonth(year, month)) return YmdCheck::kDay;
  const int64_t n = DaysFromCivil(year, month, day);
  if (n < std::numeric_limits<int32_t>::min() ||
      n > std::numeric_limits<int32_t>::max()) {
    return YmdCheck::kRange;
  }
  *days = static_cast<int32_t>(n);
  return YmdCheck::kOk;
}

}  // namespace

Result<Date> Date::FromYmd(int year, int month, int day) {
  int32_t days = 0;
  switch (CheckYmd(year, month, day, &days)) {
    case YmdCheck::kOk:
      return Date(days);
    case YmdCheck::kMonth:
      return Status::InvalidArgument(
          StrFormat("month out of range: %d", month));
    case YmdCheck::kDay:
      return Status::InvalidArgument(StrFormat(
          "day out of range for %d-%02d: %d", year, month, day));
    case YmdCheck::kRange:
      break;
  }
  return Status::InvalidArgument(
      StrFormat("date out of range: %d-%02d-%02d", year, month, day));
}

Result<Date> Date::FromString(std::string_view text) {
  int ymd[3] = {0, 0, 0};
  switch (ScanYmd(text, ymd)) {
    case YmdScan::kOk:
      return FromYmd(ymd[0], ymd[1], ymd[2]);
    case YmdScan::kSyntax:
      return Status::ParseError("not a date (want YYYY-MM-DD): '" +
                                std::string(text) + "'");
    case YmdScan::kRange:
      break;
  }
  return Status::InvalidArgument("date component out of range: '" +
                                 std::string(text) + "'");
}

DDGMS_HOT bool Date::TryParse(std::string_view text, Date* out) {
  int ymd[3] = {0, 0, 0};
  int32_t days = 0;
  if (ScanYmd(text, ymd) != YmdScan::kOk ||
      CheckYmd(ymd[0], ymd[1], ymd[2], &days) != YmdCheck::kOk) {
    return false;
  }
  *out = Date(days);
  return true;
}

int Date::year() const {
  int y, m, d;
  CivilFromDays(days_, &y, &m, &d);
  return y;
}

int Date::month() const {
  int y, m, d;
  CivilFromDays(days_, &y, &m, &d);
  return m;
}

int Date::day() const {
  int y, m, d;
  CivilFromDays(days_, &y, &m, &d);
  return d;
}

std::string Date::ToString() const {
  int y, m, d;
  CivilFromDays(days_, &y, &m, &d);
  return StrFormat("%04d-%02d-%02d", y, m, d);
}

}  // namespace ddgms
