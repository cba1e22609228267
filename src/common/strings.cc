#include "common/strings.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/annotations.h"

namespace ddgms {

std::vector<std::string> Split(std::string_view input, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = input.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(input.substr(start));
      break;
    }
    out.emplace_back(input.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::vector<std::string> SplitAndTrim(std::string_view input, char delim) {
  std::vector<std::string> out = Split(input, delim);
  for (std::string& s : out) {
    s = std::string(Trim(s));
  }
  return out;
}

std::string_view Trim(std::string_view input) {
  size_t begin = 0;
  size_t end = input.size();
  while (begin < end && IsAsciiSpace(input[begin])) ++begin;
  while (end > begin && IsAsciiSpace(input[end - 1])) --end;
  return input.substr(begin, end - begin);
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string ToLower(std::string_view input) {
  std::string out(input);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string ToUpper(std::string_view input) {
  std::string out(input);
  for (char& c : out) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return out;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

namespace {

// How a numeric parse of trimmed text ended.
enum class NumberScan { kOk, kEmpty, kSyntax, kRange };

// strtoll(text, 10) over the whole of `text`, via from_chars, which
// takes everything strtoll does except a leading '+'.
DDGMS_HOT NumberScan ScanInt64(std::string_view text, int64_t* out) {
  if (text.empty()) return NumberScan::kEmpty;
  const char* first = text.data();
  const char* const last = first + text.size();
  if (*first == '+') {
    ++first;
    if (first == last || !IsAsciiDigit(*first)) return NumberScan::kSyntax;
  }
  const auto [end, ec] = std::from_chars(first, last, *out);
  if (ec == std::errc::result_out_of_range) return NumberScan::kRange;
  if (ec != std::errc() || end != last) return NumberScan::kSyntax;
  return NumberScan::kOk;
}

// strtod over the whole of `text`. ERANGE is checked before the
// unparsed tail, so "1e400x" is out of range rather than malformed.
NumberScan ScanDoubleWithStrtod(std::string_view text, double* out) {
  // strtod reads a terminated string; short spellings stay on the
  // stack. An embedded NUL ends the parse early and so fails the
  // whole-text check below.
  char small[64];
  std::string large;
  const char* begin = small;
  if (text.size() < sizeof(small)) {
    std::memcpy(small, text.data(), text.size());
    small[text.size()] = '\0';
  } else {
    large.assign(text);
    begin = large.c_str();
  }
  errno = 0;
  char* end = nullptr;
  *out = std::strtod(begin, &end);
  if (errno == ERANGE) return NumberScan::kRange;
  if (end != begin + text.size()) return NumberScan::kSyntax;
  return NumberScan::kOk;
}

DDGMS_HOT NumberScan ScanDouble(std::string_view text, double* out) {
  if (text.empty()) return NumberScan::kEmpty;
  const char c = text[0];
  if (IsAsciiDigit(c) || c == '-' || c == '.') {
    // Decimal spellings: from_chars rounds correctly, as strtod does.
    // A finite result well inside the normal range cannot be ERANGE,
    // and strtod would read the same decimal prefix; zero (a hex
    // prefix "0x" stops from_chars at the 'x'), subnormals, infinities
    // and NaN take strtod's path below.
    double value = 0;
    const auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    const double magnitude = std::fabs(value);
    if (ec == std::errc() && magnitude >= 0x1p-1000 &&
        magnitude <= 0x1p1000) {
      if (end != text.data() + text.size()) return NumberScan::kSyntax;
      *out = value;
      return NumberScan::kOk;
    }
  }
  // strtod starts with a sign, a digit, a '.', "inf" or "nan".
  if (!IsAsciiDigit(c) && c != '+' && c != '-' && c != '.' && c != 'i' &&
      c != 'I' && c != 'n' && c != 'N') {
    return NumberScan::kSyntax;
  }
  return ScanDoubleWithStrtod(text, out);
}

}  // namespace

DDGMS_HOT bool TryParseInt64(std::string_view text, int64_t* out) {
  return ScanInt64(Trim(text), out) == NumberScan::kOk;
}

DDGMS_HOT bool TryParseDouble(std::string_view text, double* out) {
  return ScanDouble(Trim(text), out) == NumberScan::kOk;
}

DDGMS_HOT bool TryParseBool(std::string_view text, bool* out) {
  const std::string_view t = Trim(text);
  for (const char* spelling : {"true", "1", "yes", "y"}) {
    if (EqualsIgnoreCase(t, spelling)) {
      *out = true;
      return true;
    }
  }
  for (const char* spelling : {"false", "0", "no", "n"}) {
    if (EqualsIgnoreCase(t, spelling)) {
      *out = false;
      return true;
    }
  }
  return false;
}

Result<double> ParseDouble(std::string_view text) {
  const std::string_view trimmed = Trim(text);
  double value = 0;
  switch (ScanDouble(trimmed, &value)) {
    case NumberScan::kOk:
      return value;
    case NumberScan::kEmpty:
      return Status::ParseError("empty string is not a double");
    case NumberScan::kRange:
      return Status::ParseError("double out of range: '" +
                                std::string(trimmed) + "'");
    case NumberScan::kSyntax:
      break;
  }
  return Status::ParseError("not a double: '" + std::string(trimmed) + "'");
}

Result<int64_t> ParseInt64(std::string_view text) {
  const std::string_view trimmed = Trim(text);
  int64_t value = 0;
  switch (ScanInt64(trimmed, &value)) {
    case NumberScan::kOk:
      return value;
    case NumberScan::kEmpty:
      return Status::ParseError("empty string is not an integer");
    case NumberScan::kRange:
      return Status::ParseError("integer out of range: '" +
                                std::string(trimmed) + "'");
    case NumberScan::kSyntax:
      break;
  }
  return Status::ParseError("not an integer: '" + std::string(trimmed) +
                            "'");
}

Result<bool> ParseBool(std::string_view text) {
  bool value = false;
  if (TryParseBool(text, &value)) return value;
  return Status::ParseError("not a bool: '" + ToLower(Trim(text)) + "'");
}

void AppendDouble(std::string* out, double value, int precision) {
  if (precision < 0) precision = 6;  // as printf reads a negative one
  // Fixed notation takes at most a sign, 309 integer digits (DBL_MAX), a
  // point and `precision` decimals.
  const size_t need = 311 + static_cast<size_t>(precision);
  char stack[400];
  std::string heap;
  char* buf = stack;
  if (need > sizeof(stack)) {
    heap.resize(need);
    buf = heap.data();
  }
  const char* end = std::to_chars(buf, buf + need, value,
                                  std::chars_format::fixed, precision)
                        .ptr;
  std::string_view digits(buf, static_cast<size_t>(end - buf));
  if (digits.find('.') != std::string_view::npos) {
    digits.remove_suffix(digits.size() - 1 - digits.find_last_not_of('0'));
    if (digits.back() == '.') digits.remove_suffix(1);
  }
  out->append(digits);
}

std::string FormatDouble(double value, int precision) {
  std::string out;
  AppendDouble(&out, value, precision);
  return out;
}

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace ddgms
