#ifndef DDGMS_COMMON_STRINGS_H_
#define DDGMS_COMMON_STRINGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace ddgms {

/// Splits `input` on `delim`. Adjacent delimiters yield empty fields;
/// an empty input yields a single empty field.
std::vector<std::string> Split(std::string_view input, char delim);

/// Splits on `delim`, trimming ASCII whitespace from each field.
std::vector<std::string> SplitAndTrim(std::string_view input, char delim);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view input);

/// Joins `parts` with `sep` between elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// ASCII lower/upper casing (locale-independent).
std::string ToLower(std::string_view input);
std::string ToUpper(std::string_view input);

/// True if `text` starts with / ends with the given affix.
bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

/// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// True for the ASCII whitespace Trim removes (C isspace in the "C"
/// locale: space, \t, \n, \v, \f, \r).
inline bool IsAsciiSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
         c == '\v';
}

/// True for '0' through '9'.
inline bool IsAsciiDigit(char c) { return c >= '0' && c <= '9'; }

/// Strict parsing without allocation: true, with `*out` set, when the
/// whole of `text` (after trimming) spells a value; false otherwise,
/// with `*out` unspecified.
///   - TryParseInt64: strtoll base 10 ([+-]digits); out of range fails.
///   - TryParseDouble: strtod (decimal, hex, inf, nan); a result that
///     strtod reports as ERANGE (overflow, or underflow to a subnormal
///     or zero) fails.
///   - TryParseBool: true/1/yes/y and false/0/no/n, any case.
/// Plain decimal spellings take a std::from_chars fast path; the rest
/// keep strtod's rules.
bool TryParseInt64(std::string_view text, int64_t* out);
bool TryParseDouble(std::string_view text, double* out);
bool TryParseBool(std::string_view text, bool* out);

/// The same parsers returning a ParseError that names the reason
/// (empty, out of range, or not a number) when `text` does not parse.
Result<double> ParseDouble(std::string_view text);
Result<int64_t> ParseInt64(std::string_view text);
Result<bool> ParseBool(std::string_view text);

/// Formats a double compactly: integral values print without a fractional
/// part; otherwise up to `precision` significant decimals, trailing zeros
/// trimmed. Every integer digit is kept, up to DBL_MAX's 309.
std::string FormatDouble(double value, int precision = 6);

/// Appends FormatDouble(value, precision) to `out`.
void AppendDouble(std::string* out, double value, int precision = 6);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace ddgms

#endif  // DDGMS_COMMON_STRINGS_H_
