// Unit tests for src/common: Status, Result, strings, CSV, Date, Rng.

#include <gtest/gtest.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <set>
#include <string_view>
#include <vector>

#include "common/csv.h"
#include "common/date.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"

namespace ddgms {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryFunctionsSetCodeAndMessage) {
  Status s = Status::InvalidArgument("bad");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(), "bad");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad");

  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::FailedPrecondition("x").IsFailedPrecondition());
  EXPECT_TRUE(Status::ParseError("x").IsParseError());
  EXPECT_TRUE(Status::DataLoss("x").IsDataLoss());
  EXPECT_TRUE(Status::Unimplemented("x").IsUnimplemented());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
}

TEST(StatusTest, EveryCodeHasACanonicalName) {
  std::set<std::string> names;
  for (StatusCode code : kAllStatusCodes) {
    std::string name = StatusCodeName(code);
    EXPECT_NE(name, "Unknown") << "unnamed code";
    EXPECT_FALSE(name.empty());
    names.insert(name);
  }
  // Names are distinct — one per enumerator.
  EXPECT_EQ(names.size(), std::size(kAllStatusCodes));
}

TEST(StatusTest, StatusCodeNameRoundTripsThroughFromName) {
  for (StatusCode code : kAllStatusCodes) {
    StatusCode parsed;
    ASSERT_TRUE(StatusCodeFromName(StatusCodeName(code), &parsed))
        << StatusCodeName(code);
    EXPECT_EQ(parsed, code);
  }
  StatusCode ignored;
  EXPECT_FALSE(StatusCodeFromName("NoSuchCode", &ignored));
  EXPECT_FALSE(StatusCodeFromName("", &ignored));
}

TEST(StatusTest, ToStringRoundTripsForEveryCode) {
  for (StatusCode code : kAllStatusCodes) {
    if (code == StatusCode::kOk) {
      EXPECT_EQ(Status::OK().ToString(), "OK");
      continue;
    }
    Status status(code, "some detail");
    std::string text = status.ToString();
    // "<Name>: <message>" — both halves must be recoverable.
    size_t colon = text.find(": ");
    ASSERT_NE(colon, std::string::npos) << text;
    StatusCode parsed;
    ASSERT_TRUE(StatusCodeFromName(text.substr(0, colon), &parsed));
    EXPECT_EQ(parsed, code);
    EXPECT_EQ(text.substr(colon + 2), "some detail");
  }
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

Status HelperReturnIfError(bool fail) {
  DDGMS_RETURN_IF_ERROR(fail ? Status::Internal("inner") : Status::OK());
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorMacroPropagates) {
  EXPECT_TRUE(HelperReturnIfError(false).ok());
  EXPECT_TRUE(HelperReturnIfError(true).IsInternal());
}

// ---------------------------------------------------------------- Result

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(-1), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, OkStatusBecomesInternalError) {
  Result<int> r = Status::OK();
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInternal());
}

Result<int> HelperAssignOrReturn(Result<int> input) {
  DDGMS_ASSIGN_OR_RETURN(int v, input);
  return v + 1;
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(*HelperAssignOrReturn(1), 2);
  EXPECT_TRUE(HelperAssignOrReturn(Status::ParseError("x"))
                  .status()
                  .IsParseError());
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("hello");
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "hello");
}

// --------------------------------------------------------------- strings

TEST(StringsTest, SplitBasic) {
  EXPECT_EQ(Split("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(StringsTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringsTest, SplitAndTrim) {
  EXPECT_EQ(SplitAndTrim(" a ;  b;c ", ';'),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim("\t\nx\r "), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringsTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(StringsTest, CaseConversion) {
  EXPECT_EQ(ToLower("AbC"), "abc");
  EXPECT_EQ(ToUpper("AbC"), "ABC");
  EXPECT_TRUE(EqualsIgnoreCase("Select", "SELECT"));
  EXPECT_FALSE(EqualsIgnoreCase("Select", "Selects"));
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("warehouse", "ware"));
  EXPECT_FALSE(StartsWith("ware", "warehouse"));
  EXPECT_TRUE(EndsWith("warehouse", "house"));
  EXPECT_FALSE(EndsWith("house", "warehouse"));
}

TEST(StringsTest, ParseDoubleStrict) {
  EXPECT_DOUBLE_EQ(*ParseDouble("3.25"), 3.25);
  EXPECT_DOUBLE_EQ(*ParseDouble(" -4e2 "), -400.0);
  EXPECT_TRUE(ParseDouble("3.25x").status().IsParseError());
  EXPECT_TRUE(ParseDouble("").status().IsParseError());
  EXPECT_TRUE(ParseDouble("nanx").status().IsParseError());
}

TEST(StringsTest, ParseInt64Strict) {
  EXPECT_EQ(*ParseInt64("123"), 123);
  EXPECT_EQ(*ParseInt64("-5"), -5);
  EXPECT_TRUE(ParseInt64("12.5").status().IsParseError());
  EXPECT_TRUE(ParseInt64("99999999999999999999").status().IsParseError());
}

TEST(StringsTest, ParseBool) {
  EXPECT_TRUE(*ParseBool("true"));
  EXPECT_TRUE(*ParseBool("YES"));
  EXPECT_FALSE(*ParseBool("0"));
  EXPECT_TRUE(ParseBool("maybe").status().IsParseError());
}

TEST(StringsTest, ParseErrorsNameTheReason) {
  EXPECT_EQ(ParseInt64(" ").status().message(),
            "empty string is not an integer");
  EXPECT_EQ(ParseInt64(" 99999999999999999999x ").status().message(),
            "integer out of range: '99999999999999999999x'");
  EXPECT_EQ(ParseInt64("+-5").status().message(), "not an integer: '+-5'");
  EXPECT_EQ(ParseDouble("").status().message(),
            "empty string is not a double");
  EXPECT_EQ(ParseDouble("1e400x").status().message(),
            "double out of range: '1e400x'");
  EXPECT_EQ(ParseDouble("4.9e-324").status().message(),
            "double out of range: '4.9e-324'");
  EXPECT_EQ(ParseDouble(" 2020-01-05").status().message(),
            "not a double: '2020-01-05'");
  EXPECT_EQ(ParseBool(" Maybe ").status().message(), "not a bool: 'maybe'");
}

// The strtoll/strtod contract the view parsers keep: the whole trimmed
// text must parse, and ERANGE fails.
bool ReferenceInt64(std::string_view text, int64_t* out) {
  const std::string trimmed(Trim(text));
  if (trimmed.empty()) return false;
  errno = 0;
  char* end = nullptr;
  *out = std::strtoll(trimmed.c_str(), &end, 10);
  return errno != ERANGE && end == trimmed.c_str() + trimmed.size();
}

bool ReferenceDouble(std::string_view text, double* out) {
  const std::string trimmed(Trim(text));
  if (trimmed.empty()) return false;
  errno = 0;
  char* end = nullptr;
  *out = std::strtod(trimmed.c_str(), &end);
  return errno != ERANGE && end == trimmed.c_str() + trimmed.size();
}

// A random numeric-looking spelling: sign, digits, point, exponent,
// hex, inf/nan, whitespace and junk, in seeded proportions.
std::string RandomSpelling(Rng& rng) {
  static const char* const kWords[] = {"inf", "Infinity", "nan", "NaN(1)",
                                       "0x1p-3", "0X1A", "0x", "e", "-",
                                       "+", ".", " ", "\t", "x"};
  std::string out;
  if (rng.UniformInt(0, 9) == 0) out += ' ';
  switch (rng.UniformInt(0, 3)) {
    case 0: out += '-'; break;
    case 1: out += '+'; break;
    default: break;
  }
  const int64_t shape = rng.UniformInt(0, 9);
  if (shape == 0) {
    out += kWords[rng.UniformInt(0, 13)];
  } else {
    const int64_t int_digits = rng.UniformInt(0, shape < 3 ? 25 : 6);
    for (int64_t i = 0; i < int_digits; ++i) {
      out += static_cast<char>('0' + rng.UniformInt(0, 9));
    }
    if (rng.UniformInt(0, 1) == 0) {
      out += '.';
      const int64_t frac = rng.UniformInt(0, 20);
      for (int64_t i = 0; i < frac; ++i) {
        out += static_cast<char>('0' + rng.UniformInt(0, 9));
      }
    }
    if (rng.UniformInt(0, 2) == 0) {
      out += rng.UniformInt(0, 1) == 0 ? 'e' : 'E';
      if (rng.UniformInt(0, 1) == 0) out += rng.UniformInt(0, 1) ? '-' : '+';
      out += std::to_string(rng.UniformInt(0, 330));
    }
  }
  if (rng.UniformInt(0, 7) == 0) out += kWords[rng.UniformInt(0, 13)];
  if (rng.UniformInt(0, 9) == 0) out += ' ';
  return out;
}

TEST(StringsTest, ViewParsersAgreeWithStrtodOnSeededSpellings) {
  std::vector<std::string> spellings = {
      "0", "-0", "+0", "0.0", "-0.0", "0e999999", "1e-400", "4.9e-324",
      "2.2250738585072011e-308", "2.2250738585072014e-308", "1e308",
      "1.7976931348623157e308", "1.7976931348623159e308", "1e400",
      "9223372036854775807", "9223372036854775808", "-9223372036854775808",
      "-9223372036854775809", ".5", "5.", "-.5", "+.5", ".", "0x1A",
      "-0x1p3", "inf", "-Infinity", "nan", "nan(abc)", " 12 ", "\v12\f",
      "1,5", "1e", "1e+", "2020-01-05", std::string("12\0", 3)};
  Rng rng(20130408);
  for (int i = 0; i < 20000; ++i) spellings.push_back(RandomSpelling(rng));
  for (const std::string& text : spellings) {
    SCOPED_TRACE("'" + text + "'");
    int64_t want_int = 0, got_int = 0;
    const bool int_ok = ReferenceInt64(text, &want_int);
    ASSERT_EQ(TryParseInt64(text, &got_int), int_ok);
    if (int_ok) {
      ASSERT_EQ(got_int, want_int);
    }
    ASSERT_EQ(ParseInt64(text).ok(), int_ok);
    double want = 0, got = 0;
    const bool double_ok = ReferenceDouble(text, &want);
    ASSERT_EQ(TryParseDouble(text, &got), double_ok);
    if (double_ok && !std::isnan(want)) {
      ASSERT_EQ(std::memcmp(&got, &want, sizeof(got)), 0) << got;
    }
    ASSERT_EQ(ParseDouble(text).ok(), double_ok);
  }
}

TEST(StringsTest, TryParseBoolTakesEverySpelling) {
  bool b = false;
  for (const char* yes : {"true", "TRUE", " Yes ", "y", "1"}) {
    EXPECT_TRUE(TryParseBool(yes, &b) && b) << yes;
  }
  for (const char* no : {"false", "No", "\tn", "0", "FALSE"}) {
    EXPECT_TRUE(TryParseBool(no, &b) && !b) << no;
  }
  for (const char* neither : {"", "2", "t", "yess", "on"}) {
    EXPECT_FALSE(TryParseBool(neither, &b)) << neither;
  }
}

TEST(StringsTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(2.0), "2");
  EXPECT_EQ(FormatDouble(2.5), "2.5");
  EXPECT_EQ(FormatDouble(2.50000001, 4), "2.5");
  EXPECT_EQ(FormatDouble(-0.25), "-0.25");
}

// printf("%.*f") into a buffer that holds any double, with FormatDouble's
// trailing zeros trimmed: the spelling FormatDouble promises.
std::string ReferenceFormatDouble(double value, int precision) {
  std::vector<char> buf(400 + static_cast<size_t>(precision));
  std::snprintf(buf.data(), buf.size(), "%.*f", precision, value);
  std::string out(buf.data());
  if (out.find('.') != std::string::npos) {
    size_t last = out.find_last_not_of('0');
    if (out[last] == '.') --last;
    out.erase(last + 1);
  }
  return out;
}

TEST(StringsTest, FormatDoubleMatchesPrintfOnSeededValues) {
  std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 0.5, 1e-7, 5e-7, 4.9e-324, 2.2250738585072014e-308,
      123456.7890125, 9007199254740993.0, 1e22, 1e23, 1e300, -2.5e200,
      std::numeric_limits<double>::max(), -std::numeric_limits<double>::max(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN()};
  Rng rng(20130408);
  for (int i = 0; i < 5000; ++i) {
    uint64_t bits = rng.NextUint64();
    double v = 0;
    std::memcpy(&v, &bits, sizeof(v));
    values.push_back(v);  // any bit pattern: NaNs, subnormals, huge
    values.push_back(rng.Uniform(-1e6, 1e6));
    values.push_back(static_cast<double>(rng.UniformInt(-100000, 100000)) /
                     1000.0);
  }
  for (double v : values) {
    for (int precision : {0, 1, 4, 6, 17}) {
      ASSERT_EQ(FormatDouble(v, precision), ReferenceFormatDouble(v, precision))
          << "precision " << precision;
    }
  }
}

TEST(StringsTest, FormatDoubleKeepsEveryIntegerDigit) {
  // 63 and more integer digits were once cut to 63 characters.
  EXPECT_EQ(FormatDouble(1e300), ReferenceFormatDouble(1e300, 6));
  EXPECT_EQ(FormatDouble(1e300).size(), 301u);
  EXPECT_EQ(FormatDouble(1e300).substr(0, 17), "10000000000000000");
  EXPECT_EQ(FormatDouble(-2.5e200).size(), 202u);
  EXPECT_EQ(FormatDouble(-2.5e200), ReferenceFormatDouble(-2.5e200, 6));
  const double max = std::numeric_limits<double>::max();
  EXPECT_EQ(FormatDouble(max).size(), 309u);
  EXPECT_EQ(FormatDouble(max).substr(0, 20), "17976931348623157081");
  EXPECT_EQ(FormatDouble(max), ReferenceFormatDouble(max, 6));
  for (double v : {1e300, -2.5e200, max}) {
    double back = 0;
    ASSERT_TRUE(TryParseDouble(FormatDouble(v), &back)) << v;
    EXPECT_EQ(back, v);
  }
  std::string appended = "x=";
  AppendDouble(&appended, 2.5);
  EXPECT_EQ(appended, "x=2.5");
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(StrFormat("%.2f", 1.2345), "1.23");
}

TEST(StringsTest, JsonEscapeWritesValidJsonStringContent) {
  EXPECT_EQ(JsonEscape("plain text: 37 mmol/L, ≥ 7"),
            "plain text: 37 mmol/L, ≥ 7");
  EXPECT_EQ(JsonEscape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(JsonEscape("C:\\dir"), "C:\\\\dir");
  EXPECT_EQ(JsonEscape("a\nb\rc\td"), "a\\nb\\rc\\td");
  EXPECT_EQ(JsonEscape(std::string_view("\x01\x1f\0", 3)),
            "\\u0001\\u001f\\u0000");
  EXPECT_EQ(JsonEscape(""), "");
}

// ------------------------------------------------------------------- CSV

TEST(CsvTest, ParseSimpleLine) {
  auto fields = ParseCsvLine("a,b,c");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(*fields, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(CsvTest, ParseQuotedFields) {
  auto fields = ParseCsvLine(R"("a,b",c,"say ""hi""")");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(*fields,
            (std::vector<std::string>{"a,b", "c", "say \"hi\""}));
}

TEST(CsvTest, UnterminatedQuoteIsError) {
  EXPECT_TRUE(ParseCsvLine("\"abc").status().IsParseError());
}

TEST(CsvTest, ParseDocumentWithCrlfAndEmbeddedNewline) {
  auto rows = ParseCsv("a,b\r\n\"x\ny\",z\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[1][0], "x\ny");
}

TEST(CsvTest, FormatRoundTrip) {
  std::vector<std::string> fields = {"plain", "with,comma", "with\"quote",
                                     "multi\nline"};
  std::string line = FormatCsvLine(fields);
  auto rows = ParseCsv(line);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0], fields);
}

TEST(CsvTest, CrlfAndLoneCrBothTerminateRecords) {
  auto rows = ParseCsv("a,b\r\nc,d\re,f\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 3u);
  EXPECT_EQ((*rows)[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ((*rows)[1], (std::vector<std::string>{"c", "d"}));
  EXPECT_EQ((*rows)[2], (std::vector<std::string>{"e", "f"}));
}

TEST(CsvTest, CrlfInsideQuotesIsPreserved) {
  auto rows = ParseCsv("\"x\r\ny\",z\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][0], "x\r\ny");
}

TEST(CsvTest, UnterminatedQuotedFieldAtEofIsDiagnosed) {
  auto rows = ParseCsv("a,b\nc,\"unclosed");
  ASSERT_FALSE(rows.ok());
  EXPECT_TRUE(rows.status().IsParseError());
  // The diagnostic locates the damage after the last complete record.
  EXPECT_NE(rows.status().message().find("unterminated quoted field"),
            std::string::npos);
  EXPECT_NE(rows.status().message().find("after 1 complete record"),
            std::string::npos);
}

TEST(CsvTest, TrailingDelimiterYieldsEmptyFinalField) {
  auto fields = ParseCsvLine("a,b,");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(*fields, (std::vector<std::string>{"a", "b", ""}));
  auto rows = ParseCsv("a,b,\nc,d,\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0], (std::vector<std::string>{"a", "b", ""}));
  EXPECT_EQ((*rows)[1], (std::vector<std::string>{"c", "d", ""}));
}

TEST(CsvTest, TokenizerYieldsViewsRecordNumbersAndQuotedEmpty) {
  const std::string text = "a,\"\",c\r\n\r\n\"x\ny\",\"q\"\"\"\n\nlast";
  CsvTokenizer csv(text);
  ASSERT_TRUE(csv.Next());
  EXPECT_EQ(csv.record_number(), 1u);
  ASSERT_EQ(csv.fields().size(), 3u);
  EXPECT_EQ(csv.fields()[0].text, "a");
  // A field without quotes is a view into the input itself.
  EXPECT_EQ(csv.fields()[0].text.data(), text.data());
  EXPECT_FALSE(csv.fields()[0].quoted_empty);
  EXPECT_EQ(csv.fields()[1].text, "");
  EXPECT_TRUE(csv.fields()[1].quoted_empty);
  EXPECT_EQ(csv.raw(), "a,\"\",c");
  ASSERT_TRUE(csv.Next());
  EXPECT_EQ(csv.record_number(), 3u);  // the blank record counts
  ASSERT_EQ(csv.fields().size(), 2u);
  EXPECT_EQ(csv.fields()[0].text, "x\ny");
  EXPECT_EQ(csv.fields()[1].text, "q\"");
  ASSERT_TRUE(csv.Next());
  EXPECT_EQ(csv.record_number(), 5u);
  EXPECT_EQ(csv.fields()[0].text, "last");
  EXPECT_FALSE(csv.Next());
  EXPECT_FALSE(csv.unterminated());
}

TEST(CsvTest, TokenizerStopsAtAnUnterminatedFinalRecord) {
  CsvTokenizer csv("a,b\n\nc,\"open\nd");
  ASSERT_TRUE(csv.Next());
  EXPECT_FALSE(csv.Next());
  EXPECT_TRUE(csv.unterminated());
  EXPECT_EQ(csv.record_number(), 3u);
  EXPECT_EQ(csv.raw(), "c,\"open\nd");
  EXPECT_EQ(csv.UnterminatedError().message(),
            "unterminated quoted field at end of input (after 1 complete "
            "records)");
  EXPECT_FALSE(csv.Next());
}

TEST(CsvTest, QuoteInsideAFieldOpensAQuotedRun) {
  auto fields = ParseCsvLine("ab\"c,d\"e,f");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(*fields, (std::vector<std::string>{"abc,de", "f"}));
}

TEST(CsvTest, ParseCsvLineErrorsInInputOrder) {
  // A quoted line break fails first, wherever it is.
  EXPECT_EQ(ParseCsvLine("a\n\"b\nc").status().message(),
            "newline inside quoted field");
  EXPECT_EQ(ParseCsvLine("a\nb").status().message(),
            "multiple records in single CSV line");
  EXPECT_EQ(ParseCsvLine("a\n\"b").status().message(),
            "unterminated quoted field at end of input (after 1 complete "
            "records)");
  auto blank = ParseCsvLine("\n");
  ASSERT_TRUE(blank.ok());
  EXPECT_EQ(*blank, (std::vector<std::string>{""}));
}

TEST(CsvTest, ReadMissingFileIsNotFound) {
  EXPECT_TRUE(ReadFile("/nonexistent/zzz.csv").status().IsNotFound());
}

TEST(CsvTest, ReadFileErrorNamesPathAndCause) {
  auto text = ReadFile("/nonexistent/zzz.csv");
  ASSERT_FALSE(text.ok());
  // The message carries the offending path and the OS-level cause.
  EXPECT_NE(text.status().message().find("'/nonexistent/zzz.csv'"),
            std::string::npos);
  EXPECT_NE(text.status().message().find("No such file or directory"),
            std::string::npos);
}

TEST(CsvTest, WriteFileErrorNamesPathAndCause) {
  Status st = WriteFile("/nonexistent/dir/out.csv", "x\n");
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("'/nonexistent/dir/out.csv'"),
            std::string::npos);
  EXPECT_NE(st.message().find("No such file or directory"),
            std::string::npos);
}

TEST(CsvTest, WriteAndReadFile) {
  std::string path = testing::TempDir() + "/ddgms_csv_test.csv";
  ASSERT_TRUE(WriteFile(path, "x,y\n1,2\n").ok());
  auto text = ReadFile(path);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, "x,y\n1,2\n");
}

// ------------------------------------------------------------------ Date

TEST(DateTest, EpochIsZero) {
  Date d = Date::FromYmd(1970, 1, 1).value();
  EXPECT_EQ(d.days_since_epoch(), 0);
}

TEST(DateTest, RoundTripYmd) {
  Date d = Date::FromYmd(2013, 4, 8).value();
  EXPECT_EQ(d.year(), 2013);
  EXPECT_EQ(d.month(), 4);
  EXPECT_EQ(d.day(), 8);
  EXPECT_EQ(d.ToString(), "2013-04-08");
}

TEST(DateTest, ValidatesMonthAndDay) {
  EXPECT_TRUE(Date::FromYmd(2013, 13, 1).status().IsInvalidArgument());
  EXPECT_TRUE(Date::FromYmd(2013, 2, 29).status().IsInvalidArgument());
  EXPECT_TRUE(Date::FromYmd(2012, 2, 29).ok());  // leap year
}

TEST(DateTest, ParseString) {
  auto d = Date::FromString("1999-12-31");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->year(), 1999);
  EXPECT_TRUE(Date::FromString("31/12/1999").status().IsParseError());
  EXPECT_TRUE(Date::FromString("1999-12-31x").status().IsParseError());
}

TEST(DateTest, ParseStringFollowsScanfRules) {
  const int32_t want = Date::FromYmd(2020, 1, 5)->days_since_epoch();
  for (const std::string text :
       {"2020-1-5", " 2020-01-05", "+2020-01-05", "2020- 01-05",
        "2020-01-\t5", "02020-01-05"}) {
    Date d;
    EXPECT_TRUE(Date::TryParse(text, &d)) << text;
    EXPECT_EQ(d.days_since_epoch(), want) << text;
    EXPECT_TRUE(Date::FromString(text).ok()) << text;
  }
  // sscanf reads a C string: an embedded NUL ends the text.
  EXPECT_TRUE(Date::FromString(std::string("2020-01-05\0x", 12)).ok());
  for (const char* text : {"2020-01-05 ", "2020 -01-05", "- 2020-01-05",
                           "2020-01", "", "2020-01-05x", "2020-1.5-05"}) {
    Date d;
    EXPECT_FALSE(Date::TryParse(text, &d)) << text;
    EXPECT_TRUE(Date::FromString(text).status().IsParseError()) << text;
  }
  EXPECT_TRUE(Date::FromString("2020-02-30").status().IsInvalidArgument());
  EXPECT_TRUE(Date::FromString("2020-13-01").status().IsInvalidArgument());
}

TEST(DateTest, OutOfRangeDatesFailInsteadOfWrapping) {
  // Day counts past int32, components past int, and a year at INT_MIN
  // (whose January shift would overflow int) are all rejected.
  for (const char* text :
       {"100000000-01-01", "-5877641-06-22", "5881580-07-12",
        "99999999999-01-01", "2020-99999999999-01", "-2147483648-01-01",
        "2147483647-12-31"}) {
    Date d;
    EXPECT_FALSE(Date::TryParse(text, &d)) << text;
    EXPECT_TRUE(Date::FromString(text).status().IsInvalidArgument())
        << text;
  }
  EXPECT_EQ(Date::FromString("100000000-01-01").status().message(),
            "date out of range: 100000000-01-01");
  EXPECT_EQ(Date::FromString("99999999999-01-01").status().message(),
            "date component out of range: '99999999999-01-01'");
  EXPECT_TRUE(Date::FromYmd(100000000, 1, 1).status().IsInvalidArgument());
  EXPECT_TRUE(Date::FromYmd(std::numeric_limits<int>::min(), 1, 1)
                  .status()
                  .IsInvalidArgument());
}

TEST(DateTest, Int32ExtremesRoundTrip) {
  auto lo = Date::FromString("-5877641-06-23");
  ASSERT_TRUE(lo.ok()) << lo.status();
  EXPECT_EQ(lo->days_since_epoch(), std::numeric_limits<int32_t>::min());
  EXPECT_EQ(lo->ToString(), "-5877641-06-23");
  auto hi = Date::FromString("5881580-07-11");
  ASSERT_TRUE(hi.ok()) << hi.status();
  EXPECT_EQ(hi->days_since_epoch(), std::numeric_limits<int32_t>::max());
  EXPECT_EQ(hi->ToString(), "5881580-07-11");
}

TEST(DateTest, ArithmeticAndComparison) {
  Date a = Date::FromYmd(2010, 1, 1).value();
  Date b = a.AddDays(365);
  EXPECT_EQ(b.ToString(), "2011-01-01");
  EXPECT_EQ(b.DaysSince(a), 365);
  EXPECT_NEAR(b.YearsSince(a), 1.0, 0.01);
  EXPECT_LT(a, b);
  EXPECT_GE(b, a);
}

// ------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    double v = rng.NextGaussian();
    sum += v;
    sum_sq += v * v;
  }
  double mean = sum / n;
  double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(RngTest, BernoulliRate) {
  Rng rng(17);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, CategoricalFollowsWeights) {
  Rng rng(19);
  std::vector<double> weights = {1.0, 3.0};
  int ones = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.Categorical(weights) == 1) ++ones;
  }
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.75, 0.01);
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(23);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace ddgms
